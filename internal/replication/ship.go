package replication

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
)

// Wire protocol between a primary's Source and a warm-standby Follower.
//
//	GET  /v1/repl/status          → JSON Manifest
//	GET  /v1/repl/fetch?file=&off= → "GPSSHIP1" + chunk stream
//	POST /v1/repl/ack             → JSON Ack
//
// The fetch body is a self-delimiting stream of CRC-framed chunks so a
// cut TCP connection can never be mistaken for a complete transfer: the
// stream is valid only if it ends with an end-of-stream chunk, and every
// data chunk carries a CRC32-C over its payload (the same Castagnoli
// polynomial the WAL frames use). A follower therefore verifies shipped
// bytes twice — once per chunk on receipt, and again frame-by-frame
// through the recovery decoder before acking.

// shipMagic opens every fetch response body.
const shipMagic = "GPSSHIP1"

// Chunk types.
const (
	chunkData = 1 // file bytes at an offset
	chunkEnd  = 2 // end of stream: transfer is complete
)

// shipMaxChunk bounds one chunk's payload; also the decoder's
// allocation guard against hostile lengths.
const shipMaxChunk = 1 << 18

var shipCRC = crc32.MakeTable(crc32.Castagnoli)

// Manifest is the primary's replication status document: the durable
// head, the audit-chain position, and every shippable file with its
// current size. File order is the apply order a follower should use.
type Manifest struct {
	NodeID   string `json:"node_id"`
	HeadSeq  uint64 `json:"head_seq"` // highest durable op sequence (sum over stripes)
	UnixNano int64  `json:"unix_nano"`

	// Stripes and StripeHeads describe a multi-stripe primary: the
	// stripe count and each stripe's own durable head. 0/absent means
	// one stripe, shipped as the plain directory.
	Stripes     int      `json:"stripes,omitempty"`
	StripeHeads []uint64 `json:"stripe_heads,omitempty"`

	AuditGenesis uint64 `json:"audit_genesis"`
	AuditBatchN  int    `json:"audit_batch_n"`
	AuditHead    string `json:"audit_head"` // hex chain head

	Files []ManifestFile `json:"files"`
}

// ManifestFile describes one shippable file.
type ManifestFile struct {
	Name string `json:"name"`
	Size int64  `json:"size"`
}

// Ack is the follower's durable-apply acknowledgement: every op with
// Seq <= AckSeq is on the follower's disk and frame-verified. The
// primary folds it into the prune watermark.
type Ack struct {
	FollowerID string `json:"follower_id"`
	AckSeq     uint64 `json:"ack_seq"`
	// StripeSeqs carries the per-stripe verified heads when the primary
	// has several stripes (AckSeq is then their sum); absent for a
	// one-stripe mirror, whose AckSeq is its stripe's head.
	StripeSeqs []uint64 `json:"stripe_seqs,omitempty"`
}

// AckReply returns the primary's current watermark view.
type AckReply struct {
	HeadSeq uint64 `json:"head_seq"`
}

// ShipError is a typed wire-protocol decode failure. A follower treats
// it as a transport fault (retry), never as local divergence.
type ShipError struct{ Reason string }

func (e *ShipError) Error() string { return "replication: ship stream: " + e.Reason }

// FileChunk is one decoded data chunk.
type FileChunk struct {
	Name     string
	Off      int64
	FileSize int64 // total file size at send time
	Payload  []byte
}

// AppendChunk encodes one data chunk:
//
//	u8 type | u16 nameLen | name | u64 off | u64 fileSize |
//	u32 payloadLen | u32 crc32c(payload) | payload
func AppendChunk(b []byte, c FileChunk) ([]byte, error) {
	if len(c.Name) > 1<<10 {
		return b, fmt.Errorf("replication: file name %d bytes", len(c.Name))
	}
	if len(c.Payload) > shipMaxChunk {
		return b, fmt.Errorf("replication: chunk payload %d bytes exceeds %d", len(c.Payload), shipMaxChunk)
	}
	b = append(b, chunkData)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(c.Name)))
	b = append(b, c.Name...)
	b = binary.LittleEndian.AppendUint64(b, uint64(c.Off))
	b = binary.LittleEndian.AppendUint64(b, uint64(c.FileSize))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(c.Payload)))
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(c.Payload, shipCRC))
	b = append(b, c.Payload...)
	return b, nil
}

// AppendEnd encodes the end-of-stream chunk.
func AppendEnd(b []byte) []byte { return append(b, chunkEnd) }

// ChunkReader decodes a fetch response body chunk by chunk.
type ChunkReader struct {
	r      io.Reader
	opened bool
	done   bool
	buf    []byte
}

// NewChunkReader wraps a fetch response body.
func NewChunkReader(r io.Reader) *ChunkReader { return &ChunkReader{r: r} }

func (cr *ChunkReader) fill(n int) ([]byte, error) {
	if cap(cr.buf) < n {
		cr.buf = make([]byte, n)
	}
	b := cr.buf[:n]
	if _, err := io.ReadFull(cr.r, b); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, &ShipError{Reason: "stream cut mid-chunk"}
		}
		return nil, err
	}
	return b, nil
}

// Next returns the next data chunk. io.EOF means the stream ended
// cleanly with an end chunk; any other error means the transfer cannot
// be trusted. The returned chunk's Payload is valid until the next
// call.
func (cr *ChunkReader) Next() (FileChunk, error) {
	if cr.done {
		return FileChunk{}, io.EOF
	}
	if !cr.opened {
		m, err := cr.fill(len(shipMagic))
		if err != nil {
			return FileChunk{}, err
		}
		if string(m) != shipMagic {
			return FileChunk{}, &ShipError{Reason: "bad stream magic"}
		}
		cr.opened = true
	}
	t, err := cr.fill(1)
	if err != nil {
		return FileChunk{}, err
	}
	switch t[0] {
	case chunkEnd:
		cr.done = true
		return FileChunk{}, io.EOF
	case chunkData:
	default:
		return FileChunk{}, &ShipError{Reason: fmt.Sprintf("unknown chunk type %#x", t[0])}
	}
	h, err := cr.fill(2)
	if err != nil {
		return FileChunk{}, err
	}
	nameLen := int(binary.LittleEndian.Uint16(h))
	if nameLen == 0 || nameLen > 1<<10 {
		return FileChunk{}, &ShipError{Reason: fmt.Sprintf("file name length %d", nameLen)}
	}
	nb, err := cr.fill(nameLen)
	if err != nil {
		return FileChunk{}, err
	}
	name := string(nb)
	h, err = cr.fill(8 + 8 + 4 + 4)
	if err != nil {
		return FileChunk{}, err
	}
	c := FileChunk{
		Name:     name,
		Off:      int64(binary.LittleEndian.Uint64(h)),
		FileSize: int64(binary.LittleEndian.Uint64(h[8:])),
	}
	payloadLen := binary.LittleEndian.Uint32(h[16:])
	wantCRC := binary.LittleEndian.Uint32(h[20:])
	if payloadLen == 0 || payloadLen > shipMaxChunk {
		return FileChunk{}, &ShipError{Reason: fmt.Sprintf("chunk payload length %d", payloadLen)}
	}
	if c.Off < 0 || c.FileSize < 0 || c.Off+int64(payloadLen) > c.FileSize {
		return FileChunk{}, &ShipError{Reason: fmt.Sprintf("chunk [%d,+%d) outside file of %d bytes", c.Off, payloadLen, c.FileSize)}
	}
	p, err := cr.fill(int(payloadLen))
	if err != nil {
		return FileChunk{}, err
	}
	if got := crc32.Checksum(p, shipCRC); got != wantCRC {
		return FileChunk{}, &ShipError{Reason: fmt.Sprintf("chunk crc mismatch: stored %08x, computed %08x", wantCRC, got)}
	}
	c.Payload = p
	return c, nil
}

// DecodeManifest parses a status response body.
func DecodeManifest(r io.Reader) (Manifest, error) {
	var m Manifest
	dec := json.NewDecoder(io.LimitReader(r, 1<<22))
	if err := dec.Decode(&m); err != nil {
		return Manifest{}, &ShipError{Reason: "manifest: " + err.Error()}
	}
	return m, nil
}
