package wal

import (
	"fmt"
	"strconv"
	"strings"
)

// This file is the read-side surface other subsystems build on: the
// replication follower re-verifies shipped segment bytes frame by frame
// with exactly the recovery decoder, and the audit trail re-encodes op
// payloads to hash them, so a leaf computed from a live op equals the
// leaf computed from the bytes on disk.

// SegmentHeaderLen is the fixed byte length of a segment file header
// (magic + first-record sequence).
const SegmentHeaderLen = segHeaderLen

// IsSegmentName and IsSnapshotName classify WAL directory entries; the
// fixed-width hex in both name forms makes lexicographic order equal
// sequence order.
func IsSegmentName(name string) bool {
	return strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".seg")
}

// IsSnapshotName reports whether name is a snapshot file.
func IsSnapshotName(name string) bool {
	return strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".snap")
}

// FileSeq parses the sequence number a WAL file name carries: a
// segment's first record, or the last record a snapshot covers. ok is
// false for any other name. It is the one parser of the naming rule
// segName and snapName write.
func FileSeq(name string) (seq uint64, ok bool) {
	var hex string
	switch {
	case IsSegmentName(name):
		hex = strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".seg")
	case IsSnapshotName(name):
		hex = strings.TrimSuffix(strings.TrimPrefix(name, "snap-"), ".snap")
	default:
		return 0, false
	}
	seq, err := strconv.ParseUint(hex, 16, 64)
	return seq, err == nil
}

// EncodeOpPayload appends the canonical frame payload encoding of o to
// b. The encoding is deterministic, so hashing a re-encoded op yields
// the same digest as hashing the payload bytes framed on disk — the
// property the Merkle audit trail rests on.
func EncodeOpPayload(b []byte, o Op) []byte { return appendOpPayload(b, o) }

// SegmentFirstSeq parses a complete segment header and returns the
// sequence number of the segment's first record.
func SegmentFirstSeq(name string, data []byte) (uint64, error) {
	if len(data) < segHeaderLen {
		return 0, &CorruptError{File: name, Reason: fmt.Sprintf("segment header is %d bytes, want %d", len(data), segHeaderLen)}
	}
	return readSegHeader(name, data, false)
}

// DecodeSegmentFrames walks record frames from a segment body suffix
// (data after SegmentHeaderLen + already-verified frames), starting at
// expected sequence firstSeq. final selects the torn-tail rule exactly
// as recovery applies it: with final=true an incomplete or
// checksum-torn tail is tolerated and reported via torn, anything else
// is a typed *CorruptError. goodLen is the count of body bytes consumed
// by intact frames (baseOff-relative, as recovery reports offsets).
func DecodeSegmentFrames(name string, body []byte, baseOff int64, firstSeq uint64, final bool) (ops []Op, goodLen int64, torn bool, err error) {
	res, err := decodeFrames(name, body, baseOff, firstSeq, final)
	if err != nil {
		return nil, res.goodLen, res.torn, err
	}
	return res.ops, res.goodLen, res.torn, nil
}

// ReadSnapshotState reads and checksum-verifies one snapshot file.
func ReadSnapshotState(path string) (State, error) { return readSnapshot(path) }

// ReadOps scans every segment in dir in order and returns the decoded
// ops with Seq > afterSeq, regardless of which snapshot covers them —
// the raw-history read the audit trail uses to backfill leaf hashes the
// durable audit log lost to a torn tail. A torn tail in the newest
// segment is tolerated; interior corruption or a history that no longer
// reaches back to afterSeq+1 is a typed error.
func ReadOps(dir string, afterSeq uint64) ([]Op, error) {
	ls, err := listDir(dir)
	if err != nil {
		return nil, err
	}
	var rec Recovered
	if _, _, err := walkSegments(dir, ls.segs, &rec); err != nil {
		return nil, err
	}
	ops := rec.Ops
	cut := 0
	for cut < len(ops) && ops[cut].Seq <= afterSeq {
		cut++
	}
	ops = ops[cut:]
	if len(ops) > 0 && ops[0].Seq != afterSeq+1 {
		return nil, &CorruptError{Reason: fmt.Sprintf("log starts at seq %d, caller needs history from %d", ops[0].Seq, afterSeq+1)}
	}
	return ops, nil
}
