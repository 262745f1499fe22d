package replication

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wal"
)

// AuditFileName is the audit trail's file inside the WAL directory. It
// is append-only and shipped to followers exactly like a segment.
const AuditFileName = "audit.log"

// On-disk layout: a 20-byte header (magic, genesis sequence, batch
// size) followed by fixed 41-byte records:
//
//	'L' | seq u64 | leaf  [32]   one per op, gapless from genesis+1
//	'B' | batch u64 | head [32]  after every BatchN-th leaf: the sealed
//	                             chain head, so boot resumes without
//	                             re-hashing the whole trail
//
// A trailing partial record is a torn write and is truncated on the
// next open. Tampering is NOT detected here — that is walcheck's full
// re-verification, which recomputes every leaf from the WAL frames and
// refolds the chain; the daemon trusts its own disk the same way the
// WAL does.
const (
	auditHeaderLen = 20
	auditRecordLen = 41

	recLeaf = 'L'
	recSeal = 'B'
)

// ErrAudit is the sentinel for unrecoverable audit-trail damage.
var ErrAudit = errors.New("replication: corrupt audit trail")

// AuditError pinpoints audit-trail damage.
type AuditError struct{ Reason string }

func (e *AuditError) Error() string { return "replication: corrupt audit trail: " + e.Reason }

// Is makes errors.Is(err, ErrAudit) true for every AuditError.
func (e *AuditError) Is(target error) bool { return target == ErrAudit }

// AuditLeaf is one decoded leaf record.
type AuditLeaf struct {
	Seq  uint64
	Leaf Hash
}

// AuditSeal is one decoded seal record: the chain head the writer
// persisted after sealing batch number Batch.
type AuditSeal struct {
	Batch uint64
	Head  Hash
}

// AuditTrail is the decoded audit.log contents.
type AuditTrail struct {
	GenesisSeq uint64
	BatchN     int
	Leaves     []AuditLeaf
	Seals      []AuditSeal
	// SealedHead/SealedBatches reflect the last seal record (genesis
	// values when none).
	SealedHead    Hash
	SealedBatches uint64
	// TornBytes counts bytes dropped from a trailing partial record.
	TornBytes int64
}

// LeafHashes returns just the hashes, ordered by seq.
func (t *AuditTrail) LeafHashes() []Hash {
	out := make([]Hash, len(t.Leaves))
	for i, l := range t.Leaves {
		out[i] = l.Leaf
	}
	return out
}

// ReadAuditTrail decodes dir/audit.log. Missing file returns
// (nil, nil): the trail simply has not started yet. A torn trailing
// record is tolerated; structural damage (bad magic, sequence gaps,
// misplaced seals) is a typed *AuditError.
func ReadAuditTrail(dir string) (*AuditTrail, error) {
	data, err := os.ReadFile(filepath.Join(dir, AuditFileName))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	return decodeAuditTrail(data)
}

func decodeAuditTrail(data []byte) (*AuditTrail, error) {
	if len(data) < auditHeaderLen {
		return nil, &AuditError{Reason: fmt.Sprintf("header is %d bytes, want %d", len(data), auditHeaderLen)}
	}
	if string(data[:8]) != auditMagic {
		return nil, &AuditError{Reason: "bad magic"}
	}
	t := &AuditTrail{
		GenesisSeq: binary.LittleEndian.Uint64(data[8:]),
		BatchN:     int(binary.LittleEndian.Uint32(data[16:])),
	}
	if t.BatchN <= 0 {
		return nil, &AuditError{Reason: fmt.Sprintf("batch size %d", t.BatchN)}
	}
	t.SealedHead = GenesisHead(t.GenesisSeq)
	body := data[auditHeaderLen:]
	whole := len(body) / auditRecordLen * auditRecordLen
	t.TornBytes = int64(len(body) - whole)
	next := t.GenesisSeq + 1
	for off := 0; off < whole; off += auditRecordLen {
		rec := body[off : off+auditRecordLen]
		switch rec[0] {
		case recLeaf:
			seq := binary.LittleEndian.Uint64(rec[1:])
			if seq != next {
				return nil, &AuditError{Reason: fmt.Sprintf("leaf sequence gap: want %d, record holds %d", next, seq)}
			}
			var h Hash
			copy(h[:], rec[9:])
			t.Leaves = append(t.Leaves, AuditLeaf{Seq: seq, Leaf: h})
			next++
		case recSeal:
			batch := binary.LittleEndian.Uint64(rec[1:])
			if batch != t.SealedBatches+1 {
				return nil, &AuditError{Reason: fmt.Sprintf("seal gap: want batch %d, record holds %d", t.SealedBatches+1, batch)}
			}
			if got := uint64(len(t.Leaves)); got != batch*uint64(t.BatchN) {
				return nil, &AuditError{Reason: fmt.Sprintf("seal %d after %d leaves, want %d", batch, got, batch*uint64(t.BatchN))}
			}
			copy(t.SealedHead[:], rec[9:])
			t.SealedBatches = batch
			t.Seals = append(t.Seals, AuditSeal{Batch: batch, Head: t.SealedHead})
		default:
			return nil, &AuditError{Reason: fmt.Sprintf("unknown record type %#x", rec[0])}
		}
	}
	return t, nil
}

// truncateTo drops every leaf above head, plus the seal records that
// sealed them. The trail is derived data: when it runs ahead of the
// durable log — a batch-mode audit flush that beat the WAL fsync
// before a crash, or a promoted follower whose mirrored audit.log
// outlives its truncated torn tail — the surplus attests ops that are
// no longer in the history and must go, or the chain head would embed
// a false history and every Record at a reused sequence would fail.
func (t *AuditTrail) truncateTo(head uint64) {
	if head < t.GenesisSeq {
		return // caller recreates the trail outright
	}
	keep := head - t.GenesisSeq
	if keep >= uint64(len(t.Leaves)) {
		return
	}
	t.Leaves = t.Leaves[:keep]
	seals := keep / uint64(t.BatchN)
	if seals < t.SealedBatches {
		t.Seals = t.Seals[:seals]
		t.SealedBatches = seals
		if seals > 0 {
			t.SealedHead = t.Seals[seals-1].Head
		} else {
			t.SealedHead = GenesisHead(t.GenesisSeq)
		}
	}
}

// Recheck recomputes the audit chain from the stored leaves and
// verifies every stored seal record against it — so editing a leaf
// record without re-deriving every later seal is caught even offline.
// It returns the recomputed head over the full stored history.
func (t *AuditTrail) Recheck() (Hash, error) {
	c := NewChain(t.GenesisSeq, t.BatchN)
	si := 0
	for _, l := range t.Leaves {
		sealed, err := c.Append(l.Seq, l.Leaf)
		if err != nil {
			return Hash{}, err
		}
		if sealed {
			head, batches := c.SealedHead()
			if si >= len(t.Seals) {
				return Hash{}, fmt.Errorf("trail lacks a seal record for batch %d", batches)
			}
			s := t.Seals[si]
			si++
			if s.Batch != batches || s.Head != head {
				return Hash{}, fmt.Errorf("seal for batch %d does not match the chain recomputed from the leaf records: the trail was rewritten", batches)
			}
		}
	}
	if si != len(t.Seals) {
		return Hash{}, fmt.Errorf("trail holds %d seal records, leaf history seals only %d batches", len(t.Seals), si)
	}
	return c.Head(), nil
}

// CrossCheckWAL re-hashes every decision frame still on disk and
// compares it against the trail's stored leaf — the check that catches
// a flipped byte in a shipped frame even when the flipper also fixed
// the frame's CRC. It returns how many ops were checkable (a pruned
// prefix is vouched for by the chain itself, not re-hashable).
func CrossCheckWAL(dir string, t *AuditTrail) (checked int, err error) {
	after, err := earliestAvailableSeq(dir)
	if err != nil {
		return 0, err
	}
	if after < t.GenesisSeq {
		after = t.GenesisSeq
	}
	ops, err := wal.ReadOps(dir, after)
	if err != nil {
		return 0, err
	}
	top := t.GenesisSeq + uint64(len(t.Leaves))
	var buf []byte
	for _, op := range ops {
		if op.Seq <= t.GenesisSeq || op.Seq > top {
			continue
		}
		buf = wal.EncodeOpPayload(buf[:0], op)
		if LeafHash(buf) != t.Leaves[op.Seq-t.GenesisSeq-1].Leaf {
			return checked, fmt.Errorf("decision frame at seq %d does not hash to its audit leaf: the frame or the trail was altered", op.Seq)
		}
		checked++
	}
	return checked, nil
}

// AuditOptions tune an Audit writer; the zero value is usable.
type AuditOptions struct {
	// BatchN is the Merkle batch size (default DefaultBatchN). Ignored
	// when the directory already holds a trail — its batch size wins.
	BatchN int
	// WALHead is the recovered durable head of the audited log
	// (wal.Log.NextSeq()-1); a pointer so an empty log's head 0 is
	// distinguishable from "not supplied". Nil makes OpenAudit derive
	// it with a read-only recovery pass over the directory.
	WALHead *uint64
	// FlushInterval is the group-flush window for leaf records
	// (default 5ms). Seals always flush + fsync immediately.
	FlushInterval time.Duration
	// QueueDepth bounds the pending-record queue (default 1<<15); a
	// full queue backpressures the writer rather than dropping leaves.
	QueueDepth int
}

func (o AuditOptions) withDefaults() AuditOptions {
	if o.BatchN <= 0 {
		o.BatchN = DefaultBatchN
	}
	if o.FlushInterval <= 0 {
		o.FlushInterval = 5 * time.Millisecond
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 1 << 15
	}
	return o
}

// Audit appends the Merkle audit trail for a WAL directory. Record is
// called by the daemon's writer goroutine after every durable append;
// hashing and file I/O happen on a background goroutine so the
// admission hot path never absorbs a SHA-256 or a write(2).
type Audit struct {
	dir string
	o   AuditOptions

	mu    sync.Mutex // guards chain + file
	chain *Chain
	f     *os.File
	buf   []byte
	// fatal, once set, freezes the trail: the sink keeps draining the
	// queue (Record never blocks forever) but appends nothing more, so
	// the chain head can never drift from the durable history and
	// DurableSeq stops advancing — which holds the prune watermark and
	// makes the fault operator-visible instead of a silent counter.
	fatal error

	durable   atomic.Uint64 // highest seq fsynced into audit.log
	records   atomic.Int64
	seals     atomic.Int64
	flushErrs atomic.Int64

	// Record appends to q under qmu alone — it never touches mu, never
	// wakes the audit goroutine, and never pays a channel's
	// park/unpark round trip on the daemon's writer path. The audit
	// goroutine steals the whole slice each flush tick.
	qmu      sync.Mutex
	notFull  sync.Cond // signaled after each steal; Record waits when q is at QueueDepth
	q        []wal.Op
	spare    []wal.Op // recycled queue backing array (guarded by mu, handed over inside steal)
	enc      []byte   // scratch for tag+payload encoding (guarded by mu)
	stopping bool

	stop chan struct{}
	done chan struct{}
}

// OpenAudit opens (or starts) the audit trail for a WAL directory and
// reconciles it with the log in both directions: a trail that lags the
// WAL is backfilled by re-reading the raw op history, a trail that
// LEADS the WAL (its flush beat the WAL fsync before a crash, or a
// promoted follower's mirrored audit.log outlived the truncated torn
// tail) is cut back to the recovered head and re-derived, a missing
// trail starts a fresh chain at the earliest op still on disk, and a
// trail that cannot be reconciled (its gap was pruned away) is a typed
// error — the prune watermark exists exactly to keep that from
// happening.
func OpenAudit(dir string, o AuditOptions) (*Audit, error) {
	o = o.withDefaults()
	a := &Audit{
		dir:  dir,
		o:    o,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	a.notFull.L = &a.qmu
	trail, err := ReadAuditTrail(dir)
	if err != nil {
		return nil, err
	}
	if trail != nil {
		head, err := auditWALHead(dir, o)
		if err != nil {
			return nil, err
		}
		if trail.GenesisSeq > head {
			// Even the trail's genesis lies beyond the durable log: the
			// log was rebuilt or rolled back past it, so nothing stored
			// is attestable. Start the trail over.
			trail = nil
		} else {
			trail.truncateTo(head)
		}
	}
	var fileLen int64
	if trail == nil {
		genesis, err := earliestAvailableSeq(dir)
		if err != nil {
			return nil, err
		}
		a.chain = NewChain(genesis, o.BatchN)
		hdr := make([]byte, 0, auditHeaderLen)
		hdr = append(hdr, auditMagic...)
		hdr = binary.LittleEndian.AppendUint64(hdr, genesis)
		hdr = binary.LittleEndian.AppendUint32(hdr, uint32(o.BatchN))
		if err := os.WriteFile(filepath.Join(dir, AuditFileName), hdr, 0o644); err != nil {
			return nil, err
		}
		fileLen = auditHeaderLen
	} else {
		a.chain = NewChain(trail.GenesisSeq, trail.BatchN)
		a.o.BatchN = trail.BatchN
		// Resume from the last seal, replaying only the stored tail
		// leaves through the chain.
		sealSeq := trail.GenesisSeq + trail.SealedBatches*uint64(trail.BatchN)
		a.chain.restore(trail.SealedHead, trail.SealedBatches, sealSeq+1)
		for _, l := range trail.Leaves {
			if l.Seq <= sealSeq {
				continue
			}
			if _, err := a.chain.Append(l.Seq, l.Leaf); err != nil {
				return nil, err
			}
		}
		fileLen = auditHeaderLen + int64(len(trail.Leaves)+int(trail.SealedBatches))*auditRecordLen
	}
	f, err := os.OpenFile(filepath.Join(dir, AuditFileName), os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	// Truncate any torn trailing record so appends land on a record
	// boundary.
	if err := f.Truncate(fileLen); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(fileLen, 0); err != nil {
		f.Close()
		return nil, err
	}
	a.f = f
	// Backfill leaves the trail is missing (a torn audit tail, or ops
	// appended after the last clean shutdown) from the raw WAL history.
	missing, err := wal.ReadOps(dir, a.chain.NextSeq()-1)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("%w: trail ends at seq %d and the gap to the log is unreadable: %v",
			ErrAudit, a.chain.NextSeq()-1, err)
	}
	for _, op := range missing {
		if err := a.appendLocked(op); err != nil {
			f.Close()
			return nil, err
		}
	}
	if err := a.flushLocked(); err != nil {
		f.Close()
		return nil, err
	}
	go a.loop()
	return a, nil
}

// auditWALHead resolves the durable head OpenAudit reconciles against:
// the caller-supplied recovered head, or a read-only recovery pass
// (torn-tail tolerant, exactly what wal.Open would keep) when the
// caller has not opened the log itself.
func auditWALHead(dir string, o AuditOptions) (uint64, error) {
	if o.WALHead != nil {
		return *o.WALHead, nil
	}
	rec, err := wal.Read(dir)
	if err != nil {
		return 0, err
	}
	if n := len(rec.Ops); n > 0 {
		return rec.Ops[n-1].Seq, nil
	}
	return rec.State.Seq, nil
}

// earliestAvailableSeq finds where a fresh chain can start: just before
// the first record of the oldest segment, or at the newest snapshot
// when every segment has been pruned.
func earliestAvailableSeq(dir string) (uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, err
	}
	first := uint64(0)
	haveSeg := false
	var snapSeq uint64
	for _, e := range entries {
		s, ok := wal.FileSeq(e.Name())
		switch {
		case !ok:
		case wal.IsSegmentName(e.Name()):
			if !haveSeg || s < first {
				first, haveSeg = s, true
			}
		case s > snapSeq:
			snapSeq = s
		}
	}
	if haveSeg {
		if first == 0 {
			return 0, nil
		}
		return first - 1, nil
	}
	return snapSeq, nil
}

// Record hands one durable op to the trail. Called after wal.Append
// succeeded, in append order; blocks only when the audit goroutine has
// fallen a full queue behind (backpressure, never loss). The cost on
// the writer path is one uncontended mutex and a slice append — no
// goroutine wakeup (the audit loop polls on its flush tick).
func (a *Audit) Record(op wal.Op) {
	a.qmu.Lock()
	for len(a.q) >= a.o.QueueDepth && !a.stopping {
		a.notFull.Wait()
	}
	if !a.stopping {
		a.q = append(a.q, op)
	}
	a.qmu.Unlock()
}

// steal takes the whole pending queue. Callers must hold a.mu, so the
// steal-then-append sequence is atomic and records keep append order
// even when Flush and the audit loop race.
func (a *Audit) steal() []wal.Op {
	a.qmu.Lock()
	batch := a.q
	a.q = a.spare[:0]
	a.spare = nil
	if len(batch) > 0 {
		a.notFull.Broadcast()
	}
	a.qmu.Unlock()
	return batch
}

// absorbLocked appends every stolen record and flushes; after a fatal
// error it only drains. Caller holds a.mu. The return value is the
// latched error, so Flush and Close keep surfacing it.
func (a *Audit) absorbLocked() error {
	batch := a.steal()
	if a.fatal == nil {
		for _, op := range batch {
			if err := a.appendLocked(op); err != nil {
				a.setFatalLocked(err)
				break // the chain demands gapless sequences; the rest cannot land either
			}
		}
	}
	a.spare = batch[:0] // recycle the drained backing array
	if a.fatal == nil {
		if err := a.flushLocked(); err != nil {
			a.setFatalLocked(err)
		}
	}
	return a.fatal
}

func (a *Audit) setFatalLocked(err error) {
	if a.fatal == nil {
		a.fatal = err
		a.flushErrs.Add(1)
	}
}

// Head returns the current chain head, the sealed batch count, and the
// next expected sequence, as one consistent snapshot. The head covers
// every op handed to Record that the audit goroutine has absorbed.
func (a *Audit) Head() (head Hash, sealed uint64, nextSeq uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.chain.Head(), a.chain.SealedBatches(), a.chain.NextSeq()
}

// GenesisSeq returns the first sequence the trail covers + 1's
// predecessor (leaves start at GenesisSeq+1).
func (a *Audit) GenesisSeq() uint64 { return a.chain.GenesisSeq }

// BatchN returns the trail's Merkle batch size.
func (a *Audit) BatchN() int { return a.o.BatchN }

// DurableSeq returns the highest sequence whose leaf record is fsynced
// — the audit trail's contribution to the WAL prune watermark.
func (a *Audit) DurableSeq() uint64 { return a.durable.Load() }

// Stats returns (leaf records written, seals written, fatal sink
// errors latched).
func (a *Audit) Stats() (records, seals, flushErrs int64) {
	return a.records.Load(), a.seals.Load(), a.flushErrs.Load()
}

// Err returns the latched fatal sink error, if any. Once set, the
// trail is frozen and DurableSeq holds the prune watermark; the daemon
// checks this from its watermark loop and /metrics exposes it.
func (a *Audit) Err() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.fatal
}

// appendLocked hashes one op into the chain and buffers its records.
func (a *Audit) appendLocked(op wal.Op) error {
	// Inlined LeafHash over a reused scratch buffer: tag byte, then the
	// frame payload, hashed alloc-free. Identical to
	// LeafHash(EncodeOpPayload(nil, op)).
	a.enc = append(a.enc[:0], tagLeaf)
	a.enc = wal.EncodeOpPayload(a.enc, op)
	leaf := Hash(sha256.Sum256(a.enc))
	sealed, err := a.chain.Append(op.Seq, leaf)
	if err != nil {
		return err
	}
	a.buf = append(a.buf, recLeaf)
	a.buf = binary.LittleEndian.AppendUint64(a.buf, op.Seq)
	a.buf = append(a.buf, leaf[:]...)
	a.records.Add(1)
	if sealed {
		head, batches := a.chain.SealedHead()
		a.buf = append(a.buf, recSeal)
		a.buf = binary.LittleEndian.AppendUint64(a.buf, batches)
		a.buf = append(a.buf, head[:]...)
		a.seals.Add(1)
		return a.flushLocked()
	}
	return nil
}

// flushLocked writes and fsyncs the buffered records.
func (a *Audit) flushLocked() error {
	if len(a.buf) == 0 {
		return nil
	}
	if _, err := a.f.Write(a.buf); err != nil {
		return err
	}
	a.buf = a.buf[:0]
	if err := a.f.Sync(); err != nil {
		return err
	}
	a.durable.Store(a.chain.NextSeq() - 1)
	return nil
}

// Flush absorbs every record handed to Record so far and forces the
// buffered tail to disk (promote and tests).
func (a *Audit) Flush() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.absorbLocked()
}

func (a *Audit) loop() {
	defer close(a.done)
	t := time.NewTicker(a.o.FlushInterval)
	defer t.Stop()
	absorb := func() {
		a.mu.Lock()
		_ = a.absorbLocked() // errors latch in a.fatal; Err surfaces them
		a.mu.Unlock()
	}
	for {
		select {
		case <-t.C:
			absorb()
		case <-a.stop:
			absorb()
			return
		}
	}
}

// Close drains pending records, flushes, and closes the file.
func (a *Audit) Close() error {
	select {
	case <-a.stop:
		<-a.done
		return nil
	default:
	}
	// Refuse new records before stopping the loop: everything queued
	// before this instant is absorbed, nothing after it is silently
	// half-recorded.
	a.qmu.Lock()
	a.stopping = true
	a.notFull.Broadcast()
	a.qmu.Unlock()
	close(a.stop)
	<-a.done
	a.mu.Lock()
	defer a.mu.Unlock()
	err := a.absorbLocked()
	if cerr := a.f.Close(); err == nil {
		err = cerr
	}
	return err
}
