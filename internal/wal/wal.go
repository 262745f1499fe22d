// Package wal is the durability layer under the gpsd admission daemon:
// a segmented, CRC32C-checksummed append-only log of admit/release
// operations with periodic full-state snapshots. The admitted session
// set is exactly the state the paper's statistical guarantees are
// quantified over (the feasible partition of eqs. 37–39 and every
// per-session Theorem 7–12 bound are functions of it), so it must
// survive a crash: on restart the daemon restores the newest valid
// snapshot, replays the log suffix, and publishes a first epoch
// bit-identical to an offline AnalyzeServer over the same op history.
//
// Durability contract. Records are framed with a length prefix and a
// CRC32C over the payload, and carry gapless sequence numbers. Recovery
// truncates the log at the first bad checksum only when the damage is a
// torn final write (the frame runs into the end of the newest segment);
// a bad frame with intact data after it, a sequence gap, or an
// undecodable checksummed payload is mid-log corruption and fails hard
// with *CorruptError — silently dropping interior operations would
// desynchronize the admitted set from every bound already handed out.
//
// Write path. Append encodes the batch and hands the bytes to the
// current segment under SyncBatch (the default) with one write(2) per
// flush and fsync(2) on a short timer — group commit: all appends in a
// flush window share one sync. The process-crash loss window is zero
// once write(2) returns (the page cache survives SIGKILL); the
// power-loss window is bounded by FlushInterval. SyncAlways instead
// syncs before Append returns, for callers that need power-loss
// durability per decision and accept the latency.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrCorrupt is the sentinel every *CorruptError matches via errors.Is:
// the log holds interior damage that recovery must not paper over.
var ErrCorrupt = errors.New("wal: corrupt log")

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log closed")

// CorruptError pinpoints unrecoverable log damage.
type CorruptError struct {
	File   string
	Offset int64
	Reason string
}

func (e *CorruptError) Error() string {
	if e.File == "" {
		return fmt.Sprintf("wal: corrupt log: %s", e.Reason)
	}
	return fmt.Sprintf("wal: corrupt log: %s at offset %d: %s", e.File, e.Offset, e.Reason)
}

// Is makes errors.Is(err, ErrCorrupt) true for every CorruptError.
func (e *CorruptError) Is(target error) bool { return target == ErrCorrupt }

// SyncPolicy selects when appended records are fsynced.
type SyncPolicy int

const (
	// SyncBatch (default) group-commits: records are written to the OS
	// promptly but fsynced on the FlushInterval timer, so all appends in
	// a window share one sync. Survives process crash (SIGKILL) with no
	// loss; bounds power-loss exposure by the interval.
	SyncBatch SyncPolicy = iota
	// SyncAlways fsyncs before Append returns.
	SyncAlways
)

// Crashpoint is the fault-injection hook consulted at named durability
// boundaries (internal/faults.CrashPlan implements it). Armed reports
// whether this hit should crash; the log then performs the point's
// partial effect (e.g. the half-written record of CrashTornAppend) and
// calls Kill, which must not return.
type Crashpoint interface {
	Armed(point string) bool
	Kill()
}

// Crashpoint names understood by the log.
const (
	// CrashAppend dies before the batch reaches the file: the ops are
	// lost entirely, leaving a clean shorter history.
	CrashAppend = "wal.append"
	// CrashTornAppend writes only half of the encoded batch, syncs the
	// fragment to disk, and dies: recovery must truncate the torn tail.
	CrashTornAppend = "wal.append.torn"
	// CrashSnapshot dies after writing the temporary snapshot file but
	// before the atomic rename: recovery must ignore the orphan.
	CrashSnapshot = "wal.snapshot"
)

// Options tune a Log. The zero value is usable.
type Options struct {
	// SegmentBytes rotates to a fresh segment once the current one
	// exceeds this size (default 64 MiB).
	SegmentBytes int64
	// Sync selects the fsync policy (default SyncBatch).
	Sync SyncPolicy
	// FlushInterval is the SyncBatch group-commit window (default 2ms).
	FlushInterval time.Duration
	// FlushBytes wakes the group-commit flusher early once the
	// in-memory buffer exceeds this size, bounding the process-crash
	// loss window under burst load (default 256 KiB). At four times
	// this size the writer flushes inline as backpressure.
	FlushBytes int
	// Crash is the fault-injection hook; nil disables every crashpoint.
	Crash Crashpoint
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 20
	}
	if o.FlushInterval <= 0 {
		o.FlushInterval = 2 * time.Millisecond
	}
	if o.FlushBytes <= 0 {
		o.FlushBytes = 256 << 10
	}
	return o
}

// Recovered is what Open (or Read) reconstructed from disk.
type Recovered struct {
	// State is the newest valid snapshot (zero State when none exists).
	State State
	// Ops is the replayable log suffix with Seq > State.Seq.
	Ops []Op
	// TornBytes counts bytes discarded from a torn final write.
	TornBytes int64
	// SkippedSnapshots counts newer snapshot files that failed their
	// checksum and were passed over for an older valid one.
	SkippedSnapshots int
}

// SessionSet folds State and Ops into the admitted set the history
// implies (the daemon's boot path and tools/walcheck share it).
func (r *Recovered) SessionSet() (State, error) {
	st := r.State.Clone()
	if err := Replay(&st, r.Ops); err != nil {
		return State{}, err
	}
	return st, nil
}

// Log is an open write handle. Methods are safe for one writer
// goroutine plus the internal flusher; Append's caller sequences all
// mutations (the daemon's single-writer discipline).
type Log struct {
	dir string
	o   Options

	mu      sync.Mutex
	wrote   sync.Cond // signaled when a background write retires
	f       *os.File
	size    int64  // bytes durably framed in the current segment file
	buf     []byte // encoded frames not yet handed to the OS
	spare   []byte // recycled swap buffer for the background writer
	nextSeq uint64
	writing bool // the flusher owns bytes taken out of buf
	dirty   bool // bytes written to the OS but not yet fsynced
	err     error
	closed  bool

	kick chan struct{} // nudges the flusher when buf passes FlushBytes
	stop chan struct{}
	done chan struct{}

	// pruneMark is the highest sequence external consumers (replication
	// followers, the audit trail) have durably absorbed; prune never
	// removes a segment holding records above it. MaxUint64 (the
	// default) means no external consumer is holding segments back.
	pruneMark atomic.Uint64
}

func segName(first uint64) string { return fmt.Sprintf("wal-%016x.seg", first) }
func snapName(seq uint64) string  { return fmt.Sprintf("snap-%016x.snap", seq) }

// Open recovers the directory's history and returns an append handle
// positioned after it. A torn final write is truncated away; interior
// corruption fails with *CorruptError. The directory is created when
// missing.
func Open(dir string, o Options) (*Log, *Recovered, error) {
	o = o.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	rec, lastSeg, goodLen, err := recoverDir(dir, true)
	if err != nil {
		return nil, nil, err
	}
	l := &Log{
		dir:     dir,
		o:       o,
		nextSeq: nextSeq(rec),
		kick:    make(chan struct{}, 1),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	l.pruneMark.Store(math.MaxUint64)
	l.wrote.L = &l.mu
	if lastSeg != "" && goodLen >= segHeaderLen {
		path := filepath.Join(dir, lastSeg)
		if rec.TornBytes > 0 {
			if err := os.Truncate(path, goodLen); err != nil {
				return nil, nil, fmt.Errorf("wal: truncating torn tail of %s: %w", lastSeg, err)
			}
		}
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, nil, err
		}
		l.f, l.size = f, goodLen
	} else {
		if lastSeg != "" {
			// The newest segment died before even its header hit the
			// disk intact; it holds nothing, so recreate it cleanly.
			if err := os.Remove(filepath.Join(dir, lastSeg)); err != nil {
				return nil, nil, err
			}
		}
		if err := l.newSegment(l.nextSeq); err != nil {
			return nil, nil, err
		}
	}
	go l.flusher()
	return l, rec, nil
}

// Read recovers the history read-only: nothing is truncated, created,
// or pruned, so it is safe against a directory another process has
// open. A torn tail is tolerated (reported in TornBytes); interior
// corruption fails with *CorruptError.
func Read(dir string) (*Recovered, error) {
	rec, _, _, err := recoverDir(dir, false)
	return rec, err
}

func nextSeq(rec *Recovered) uint64 {
	if n := len(rec.Ops); n > 0 {
		return rec.Ops[n-1].Seq + 1
	}
	return rec.State.Seq + 1
}

// recoverDir scans the directory: newest valid snapshot, then every
// segment in order with sequence-continuity checks. forWrite removes
// orphaned snapshot temporaries left by a crash mid-snapshot.
func recoverDir(dir string, forWrite bool) (*Recovered, string, int64, error) {
	ls, err := listDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return &Recovered{}, "", 0, nil
		}
		return nil, "", 0, err
	}
	if forWrite {
		for _, name := range ls.tmps {
			_ = os.Remove(filepath.Join(dir, name))
		}
	}

	rec := &Recovered{}
	for i := len(ls.snaps) - 1; i >= 0; i-- {
		st, err := readSnapshot(filepath.Join(dir, ls.snaps[i]))
		if err != nil {
			rec.SkippedSnapshots++
			continue
		}
		rec.State = st
		break
	}

	lastSeg, goodLen, err := walkSegments(dir, ls.segs, rec)
	if err != nil {
		return nil, "", 0, err
	}
	// Drop ops the snapshot already covers, and demand the log actually
	// reaches back to it: a pruned prefix without a covering snapshot is
	// unrecoverable.
	if n := len(rec.Ops); n > 0 {
		first := rec.Ops[0].Seq
		if first > rec.State.Seq+1 {
			return nil, "", 0, &CorruptError{
				Reason: fmt.Sprintf("log starts at seq %d but newest valid snapshot covers only through %d", first, rec.State.Seq)}
		}
		cut := 0
		for cut < n && rec.Ops[cut].Seq <= rec.State.Seq {
			cut++
		}
		rec.Ops = rec.Ops[cut:]
	}
	return rec, lastSeg, goodLen, nil
}

// dirListing is one read of a WAL directory: its segment and snapshot
// file names, each in sequence order (the fixed-width hex in both name
// forms makes lexicographic order numeric), and the snapshot
// temporaries a crash mid-snapshot leaves behind.
type dirListing struct {
	segs, snaps, tmps []string
}

// listDir lists dir. Recovery, ReadOps and prune all read a directory's
// layout through it.
func listDir(dir string) (dirListing, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return dirListing{}, err
	}
	var ls dirListing
	for _, e := range entries {
		name := e.Name()
		switch {
		case IsSegmentName(name):
			ls.segs = append(ls.segs, name)
		case IsSnapshotName(name):
			ls.snaps = append(ls.snaps, name)
		case strings.HasSuffix(name, ".tmp"):
			ls.tmps = append(ls.tmps, name)
		}
	}
	sort.Strings(ls.segs)
	sort.Strings(ls.snaps)
	return ls, nil
}

// walkSegments decodes segs, in order, with the recovery rules: every
// segment must continue the previous one's sequence, interior damage is
// a *CorruptError, and only the final segment may end torn — mid-frame,
// or before its header was synced (empty in effect, so it holds no ops).
// The ops and the torn byte count go to rec; lastSeg is the final
// segment's name ("" with no segments) and goodLen its length through
// its last intact frame (0 when even its header is torn).
func walkSegments(dir string, segs []string, rec *Recovered) (lastSeg string, goodLen int64, err error) {
	want := uint64(0) // first record seq expected in the next segment; 0 = not yet known
	for i, name := range segs {
		final := i == len(segs)-1
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return "", 0, err
		}
		first, err := readSegHeader(name, data, final)
		if err != nil {
			if final && errors.Is(err, errTornHeader) {
				// Crash between creating the file and syncing its header:
				// an empty-in-effect segment; recovery discards it.
				rec.TornBytes += int64(len(data))
				lastSeg, goodLen = name, 0
				break
			}
			return "", 0, err
		}
		if want != 0 && first != want {
			return "", 0, &CorruptError{File: name,
				Reason: fmt.Sprintf("segment starts at seq %d, previous segment ended at %d", first, want-1)}
		}
		res, err := decodeFrames(name, data[segHeaderLen:], segHeaderLen, first, final)
		if err != nil {
			return "", 0, err
		}
		if res.torn {
			rec.TornBytes += int64(len(data)) - res.goodLen
		}
		rec.Ops = append(rec.Ops, res.ops...)
		want = first + uint64(len(res.ops))
		if final {
			lastSeg, goodLen = name, res.goodLen
		}
	}
	return lastSeg, goodLen, nil
}

// errTornHeader marks a final segment too short to hold its header.
var errTornHeader = errors.New("wal: torn segment header")

func readSegHeader(name string, data []byte, final bool) (uint64, error) {
	if len(data) < segHeaderLen {
		if final {
			return 0, errTornHeader
		}
		return 0, &CorruptError{File: name, Reason: fmt.Sprintf("segment is %d bytes, shorter than its header", len(data))}
	}
	if string(data[:8]) != segMagic {
		return 0, &CorruptError{File: name, Reason: "bad segment magic"}
	}
	return binary.LittleEndian.Uint64(data[8:]), nil
}

func readSnapshot(path string) (State, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return State{}, err
	}
	if len(data) < 8+frameHeader || string(data[:8]) != snapMagic {
		return State{}, fmt.Errorf("wal: %s: bad snapshot header", filepath.Base(path))
	}
	plen := int(binary.LittleEndian.Uint32(data[8:]))
	sum := binary.LittleEndian.Uint32(data[12:])
	if plen < 0 || 8+frameHeader+plen != len(data) {
		return State{}, fmt.Errorf("wal: %s: snapshot length mismatch", filepath.Base(path))
	}
	payload := data[8+frameHeader:]
	if crc32.Checksum(payload, castagnoli) != sum {
		return State{}, fmt.Errorf("wal: %s: snapshot checksum mismatch", filepath.Base(path))
	}
	return decodeState(payload)
}

// createSegment creates and syncs a fresh segment file whose first
// record will carry firstSeq.
func createSegment(dir string, firstSeq uint64) (*os.File, error) {
	path := filepath.Join(dir, segName(firstSeq))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, err
	}
	hdr := make([]byte, 0, segHeaderLen)
	hdr = append(hdr, segMagic...)
	hdr = putU64(hdr, firstSeq)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	if err := syncDir(dir); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// newSegment installs a fresh segment as the live one. Called with
// l.mu held (or before the flusher starts).
func (l *Log) newSegment(firstSeq uint64) error {
	f, err := createSegment(l.dir, firstSeq)
	if err != nil {
		return err
	}
	l.f, l.size = f, segHeaderLen
	return nil
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Append assigns sequence numbers to the batch (mutating the callers'
// Seq fields), encodes it, and makes it durable per the sync policy.
// The ops of one call are framed contiguously, so a torn write can only
// ever shear the batch's tail, never an interior record.
func (l *Log) Append(ops []Op) error {
	if len(ops) == 0 {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.err != nil {
		return l.err
	}
	if cp := l.o.Crash; cp != nil && cp.Armed(CrashAppend) {
		cp.Kill()
	}
	start := len(l.buf)
	for i := range ops {
		ops[i].Seq = l.nextSeq
		l.nextSeq++
		l.buf = appendOpFrame(l.buf, ops[i])
	}
	if cp := l.o.Crash; cp != nil && cp.Armed(CrashTornAppend) {
		// Flush everything before this batch intact, then shear the
		// batch itself mid-record and die.
		for l.writing {
			l.wrote.Wait()
		}
		whole, frag := l.buf[:start], l.buf[start:]
		_, _ = l.f.Write(whole)
		_, _ = l.f.Write(frag[:len(frag)/2])
		_ = l.f.Sync()
		cp.Kill()
	}
	if l.o.Sync == SyncAlways {
		if err := l.flushLocked(true); err != nil {
			return err
		}
	} else if len(l.buf) >= l.o.FlushBytes {
		// Group commit: wake the flusher and keep going. Only when it
		// has fallen far behind does the writer absorb the write(2)
		// itself, as backpressure.
		if len(l.buf) >= 4*l.o.FlushBytes {
			if err := l.flushLocked(false); err != nil {
				return err
			}
		} else {
			select {
			case l.kick <- struct{}{}:
			default:
			}
		}
	}
	return l.maybeRotateLocked()
}

// flushLocked hands the buffer to the OS (and optionally the platter)
// on the caller's goroutine. It first waits out any background write in
// flight so the segment only ever has one writer and frames stay in
// append order.
func (l *Log) flushLocked(sync bool) error {
	for l.writing {
		l.wrote.Wait()
	}
	if l.err != nil {
		return l.err
	}
	if len(l.buf) > 0 {
		n, err := l.f.Write(l.buf)
		if err != nil {
			// A short write leaves a torn tail exactly like a crash
			// would; poison the log so no later append can write valid
			// frames after garbage.
			l.err = fmt.Errorf("wal: append write: %w", err)
			return l.err
		}
		l.size += int64(n)
		l.buf = l.buf[:0]
		l.dirty = true
	}
	// A sync barrier never trusts the dirty flag: the flusher claims it
	// before its out-of-lock fsync retires, and rotation must not leave
	// an unsynced tail in a segment about to stop being final.
	if sync {
		if err := l.f.Sync(); err != nil {
			l.err = fmt.Errorf("wal: fsync: %w", err)
			return l.err
		}
		l.dirty = false
	}
	return nil
}

func (l *Log) maybeRotateLocked() error {
	if l.size < l.o.SegmentBytes {
		return nil
	}
	if err := l.flushLocked(true); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		l.err = err
		return err
	}
	if err := l.newSegment(l.nextSeq); err != nil {
		l.err = err
		return err
	}
	return nil
}

// flusher is the group-commit loop: every FlushInterval (or sooner,
// when Append kicks it past FlushBytes) it writes and fsyncs whatever
// accumulated, so all appends in the window share one write(2) and one
// sync. Both syscalls run outside l.mu — the flusher takes ownership of
// the buffer by swapping it against a recycled spare — so the writer's
// Append never absorbs disk time in SyncBatch mode.
func (l *Log) flusher() {
	defer close(l.done)
	t := time.NewTicker(l.o.FlushInterval)
	defer t.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-t.C:
		case <-l.kick:
		}
		l.flushOnce()
	}
}

// flushOnce is one background group commit: swap the buffer out under
// the lock, write and fsync it outside. Writer-side flushes
// (flushLocked) wait on l.wrote for the in-flight write to retire, so
// the segment file still only ever sees one writer at a time.
func (l *Log) flushOnce() {
	l.mu.Lock()
	if l.closed || l.err != nil || l.writing {
		l.mu.Unlock()
		return
	}
	if len(l.buf) == 0 {
		if !l.dirty {
			l.mu.Unlock()
			return
		}
		// The dirty flag is claimed before unlocking; a write racing
		// the sync re-marks it and the next tick covers it.
		l.dirty = false
		path := l.f.Name()
		l.mu.Unlock()
		l.syncSegment(path)
		return
	}
	take := l.buf
	l.buf = l.spare[:0]
	l.writing = true
	f := l.f
	l.mu.Unlock()

	n, werr := f.Write(take)
	path := f.Name()

	l.mu.Lock()
	l.size += int64(n)
	l.spare = take[:0]
	l.writing = false
	if werr != nil && l.err == nil {
		// A short write leaves a torn tail exactly like a crash would;
		// poison the log so no later append can write valid frames
		// after garbage.
		l.err = fmt.Errorf("wal: append write: %w", werr)
	}
	l.dirty = false // the sync below covers everything written so far
	broken := l.err != nil
	l.wrote.Broadcast()
	l.mu.Unlock()
	if !broken {
		l.syncSegment(path)
	}
}

// syncSegment fsyncs the segment at path on a fresh handle.
func (l *Log) syncSegment(path string) {
	if err := fsyncPath(path); err != nil && !os.IsNotExist(err) {
		// The segment can legitimately vanish mid-sync: pruning only
		// removes segments a just-fsynced snapshot covers. Anything
		// else poisons the log like an in-line fsync failure would.
		l.mu.Lock()
		if l.err == nil {
			l.err = fmt.Errorf("wal: fsync: %w", err)
		}
		l.mu.Unlock()
	}
}

// Snapshot captures the full admitted-set state the caller folded out
// of the ops already appended; st.Seq must name the last such op (the
// daemon's writer stamps it from NextSeq()-1 before handing the state
// off, and Replay stamps it for states folded from a recovered log).
// The snapshot is written to a temporary file, fsynced, and renamed
// into place; only then are segments and snapshots it supersedes
// pruned, and the live segment rotated so the next snapshot can prune
// it in turn. A crash at any point leaves either the old history or
// the new one, never neither.
//
// All disk work runs without holding l.mu: Snapshot claims the segment
// file with the same ownership token the background flusher uses, so
// under SyncBatch the writer keeps buffering appends at full speed
// while the platter churns through the snapshot's syncs. Calls
// serialize on the token and may come from any goroutine.
func (l *Log) Snapshot(st State) error {
	l.mu.Lock()
	for l.writing {
		l.wrote.Wait()
	}
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	if l.err != nil {
		err := l.err
		l.mu.Unlock()
		return err
	}
	take := l.buf
	l.buf = l.spare[:0]
	l.writing = true
	f, size := l.f, l.size
	// Records buffered from here on belong to the post-rotation
	// segment, so its header carries the current next sequence.
	rotSeq := l.nextSeq
	l.mu.Unlock()

	// Drain pending frames and make the covered segment durable before
	// a snapshot can supersede it or rotation can demote it from final:
	// a torn tail is only recoverable in the final segment.
	var poison error
	if len(take) > 0 {
		n, werr := f.Write(take)
		size += int64(n)
		if werr != nil {
			poison = fmt.Errorf("wal: append write: %w", werr)
		}
	}
	if poison == nil {
		if serr := f.Sync(); serr != nil {
			poison = fmt.Errorf("wal: fsync: %w", serr)
		}
	}
	var snapErr error
	var newF *os.File
	if poison == nil {
		snapErr = l.writeSnapshotFile(st)
		if snapErr == nil && size > segHeaderLen {
			var err error
			if newF, err = createSegment(l.dir, rotSeq); err != nil {
				poison = fmt.Errorf("wal: rotating after snapshot: %w", err)
			}
		}
	}

	l.mu.Lock()
	l.spare = take[:0]
	l.writing = false
	l.dirty = false // everything written so far was just synced
	if newF != nil {
		old := l.f
		l.f, l.size = newF, segHeaderLen
		_ = old.Close()
	} else {
		l.size = size
	}
	if poison != nil && l.err == nil {
		l.err = poison
	}
	cur := filepath.Base(l.f.Name())
	l.wrote.Broadcast()
	l.mu.Unlock()

	if poison != nil {
		return poison
	}
	if snapErr != nil {
		return snapErr
	}
	l.prune(st.Seq, cur)
	return nil
}

// writeSnapshotFile encodes st and lands it durably under the
// snapshot's final name via the tmp+fsync+rename dance. Failures here
// never poison the log: the old history is still intact.
func (l *Log) writeSnapshotFile(st State) error {
	payload := appendState(make([]byte, 0, 64+64*len(st.Sessions)), st)
	buf := append([]byte(nil), snapMagic...)
	buf = appendFrame(buf, payload)

	final := filepath.Join(l.dir, snapName(st.Seq))
	tmp := final + ".tmp"
	if err := os.WriteFile(tmp, buf, 0o644); err != nil {
		return err
	}
	if err := fsyncPath(tmp); err != nil {
		return err
	}
	if cp := l.o.Crash; cp != nil && cp.Armed(CrashSnapshot) {
		cp.Kill()
	}
	if err := os.Rename(tmp, final); err != nil {
		return err
	}
	return syncDir(l.dir)
}

// SetPruneWatermark records the highest sequence every external
// consumer of the log (a replication follower mirroring segments, the
// audit trail's durable tail) has absorbed. Pruning after a snapshot
// then only removes a segment when BOTH the snapshot and the watermark
// cover all of its records, so a slow follower can never be left with
// an unshippable gap. Safe from any goroutine.
func (l *Log) SetPruneWatermark(seq uint64) { l.pruneMark.Store(seq) }

// prune removes segments wholly covered by the snapshot at seq (every
// record ≤ seq) AND by the prune watermark, plus all but the two newest
// snapshots. cur is the live segment's name, which is never removed.
// Prune failures are ignored: stale files cost disk, never correctness.
func (l *Log) prune(seq uint64, cur string) {
	if mark := l.pruneMark.Load(); mark < seq {
		// A follower (or the audit tail) is behind the snapshot: hold
		// every segment it still needs. rotate-before-prune already
		// rotated, so the held segments are closed and shippable.
		seq = mark
	}
	ls, err := listDir(l.dir)
	if err != nil {
		return
	}
	// A segment is removable when the next segment's first seq is ≤
	// seq+1 (so nothing in it is newer than the snapshot) and it is not
	// the live segment.
	for i := 0; i+1 < len(ls.segs); i++ {
		nextFirst, ok := FileSeq(ls.segs[i+1])
		if ok && nextFirst <= seq+1 && ls.segs[i] != cur {
			_ = os.Remove(filepath.Join(l.dir, ls.segs[i]))
		}
	}
	for i := 0; i+2 < len(ls.snaps); i++ {
		_ = os.Remove(filepath.Join(l.dir, ls.snaps[i]))
	}
}

func fsyncPath(path string) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// NextSeq returns the sequence number the next appended op will get.
func (l *Log) NextSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq
}

// Dir returns the log directory.
func (l *Log) Dir() string { return l.dir }

// Close flushes, fsyncs, stops the group-commit flusher, and closes the
// segment. Safe to call more than once.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	err := l.flushLocked(true)
	if cerr := l.f.Close(); err == nil && cerr != nil {
		err = cerr
	}
	l.mu.Unlock()
	close(l.stop)
	<-l.done
	return err
}
