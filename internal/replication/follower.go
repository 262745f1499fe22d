package replication

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faults"
	"repro/internal/prom"
	"repro/internal/wal"
)

// LagError reports that a pull pass finished without reaching the
// primary's manifest head — the follower is behind and should retry.
// It is retryable: the pull loop backs off and pulls again.
type LagError struct {
	SegmentsBehind int
	SecondsBehind  float64
	HeadSeq        uint64 // primary head at manifest time
	AckSeq         uint64 // follower's verified head
}

func (e *LagError) Error() string {
	return fmt.Sprintf("replication: follower lags primary: verified seq %d of %d (%d whole segments, %.1fs behind)",
		e.AckSeq, e.HeadSeq, e.SegmentsBehind, e.SecondsBehind)
}

// ErrDiverged is the sentinel for follower-detected divergence: the
// primary's history is not an append-only extension of what the
// follower already verified. The follower fails closed — it stops
// pulling and refuses promotion — because both histories claim the same
// identity and only an operator can say which one is real.
var ErrDiverged = errors.New("replication: follower diverged from primary")

// DivergeError carries the evidence.
type DivergeError struct {
	File   string
	Reason string
}

func (e *DivergeError) Error() string {
	return fmt.Sprintf("replication: follower diverged from primary: %s: %s", e.File, e.Reason)
}

// Is makes errors.Is(err, ErrDiverged) true for every DivergeError.
func (e *DivergeError) Is(target error) bool { return target == ErrDiverged }

// ErrPromoted is returned by pulls after Promote has fenced the
// follower: a promoted node is a primary and must not fold in more ops.
var ErrPromoted = errors.New("replication: follower already promoted")

// overlapBytes is re-fetched before every append and byte-compared
// against the local tail, so a primary that rewrote history inside
// already-shipped bytes is caught even though those offsets would never
// be fetched again.
const overlapBytes = 4096

// FollowerOptions configure a Follower.
type FollowerOptions struct {
	// ID names this follower in acks (required).
	ID string
	// PrimaryURL is the primary's base URL, e.g. http://host:port.
	PrimaryURL string
	// Dir is the local WAL directory to mirror into.
	Dir string
	// Client is the HTTP client (nil: a client with sane timeouts).
	Client *http.Client
	// Interval between successful pulls (default 250ms).
	Interval time.Duration
	// BackoffBase/BackoffMax bound the retry backoff (defaults
	// 100ms/5s). Jitter is full: the sleep is uniform in (0, cur].
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Crash is the crash-injection plan (tests and crash_smoke.sh);
	// nil is inert. Points: repl.ship (before persisting a received
	// chunk), repl.ack.lost (after durable apply, before the ack),
	// repl.promote (inside Promote, before the fence).
	Crash *faults.CrashPlan
	// Rand seeds backoff jitter (nil: a time-seeded source).
	Rand *rand.Rand
}

// segState tracks incremental frame verification of one mirrored
// segment: everything below verified re-decoded cleanly through the
// recovery decoder.
type segState struct {
	firstSeq uint64
	nextSeq  uint64 // sequence expected at verified
	verified int64  // byte offset of the first unverified byte
	haveHdr  bool
}

// Follower mirrors a primary's WAL directory byte-for-byte and
// verifies every shipped frame with the same decoder recovery uses, so
// the acked prefix of the mirror is — provably, not hopefully — a
// prefix a promoted daemon can recover from. Promotion is therefore
// nothing special: truncate the unverified tail of trust down to what
// wal.Open would keep anyway, and boot.
type Follower struct {
	o FollowerOptions

	mu       sync.Mutex
	segs     map[string]*segState
	ackSeq   uint64            // aggregate verified head (sum over stripes)
	ackSeqs  map[string]uint64 // per-stripe-prefix verified heads ("" = flat)
	diverged error
	promoted bool
	lastSync time.Time // when the follower last matched a manifest head
	lastHead uint64    // primary head from the latest manifest
	behind   int       // whole segments not yet verified

	pulls      atomic.Int64
	pullErrors atomic.Int64
	bytesIn    atomic.Int64
	acksSent   atomic.Int64
}

// NewFollower validates options and prepares the mirror directory.
func NewFollower(o FollowerOptions) (*Follower, error) {
	if o.ID == "" || o.PrimaryURL == "" || o.Dir == "" {
		return nil, errors.New("replication: follower needs ID, PrimaryURL, and Dir")
	}
	if o.Client == nil {
		o.Client = &http.Client{Timeout: 30 * time.Second}
	}
	if o.Interval <= 0 {
		o.Interval = 250 * time.Millisecond
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 100 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 5 * time.Second
	}
	if o.Rand == nil {
		o.Rand = rand.New(rand.NewSource(time.Now().UnixNano()))
	}
	if err := os.MkdirAll(o.Dir, 0o755); err != nil {
		return nil, err
	}
	f := &Follower{o: o, segs: map[string]*segState{}, ackSeqs: map[string]uint64{}, lastSync: time.Now()}
	return f, nil
}

// AckSeq returns the highest frame-verified op sequence.
func (f *Follower) AckSeq() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ackSeq
}

// Diverged returns the divergence evidence, or nil.
func (f *Follower) Diverged() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.diverged
}

// Lag returns the current lag estimate: whole segments not yet
// verified and seconds since the follower last matched a primary head.
func (f *Follower) Lag() (segments int, seconds float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.lagLocked()
}

func (f *Follower) lagLocked() (int, float64) {
	if f.ackSeq >= f.lastHead {
		return 0, 0
	}
	return f.behind, time.Since(f.lastSync).Seconds()
}

func (f *Follower) setDiverged(err error) error {
	f.mu.Lock()
	if f.diverged == nil {
		f.diverged = err
	}
	err = f.diverged
	f.mu.Unlock()
	return err
}

// PullOnce performs one full replication pass: manifest, fetch+persist
// every lagging file, frame-verify, ack. It returns nil when the
// follower reached the manifest head, a *LagError when it fell short,
// and a *DivergeError (permanent) when the primary's history conflicts
// with verified local bytes.
func (f *Follower) PullOnce(ctx context.Context) error {
	f.mu.Lock()
	if f.promoted {
		f.mu.Unlock()
		return ErrPromoted
	}
	if err := f.diverged; err != nil {
		f.mu.Unlock()
		return err
	}
	f.mu.Unlock()

	m, err := f.fetchManifest(ctx)
	if err != nil {
		f.pullErrors.Add(1)
		return err
	}
	for _, mf := range m.Files {
		if err := f.syncFile(ctx, mf); err != nil {
			if errors.Is(err, ErrDiverged) {
				return f.setDiverged(err)
			}
			f.pullErrors.Add(1)
			return err
		}
	}
	ack, stripeAcks, behind, err := f.verify(m)
	if err != nil {
		return f.setDiverged(err)
	}

	f.mu.Lock()
	f.ackSeq = ack
	f.lastHead = m.HeadSeq
	f.behind = behind
	caughtUp := ack >= m.HeadSeq
	if caughtUp {
		f.lastSync = time.Now()
	}
	segs, secs := f.lagLocked()
	f.mu.Unlock()
	f.pulls.Add(1)

	// The durable apply is complete; the ack may now be lost to a crash
	// without losing correctness — the primary just retains more.
	if f.o.Crash.Armed("repl.ack.lost") {
		f.o.Crash.Kill()
	}
	if err := f.sendAck(ctx, ack, stripeAcks); err != nil {
		f.pullErrors.Add(1)
		return err
	}
	if !caughtUp {
		return &LagError{SegmentsBehind: segs, SecondsBehind: secs, HeadSeq: m.HeadSeq, AckSeq: ack}
	}
	return nil
}

// Run pulls until ctx is cancelled, the follower diverges, or it is
// promoted. Transient errors (primary down, cut streams, lag) retry
// with exponential backoff and full jitter; divergence is permanent.
func (f *Follower) Run(ctx context.Context) error {
	backoff := f.o.BackoffBase
	for {
		err := f.PullOnce(ctx)
		switch {
		case err == nil:
			backoff = f.o.BackoffBase
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(f.o.Interval):
			}
		case errors.Is(err, ErrDiverged), errors.Is(err, ErrPromoted):
			return err
		case ctx.Err() != nil:
			return ctx.Err()
		default:
			// Full jitter: uniform in (0, backoff], then double.
			sleep := time.Duration(1 + f.o.Rand.Int63n(int64(backoff)))
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(sleep):
			}
			if backoff *= 2; backoff > f.o.BackoffMax {
				backoff = f.o.BackoffMax
			}
		}
	}
}

// PromoteResult reports what a promotion sealed.
type PromoteResult struct {
	AckSeq  uint64 // verified head the promoted node boots from
	Drained bool   // whether the final drain pull reached the primary
}

// Promote fences the follower and returns the verified head. It first
// drains: one last pull attempt so a reachable primary's tail is not
// abandoned (an unreachable primary — the failover case — is fine).
// After Promote returns, the caller boots a daemon from the mirror
// directory; pulls are permanently refused.
func (f *Follower) Promote(ctx context.Context) (PromoteResult, error) {
	f.mu.Lock()
	if f.promoted {
		f.mu.Unlock()
		return PromoteResult{}, ErrPromoted
	}
	if err := f.diverged; err != nil {
		f.mu.Unlock()
		return PromoteResult{}, err
	}
	f.mu.Unlock()

	drained := false
	drainCtx, cancel := context.WithTimeout(ctx, 2*time.Second)
	err := f.PullOnce(drainCtx)
	cancel()
	switch {
	case err == nil:
		drained = true
	case errors.Is(err, ErrDiverged):
		return PromoteResult{}, err
	default:
		// Primary unreachable or still ahead: promote from what is
		// verified. That is the point of failover.
	}

	if f.o.Crash.Armed("repl.promote") {
		f.o.Crash.Kill()
	}

	f.mu.Lock()
	f.promoted = true
	res := PromoteResult{AckSeq: f.ackSeq, Drained: drained}
	f.mu.Unlock()
	return res, nil
}

func (f *Follower) fetchManifest(ctx context.Context) (Manifest, error) {
	req, err := http.NewRequestWithContext(ctx, "GET", f.o.PrimaryURL+"/v1/repl/status", nil)
	if err != nil {
		return Manifest{}, err
	}
	resp, err := f.o.Client.Do(req)
	if err != nil {
		return Manifest{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return Manifest{}, fmt.Errorf("replication: status endpoint returned %s", resp.Status)
	}
	return DecodeManifest(resp.Body)
}

func (f *Follower) sendAck(ctx context.Context, seq uint64, stripeSeqs []uint64) error {
	raw, err := json.Marshal(Ack{FollowerID: f.o.ID, AckSeq: seq, StripeSeqs: stripeSeqs})
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, "POST", f.o.PrimaryURL+"/v1/repl/ack", strings.NewReader(string(raw)))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := f.o.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("replication: ack endpoint returned %s", resp.Status)
	}
	f.acksSent.Add(1)
	return nil
}

// syncFile brings one mirrored file up to the manifest size, verifying
// an overlap window against already-held bytes.
func (f *Follower) syncFile(ctx context.Context, mf ManifestFile) error {
	path := filepath.Join(f.o.Dir, filepath.FromSlash(mf.Name))
	if dir := filepath.Dir(path); dir != f.o.Dir {
		// Striped layouts ship "stripe-NN/<file>" names; mirror the
		// subdirectory structure a promoted daemon will boot from.
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	local := int64(0)
	if info, err := os.Stat(path); err == nil {
		local = info.Size()
	} else if !os.IsNotExist(err) {
		return err
	}
	if local > mf.Size {
		if filepath.Base(mf.Name) == AuditFileName {
			// The audit trail is derived data and the primary may have
			// truncated a torn tail after its own crash; shrink to
			// match rather than declaring divergence.
			if err := os.Truncate(path, mf.Size); err != nil {
				return err
			}
			local = mf.Size
		} else {
			return &DivergeError{File: mf.Name,
				Reason: fmt.Sprintf("local copy is %d bytes, primary's is %d — an append-only history cannot shrink", local, mf.Size)}
		}
	}
	if local == mf.Size {
		return nil
	}
	// Re-fetch a trailing window of already-held bytes: byte-equality
	// over the overlap is the cheap rewrite detector.
	from := local - overlapBytes
	if from < 0 {
		from = 0
	}
	u := f.o.PrimaryURL + "/v1/repl/fetch?file=" + url.QueryEscape(mf.Name) + "&off=" + fmt.Sprint(from)
	req, err := http.NewRequestWithContext(ctx, "GET", u, nil)
	if err != nil {
		return err
	}
	resp, err := f.o.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusGone:
		// Pruned between manifest and fetch. The pass can no longer
		// prove the manifest's files form a connected history, so it
		// fails (retryable — the next pass gets a fresh manifest);
		// acking around a vanished file could certify a gapped mirror
		// the primary would then prune the real history out of.
		return &ShipError{Reason: fmt.Sprintf("%s listed in the manifest but pruned before fetch", mf.Name)}
	default:
		return fmt.Errorf("replication: fetch %s returned %s", mf.Name, resp.Status)
	}

	out, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	defer out.Close()
	var localBuf []byte
	if from < local {
		localBuf = make([]byte, local-from)
		if _, err := out.ReadAt(localBuf, from); err != nil {
			return err
		}
	}

	cr := NewChunkReader(resp.Body)
	wrote := false
	for {
		c, err := cr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err // transport fault: retry next pass
		}
		if c.Name != mf.Name {
			return &ShipError{Reason: fmt.Sprintf("stream for %s carried chunk for %s", mf.Name, c.Name)}
		}
		// Split the chunk into the overlap part (compare) and the new
		// part (persist).
		p := c.Payload
		off := c.Off
		if off < local {
			n := local - off
			if n > int64(len(p)) {
				n = int64(len(p))
			}
			want := localBuf[off-from : off-from+n]
			if string(p[:n]) != string(want) {
				return &DivergeError{File: mf.Name,
					Reason: fmt.Sprintf("overlap bytes [%d,%d) differ from the copy verified earlier", off, off+n)}
			}
			p = p[n:]
			off += n
		}
		if len(p) == 0 {
			continue
		}
		if off != local {
			return &ShipError{Reason: fmt.Sprintf("chunk for %s jumps to offset %d, expected %d", mf.Name, off, local)}
		}
		if f.o.Crash.Armed("repl.ship") {
			f.o.Crash.Kill()
		}
		if _, err := out.WriteAt(p, off); err != nil {
			return err
		}
		local += int64(len(p))
		f.bytesIn.Add(int64(len(p)))
		wrote = true
	}
	if wrote {
		if err := out.Sync(); err != nil {
			return err
		}
	}
	return nil
}

// verify runs the recovery decoder over every unverified mirrored
// segment byte and returns the new contiguous verified heads — the
// aggregate, and per stripe when the manifest is striped — plus the
// count of manifest segments not yet fully verified. Each stripe is an
// independent sequence space, so the walk groups the manifest by
// stripe prefix and verifies every group exactly as a flat mirror
// would. Interior corruption in a sealed segment — one the manifest
// shows a successor for — is divergence, not a torn tail.
func (f *Follower) verify(m Manifest) (ack uint64, stripeAcks []uint64, behind int, err error) {
	groups := map[string][]ManifestFile{}
	for _, mf := range m.Files {
		prefix, _, ok := splitStripePrefix(mf.Name)
		if !ok {
			continue
		}
		groups[prefix] = append(groups[prefix], mf)
	}
	prefixes := make([]string, 0, len(groups))
	for p := range groups {
		prefixes = append(prefixes, p)
	}
	sort.Strings(prefixes) // "" sorts first: flat group, then stripes in order
	for _, prefix := range prefixes {
		gAck, gBehind, gErr := f.verifyGroup(prefix, groups[prefix])
		if gErr != nil {
			return 0, nil, 0, gErr
		}
		f.mu.Lock()
		f.ackSeqs[prefix] = gAck
		f.mu.Unlock()
		ack += gAck
		behind += gBehind
	}
	if m.Stripes > 0 {
		stripeAcks = make([]uint64, m.Stripes)
		f.mu.Lock()
		for i := range stripeAcks {
			stripeAcks[i] = f.ackSeqs[wal.StripeDirName(i)]
		}
		f.mu.Unlock()
	}
	return ack, stripeAcks, behind, nil
}

// verifyGroup walks one sequence space: the flat layout (prefix "") or
// one stripe's files.
func (f *Follower) verifyGroup(prefix string, files []ManifestFile) (ack uint64, behind int, err error) {
	var segNames []string
	for _, mf := range files {
		if isSeg(filepath.Base(mf.Name)) {
			segNames = append(segNames, mf.Name)
		}
	}
	sort.Strings(segNames)
	// Local-only segments (pruned upstream after full shipping) stay
	// verified; re-walk only what the manifest still lists.
	f.mu.Lock()
	prevAck := f.ackSeqs[prefix]
	f.mu.Unlock()
	ack = prevAck
	// A fresh mirror (nothing acked yet) may only anchor its ack at a
	// history start a promoted daemon could actually boot from: the
	// genesis segment, or a mirrored snapshot covering every op before
	// the first segment. Without this, a mirror whose early segments
	// vanished to a prune race could ack a later segment's head while
	// holding a gapped history. snapTop is the newest manifest snapshot
	// that decodes locally (syncFile already brought every manifest
	// file to full size before verify runs).
	var snapTop uint64
	if prevAck == 0 {
		for _, mf := range files {
			base := filepath.Base(mf.Name)
			if !isSnap(base) {
				continue
			}
			s, ok := wal.FileSeq(base)
			if !ok || s <= snapTop {
				continue
			}
			if st, serr := wal.ReadSnapshotState(filepath.Join(f.o.Dir, filepath.FromSlash(mf.Name))); serr == nil && st.Seq == s {
				snapTop = s
			}
		}
	}
	for i, name := range segNames {
		final := i == len(segNames)-1
		st := f.segStateFor(name)
		data, rerr := os.ReadFile(filepath.Join(f.o.Dir, filepath.FromSlash(name)))
		if rerr != nil {
			if os.IsNotExist(rerr) {
				behind++
				continue
			}
			return 0, 0, &DivergeError{File: name, Reason: rerr.Error()}
		}
		if !st.haveHdr {
			if len(data) < wal.SegmentHeaderLen {
				behind++
				continue // header still in flight
			}
			first, herr := wal.SegmentFirstSeq(filepath.Base(name), data)
			if herr != nil {
				return 0, 0, &DivergeError{File: name, Reason: herr.Error()}
			}
			// Cross-segment continuity: this segment must pick up
			// exactly where the previous verified one ended.
			if ack != 0 && first != ack+1 && first <= ack {
				return 0, 0, &DivergeError{File: name,
					Reason: fmt.Sprintf("segment starts at seq %d inside the verified prefix ending at %d", first, ack)}
			}
			if ack != 0 && first > ack+1 {
				// A gap ahead of us: earlier segment not yet complete.
				behind++
				continue
			}
			if ack == 0 && first > 1 && snapTop < first-1 {
				// Unanchored: the mirror cannot prove the history
				// reaches back to a bootable base yet.
				behind++
				continue
			}
			st.firstSeq, st.nextSeq, st.verified, st.haveHdr = first, first, int64(wal.SegmentHeaderLen), true
		}
		// Decode the unverified tail with torn-tolerance: bytes still in
		// flight look exactly like a torn tail.
		ops, goodLen, torn, derr := wal.DecodeSegmentFrames(name, data[st.verified:], st.verified, st.nextSeq, true)
		if derr != nil {
			return 0, 0, &DivergeError{File: name, Reason: derr.Error()}
		}
		// goodLen is absolute (baseOff-inclusive), exactly as recovery
		// reports offsets.
		st.verified = goodLen
		if len(ops) > 0 {
			st.nextSeq = ops[len(ops)-1].Seq + 1
		}
		if st.nextSeq > 0 && st.nextSeq-1 > ack {
			ack = st.nextSeq - 1
		}
		if !final && torn && st.verified < int64(len(data)) {
			// A sealed segment (a successor exists) whose bytes are all
			// here but whose tail does not decode: recovery would call
			// this corruption, so the mirror must too.
			mfSize := int64(-1)
			for _, mf := range files {
				if mf.Name == name {
					mfSize = mf.Size
					break
				}
			}
			if mfSize >= 0 && int64(len(data)) >= mfSize {
				return 0, 0, &DivergeError{File: name,
					Reason: fmt.Sprintf("sealed segment has %d undecodable trailing bytes", int64(len(data))-st.verified)}
			}
			behind++
		}
	}
	return ack, behind, nil
}

func (f *Follower) segStateFor(name string) *segState {
	f.mu.Lock()
	defer f.mu.Unlock()
	st, ok := f.segs[name]
	if !ok {
		st = &segState{}
		f.segs[name] = st
	}
	return st
}

// WriteMetrics renders the follower-side replication metrics: the two
// lag gauges the issue calls for, the divergence flag, and throughput
// counters.
func (f *Follower) WriteMetrics(w io.Writer) {
	f.mu.Lock()
	segs, secs := f.lagLocked()
	ack := f.ackSeq
	head := f.lastHead
	div := 0.0
	if f.diverged != nil {
		div = 1
	}
	promoted := 0.0
	if f.promoted {
		promoted = 1
	}
	f.mu.Unlock()
	prom.Gauge(w, "gpsd_repl_segments_behind", "whole primary WAL segments not yet verified locally", float64(segs))
	prom.Gauge(w, "gpsd_repl_seconds_behind", "seconds since this follower last matched a primary head", secs)
	prom.Gauge(w, "gpsd_repl_ack_seq", "highest frame-verified op sequence", float64(ack))
	prom.Gauge(w, "gpsd_repl_primary_head_seq", "primary head sequence at last manifest", float64(head))
	prom.Gauge(w, "gpsd_repl_diverged", "1 when the follower has failed closed on divergence", div)
	prom.Gauge(w, "gpsd_repl_promoted", "1 after this node was promoted to primary", promoted)
	prom.Counter(w, "gpsd_repl_pulls_total", "successful replication passes", float64(f.pulls.Load()))
	prom.Counter(w, "gpsd_repl_pull_errors_total", "failed replication passes", float64(f.pullErrors.Load()))
	prom.Counter(w, "gpsd_repl_received_bytes_total", "file bytes received from the primary", float64(f.bytesIn.Load()))
	prom.Counter(w, "gpsd_repl_acks_sent_total", "acks sent to the primary", float64(f.acksSent.Load()))
}
