package replication

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/wal"
)

// primaryFixture is a live WAL + Source behind an httptest server.
type primaryFixture struct {
	dir string
	log *wal.Log
	src *Source
	ts  *httptest.Server
}

func newPrimary(t *testing.T, opts wal.Options) *primaryFixture {
	t.Helper()
	dir := t.TempDir()
	l, _, err := wal.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	src := &Source{Dir: dir, NodeID: "primary-test", Logs: []*wal.Log{l}}
	mux := http.NewServeMux()
	src.Mount(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return &primaryFixture{dir: dir, log: l, src: src, ts: ts}
}

func newTestFollower(t *testing.T, p *primaryFixture) *Follower {
	t.Helper()
	f, err := NewFollower(FollowerOptions{
		ID:         "f1",
		PrimaryURL: p.ts.URL,
		Dir:        t.TempDir(),
		Rand:       rand.New(rand.NewSource(1)),
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestFollowerMirrorsAndAcks: a follower pulls a live primary to a
// byte-identical mirror, acks the head, and the mirror recovers to the
// same state the primary's WAL recovers to.
func TestFollowerMirrorsAndAcks(t *testing.T) {
	p := newPrimary(t, wal.Options{SegmentBytes: 512, Sync: wal.SyncAlways})
	ops := auditTestOps(50)
	if err := p.log.Append(ops[:30]); err != nil {
		t.Fatal(err)
	}

	f := newTestFollower(t, p)
	if err := f.PullOnce(context.Background()); err != nil {
		t.Fatalf("first pull: %v", err)
	}
	if got := f.AckSeq(); got != 30 {
		t.Fatalf("ack after first pull = %d, want 30", got)
	}
	// Incremental: more ops, second pull ships only the delta.
	if err := p.log.Append(ops[30:]); err != nil {
		t.Fatal(err)
	}
	if err := f.PullOnce(context.Background()); err != nil {
		t.Fatalf("second pull: %v", err)
	}
	if got := f.AckSeq(); got != 50 {
		t.Fatalf("ack after second pull = %d, want 50", got)
	}
	if acked := p.src.Acks()["f1"]; acked != 50 {
		t.Fatalf("primary records ack %d, want 50", acked)
	}
	if segs, secs := f.Lag(); segs != 0 || secs != 0 {
		t.Fatalf("caught-up follower reports lag %d segs / %gs", segs, secs)
	}

	// The mirror must recover to the primary's exact state.
	prim, err := wal.Read(p.dir)
	if err != nil {
		t.Fatal(err)
	}
	primSet, err := prim.SessionSet()
	if err != nil {
		t.Fatal(err)
	}
	mir, err := wal.Read(f.o.Dir)
	if err != nil {
		t.Fatal(err)
	}
	mirSet, err := mir.SessionSet()
	if err != nil {
		t.Fatal(err)
	}
	if mirSet.Seq != primSet.Seq || len(mirSet.Sessions) != len(primSet.Sessions) {
		t.Fatalf("mirror recovers seq %d/%d sessions, primary %d/%d",
			mirSet.Seq, len(mirSet.Sessions), primSet.Seq, len(primSet.Sessions))
	}
	// Byte-for-byte: every shipped file equals the primary's.
	entries, err := os.ReadDir(p.dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		want, err := os.ReadFile(filepath.Join(p.dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(f.o.Dir, e.Name()))
		if err != nil {
			t.Fatalf("mirror lacks %s: %v", e.Name(), err)
		}
		if string(got) != string(want) {
			t.Fatalf("mirror of %s differs from primary", e.Name())
		}
	}
}

// TestFollowerAckDrivesPruneWatermark: the watermark wiring end to end —
// a primary holding segments for an absent follower releases them only
// after the follower acks. This is the prune/ship race regression at
// the replication layer (the wal-layer half lives in
// wal.TestPruneWatermarkHoldsUnshippedSegments).
func TestFollowerAckDrivesPruneWatermark(t *testing.T) {
	p := newPrimary(t, wal.Options{SegmentBytes: 256, Sync: wal.SyncAlways})
	p.src.OnAck = func() {
		if min, ok := p.src.MinAck(0); ok {
			p.log.SetPruneWatermark(min)
		}
	}
	// Follower exists but has shipped nothing: hold everything.
	p.log.SetPruneWatermark(0)

	ops := auditTestOps(60)
	st := wal.State{}
	snapshotFast := func(upto int) {
		t.Helper()
		have := int(p.log.NextSeq() - 1)
		if err := p.log.Append(ops[have:upto]); err != nil {
			t.Fatal(err)
		}
		st = wal.State{}
		if err := wal.Replay(&st, ops[:upto]); err != nil {
			t.Fatal(err)
		}
		if err := p.log.Snapshot(st.Clone()); err != nil {
			t.Fatal(err)
		}
	}
	snapshotFast(20)
	snapshotFast(40)
	snapshotFast(60)

	// Slow shipper: the full history must still be fetchable.
	f := newTestFollower(t, p)
	if err := f.PullOnce(context.Background()); err != nil {
		t.Fatalf("slow follower's catch-up pull: %v", err)
	}
	if got := f.AckSeq(); got != 60 {
		t.Fatalf("follower verified seq %d, want 60 (history was pruned out from under it)", got)
	}
	raw, err := wal.ReadOps(f.o.Dir, 0)
	if err != nil || len(raw) != 60 {
		t.Fatalf("mirror holds %d ops (err %v), want the full 60", len(raw), err)
	}

	// The ack released the backlog: the next snapshot cycle prunes.
	snapshotFast(60) // no new ops; re-snapshot to trigger prune
	segs := 0
	entries, err := os.ReadDir(p.dir)
	if err != nil {
		t.Fatal(err)
	}
	oldestFirst := uint64(0)
	for _, e := range entries {
		if isSeg(e.Name()) {
			segs++
			data, err := os.ReadFile(filepath.Join(p.dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			first, err := wal.SegmentFirstSeq(e.Name(), data)
			if err != nil {
				t.Fatal(err)
			}
			if oldestFirst == 0 || first < oldestFirst {
				oldestFirst = first
			}
		}
	}
	if oldestFirst <= 1 && segs > 2 {
		t.Fatalf("acked history not pruned: oldest segment starts at %d across %d segments", oldestFirst, segs)
	}
}

// TestFollowerDivergenceFailsClosed: a primary whose history shrank (a
// restore from backup, a rewrite) must flip the follower into the
// diverged state permanently: pulls refuse, Promote refuses.
func TestFollowerDivergenceFailsClosed(t *testing.T) {
	p := newPrimary(t, wal.Options{Sync: wal.SyncAlways})
	if err := p.log.Append(auditTestOps(20)); err != nil {
		t.Fatal(err)
	}
	f := newTestFollower(t, p)
	if err := f.PullOnce(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Rewrite history behind the follower's back: truncate the live
	// segment below what the follower verified.
	entries, _ := os.ReadDir(p.dir)
	for _, e := range entries {
		if isSeg(e.Name()) {
			path := filepath.Join(p.dir, e.Name())
			info, _ := os.Stat(path)
			if err := os.Truncate(path, info.Size()-10); err != nil {
				t.Fatal(err)
			}
		}
	}
	err := f.PullOnce(context.Background())
	if !errors.Is(err, ErrDiverged) {
		t.Fatalf("pull against shrunken history: %v, want ErrDiverged", err)
	}
	var de *DivergeError
	if !errors.As(err, &de) {
		t.Fatalf("divergence is not a *DivergeError: %T", err)
	}
	// Fail closed: both pulling and promotion refuse from here on.
	if err := f.PullOnce(context.Background()); !errors.Is(err, ErrDiverged) {
		t.Fatalf("post-divergence pull: %v, want ErrDiverged", err)
	}
	if _, err := f.Promote(context.Background()); !errors.Is(err, ErrDiverged) {
		t.Fatalf("post-divergence promote: %v, want ErrDiverged", err)
	}
}

// TestFollowerOverlapRewriteDetected: same-length tampering — the
// primary rewrites bytes inside the already-shipped region without
// changing file size. The overlap window catches it on the next pull
// that fetches new bytes.
func TestFollowerOverlapRewriteDetected(t *testing.T) {
	p := newPrimary(t, wal.Options{Sync: wal.SyncAlways})
	if err := p.log.Append(auditTestOps(10)); err != nil {
		t.Fatal(err)
	}
	f := newTestFollower(t, p)
	if err := f.PullOnce(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Flip one byte inside shipped history, then append more so the
	// next pull fetches (and overlap-checks) the file.
	entries, _ := os.ReadDir(p.dir)
	for _, e := range entries {
		if isSeg(e.Name()) {
			path := filepath.Join(p.dir, e.Name())
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)-3] ^= 0xFF
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	more := auditTestOps(20)[10:]
	if err := p.log.Append(more); err != nil {
		t.Fatal(err)
	}
	if err := f.PullOnce(context.Background()); !errors.Is(err, ErrDiverged) {
		t.Fatalf("pull over rewritten overlap: %v, want ErrDiverged", err)
	}
}

// TestFollowerCrashpoints: repl.ship fires before the first persisted
// chunk (nothing written), repl.ack.lost fires after the durable apply
// (ack never sent, primary watermark stays put) — and a fresh follower
// over the same dir resumes idempotently in both cases.
func TestFollowerCrashpoints(t *testing.T) {
	for _, point := range []string{"repl.ship", "repl.ack.lost"} {
		t.Run(point, func(t *testing.T) {
			p := newPrimary(t, wal.Options{Sync: wal.SyncAlways})
			if err := p.log.Append(auditTestOps(15)); err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			crashed := false
			f, err := NewFollower(FollowerOptions{
				ID: "f1", PrimaryURL: p.ts.URL, Dir: dir,
				Rand:  rand.New(rand.NewSource(1)),
				Crash: &faults.CrashPlan{Point: point, Nth: 1, KillFunc: func() { crashed = true; panic("crash") }},
			})
			if err != nil {
				t.Fatal(err)
			}
			func() {
				defer func() { recover() }()
				_ = f.PullOnce(context.Background())
			}()
			if !crashed {
				t.Fatalf("crashpoint %s never fired", point)
			}
			if point == "repl.ack.lost" {
				if acked := p.src.Acks()["f1"]; acked != 0 {
					t.Fatalf("ack %d reached primary despite crashing before send", acked)
				}
			}
			// Restart: a new follower over the same dir converges.
			f2, err := NewFollower(FollowerOptions{
				ID: "f1", PrimaryURL: p.ts.URL, Dir: dir,
				Rand: rand.New(rand.NewSource(2)),
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := f2.PullOnce(context.Background()); err != nil {
				t.Fatalf("post-crash pull: %v", err)
			}
			if got := f2.AckSeq(); got != 15 {
				t.Fatalf("post-crash ack %d, want 15", got)
			}
			if acked := p.src.Acks()["f1"]; acked != 15 {
				t.Fatalf("primary ack table %d, want 15", acked)
			}
		})
	}
}

// TestFollowerRunBackoff: Run retries an unreachable primary with
// growing jittered sleeps and exits on context cancellation.
func TestFollowerRunBackoff(t *testing.T) {
	f, err := NewFollower(FollowerOptions{
		ID:          "f1",
		PrimaryURL:  "http://127.0.0.1:1", // nothing listens here
		Dir:         t.TempDir(),
		Client:      &http.Client{Timeout: 50 * time.Millisecond},
		BackoffBase: 5 * time.Millisecond,
		BackoffMax:  20 * time.Millisecond,
		Rand:        rand.New(rand.NewSource(42)),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	err = f.Run(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Run returned %v, want context deadline", err)
	}
	if f.pullErrors.Load() < 2 {
		t.Fatalf("expected repeated retries, saw %d errors", f.pullErrors.Load())
	}
}

// TestPromoteFencesPulls: after Promote, further pulls refuse with
// ErrPromoted — a promoted primary must never fold in foreign ops.
func TestPromoteFencesPulls(t *testing.T) {
	p := newPrimary(t, wal.Options{Sync: wal.SyncAlways})
	if err := p.log.Append(auditTestOps(5)); err != nil {
		t.Fatal(err)
	}
	f := newTestFollower(t, p)
	if err := f.PullOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	res, err := f.Promote(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.AckSeq != 5 || !res.Drained {
		t.Fatalf("promote sealed seq %d drained=%v, want 5/true", res.AckSeq, res.Drained)
	}
	if err := f.PullOnce(context.Background()); !errors.Is(err, ErrPromoted) {
		t.Fatalf("post-promote pull: %v, want ErrPromoted", err)
	}
	if _, err := f.Promote(context.Background()); !errors.Is(err, ErrPromoted) {
		t.Fatalf("double promote: %v, want ErrPromoted", err)
	}
}

// TestFollowerGoneMidPassFailsPass: a 410 for a manifest-listed file
// (pruned between manifest and fetch) must fail the whole pass as a
// retryable error — never divergence, and never silent success, which
// would let a fresh follower ack a later segment's head without
// holding the preceding history.
func TestFollowerGoneMidPassFailsPass(t *testing.T) {
	dir := t.TempDir()
	l, _, err := wal.Open(dir, wal.Options{SegmentBytes: 256, Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	if err := l.Append(auditTestOps(40)); err != nil {
		t.Fatal(err)
	}
	src := &Source{Dir: dir, NodeID: "p", Logs: []*wal.Log{l}}
	mux := http.NewServeMux()
	src.Mount(mux)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	goneName := ""
	for _, e := range entries {
		if isSeg(e.Name()) && (goneName == "" || e.Name() < goneName) {
			goneName = e.Name() // oldest segment
		}
	}
	var gone atomic.Bool
	gone.Store(true)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if gone.Load() && r.URL.Path == "/v1/repl/fetch" && r.URL.Query().Get("file") == goneName {
			http.Error(w, "file pruned", http.StatusGone)
			return
		}
		mux.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)

	f, err := NewFollower(FollowerOptions{
		ID: "f1", PrimaryURL: ts.URL, Dir: t.TempDir(),
		Rand: rand.New(rand.NewSource(1)),
	})
	if err != nil {
		t.Fatal(err)
	}
	err = f.PullOnce(context.Background())
	if err == nil {
		t.Fatal("pass with a vanished manifest file succeeded")
	}
	if errors.Is(err, ErrDiverged) {
		t.Fatalf("prune race reported as divergence: %v", err)
	}
	if got := f.AckSeq(); got != 0 {
		t.Fatalf("acked %d around a missing prefix, want 0", got)
	}
	// The race clears (the file is really still there): retry converges.
	gone.Store(false)
	if err := f.PullOnce(context.Background()); err != nil {
		t.Fatalf("retry pass: %v", err)
	}
	if got := f.AckSeq(); got != 40 {
		t.Fatalf("ack after retry = %d, want 40", got)
	}
}

// TestFollowerFreshMirrorAnchor: a fresh follower whose first visible
// segment starts past seq 1 may only advance its ack once a mirrored
// snapshot covers the missing prefix — a mirror that cannot boot must
// not be certified, or the primary could prune the real history out
// from under a future promote.
func TestFollowerFreshMirrorAnchor(t *testing.T) {
	dir := t.TempDir()
	l, _, err := wal.Open(dir, wal.Options{SegmentBytes: 256, Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	ops := auditTestOps(60)
	if err := l.Append(ops); err != nil {
		t.Fatal(err)
	}
	st := wal.State{}
	if err := wal.Replay(&st, ops); err != nil {
		t.Fatal(err)
	}
	// Snapshot prunes the early segments: history now starts mid-way.
	if err := l.Snapshot(st.Clone()); err != nil {
		t.Fatal(err)
	}
	src := &Source{Dir: dir, NodeID: "p", Logs: []*wal.Log{l}}
	mux := http.NewServeMux()
	src.Mount(mux)
	var hideSnaps atomic.Bool
	hideSnaps.Store(true)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hideSnaps.Load() && r.URL.Path == "/v1/repl/status" {
			// Serve a manifest with the snapshots withheld: the segment
			// chain alone cannot prove the history reaches a bootable
			// base.
			rr := httptest.NewRecorder()
			mux.ServeHTTP(rr, r)
			var m Manifest
			if err := json.NewDecoder(rr.Body).Decode(&m); err != nil {
				t.Errorf("decoding manifest: %v", err)
			}
			kept := m.Files[:0]
			for _, mf := range m.Files {
				if !isSnap(mf.Name) {
					kept = append(kept, mf)
				}
			}
			m.Files = kept
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(m)
			return
		}
		mux.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)

	f, err := NewFollower(FollowerOptions{
		ID: "f1", PrimaryURL: ts.URL, Dir: t.TempDir(),
		Rand: rand.New(rand.NewSource(1)),
	})
	if err != nil {
		t.Fatal(err)
	}
	err = f.PullOnce(context.Background())
	var lag *LagError
	if !errors.As(err, &lag) {
		t.Fatalf("snapshot-less pull: %v, want *LagError", err)
	}
	if got := f.AckSeq(); got != 0 {
		t.Fatalf("unanchored mirror acked %d, want 0", got)
	}

	// The snapshot ships: the mirror is bootable, the ack may advance.
	hideSnaps.Store(false)
	if err := f.PullOnce(context.Background()); err != nil {
		t.Fatalf("anchored pull: %v", err)
	}
	if got := f.AckSeq(); got != 60 {
		t.Fatalf("anchored ack = %d, want 60", got)
	}
	// And the certified mirror really does boot to the primary's state.
	mir, err := wal.Read(f.o.Dir)
	if err != nil {
		t.Fatal(err)
	}
	mirSet, err := mir.SessionSet()
	if err != nil {
		t.Fatal(err)
	}
	if mirSet.Seq != 60 {
		t.Fatalf("mirror recovers to seq %d, want 60", mirSet.Seq)
	}
}

// TestFollowerMetricsRender: the metric names the issue specifies
// appear in the output.
func TestFollowerMetricsRender(t *testing.T) {
	p := newPrimary(t, wal.Options{Sync: wal.SyncAlways})
	if err := p.log.Append(auditTestOps(3)); err != nil {
		t.Fatal(err)
	}
	f := newTestFollower(t, p)
	if err := f.PullOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	f.WriteMetrics(&sb)
	out := sb.String()
	for _, name := range []string{
		"gpsd_repl_segments_behind", "gpsd_repl_seconds_behind",
		"gpsd_repl_ack_seq 3", "gpsd_repl_diverged 0",
	} {
		if !strings.Contains(out, name) {
			t.Fatalf("follower metrics lack %q:\n%s", name, out)
		}
	}
	var pb strings.Builder
	p.src.WriteMetrics(&pb)
	if !strings.Contains(pb.String(), "gpsd_repl_min_acked_seq 3") {
		t.Fatalf("source metrics lack min ack:\n%s", pb.String())
	}
}
