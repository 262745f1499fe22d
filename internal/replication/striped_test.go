package replication

import (
	"context"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/wal"
)

// stripedFixture is a striped-WAL primary behind an httptest server.
type stripedFixture struct {
	dir  string
	logs []*wal.Log
	src  *Source
	ts   *httptest.Server
}

func newStripedPrimary(t *testing.T, n int, opts wal.Options) *stripedFixture {
	t.Helper()
	dir := t.TempDir()
	logs, _, err := wal.OpenStriped(dir, n, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, l := range logs {
			l.Close()
		}
	})
	src := &Source{
		Dir:    dir,
		NodeID: "striped-primary-test",
		Logs:   logs,
	}
	mux := http.NewServeMux()
	src.Mount(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return &stripedFixture{dir: dir, logs: logs, src: src, ts: ts}
}

// TestStripedFollowerMirrorsAndAcks is the striped replication
// round trip: a follower mirrors the whole stripe set from one
// manifest — the stripes marker plus every stripe's files — acks the
// summed head with per-stripe verified sequences, and the mirror's
// per-stripe folds are byte- and bit-identical to the primary's. A
// second pull ships only the delta of the one stripe that moved.
func TestStripedFollowerMirrorsAndAcks(t *testing.T) {
	const n = 3
	p := newStripedPrimary(t, n, wal.Options{SegmentBytes: 512, Sync: wal.SyncAlways})
	counts := []int{10, 20, 30}
	for i, l := range p.logs {
		if err := l.Append(auditTestOps(counts[i])); err != nil {
			t.Fatal(err)
		}
	}

	f, err := NewFollower(FollowerOptions{
		ID: "f1", PrimaryURL: p.ts.URL, Dir: t.TempDir(),
		Rand: rand.New(rand.NewSource(1)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.PullOnce(context.Background()); err != nil {
		t.Fatalf("first pull: %v", err)
	}
	if got := f.AckSeq(); got != 60 {
		t.Fatalf("ack after first pull = %d, want the summed head 60", got)
	}
	for i, want := range counts {
		min, ok := p.src.MinAck(i)
		if !ok || min != uint64(want) {
			t.Fatalf("MinAck(%d) = %d, %v, want %d", i, min, ok, want)
		}
	}

	// The mirror is a striped directory with the same recorded count,
	// and every stripe's shipped files are byte-identical.
	if got, err := wal.StripeCount(f.o.Dir); err != nil || got != n {
		t.Fatalf("mirror StripeCount = %d, %v, want %d", got, err, n)
	}
	for i := 0; i < n; i++ {
		sub := wal.StripeDirName(i)
		entries, err := os.ReadDir(filepath.Join(p.dir, sub))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			want, err := os.ReadFile(filepath.Join(p.dir, sub, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(filepath.Join(f.o.Dir, sub, e.Name()))
			if err != nil {
				t.Fatalf("mirror lacks %s/%s: %v", sub, e.Name(), err)
			}
			if string(got) != string(want) {
				t.Fatalf("mirror of %s/%s differs from primary", sub, e.Name())
			}
		}
	}

	// Incremental: only stripe 1 moves; the next pull ships its delta
	// and the per-stripe acks advance accordingly.
	more := auditTestOps(35)[20:]
	if err := p.logs[1].Append(more); err != nil {
		t.Fatal(err)
	}
	if err := f.PullOnce(context.Background()); err != nil {
		t.Fatalf("second pull: %v", err)
	}
	if got := f.AckSeq(); got != 75 {
		t.Fatalf("ack after second pull = %d, want 75", got)
	}
	if min, ok := p.src.MinAck(1); !ok || min != 35 {
		t.Fatalf("MinAck(1) = %d, %v, want 35", min, ok)
	}
	if min, ok := p.src.MinAck(0); !ok || min != 10 {
		t.Fatalf("MinAck(0) = %d, %v, want 10 (unmoved stripe regressed?)", min, ok)
	}

	// The mirror folds each stripe to the primary's exact state.
	primRecs, err := wal.ReadStriped(p.dir)
	if err != nil {
		t.Fatal(err)
	}
	mirRecs, err := wal.ReadStriped(f.o.Dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := range primRecs {
		ps, err := primRecs[i].SessionSet()
		if err != nil {
			t.Fatal(err)
		}
		ms, err := mirRecs[i].SessionSet()
		if err != nil {
			t.Fatal(err)
		}
		if ms.Seq != ps.Seq || len(ms.Sessions) != len(ps.Sessions) ||
			math.Float64bits(ms.Used) != math.Float64bits(ps.Used) {
			t.Fatalf("stripe %d: mirror folds to seq %d/%d sessions/used bits %#x, primary %d/%d/%#x",
				i, ms.Seq, len(ms.Sessions), math.Float64bits(ms.Used),
				ps.Seq, len(ps.Sessions), math.Float64bits(ps.Used))
		}
	}
}

// TestStripedFollowerPinsUnknownStripes: a primary whose manifest
// declares stripes the follower has never acked must see those
// stripes' watermarks pinned at 0 — otherwise a fresh stripe could be
// pruned before any mirror holds it.
func TestStripedFollowerPinsUnknownStripes(t *testing.T) {
	p := newStripedPrimary(t, 2, wal.Options{Sync: wal.SyncAlways})
	if err := p.logs[0].Append(auditTestOps(5)); err != nil {
		t.Fatal(err)
	}
	// A follower acks with no stripe detail at all (a legacy flat ack).
	p.src.handleAckEntry(t)
	for i := 0; i < 2; i++ {
		if min, ok := p.src.MinAck(i); !ok || min != 0 {
			t.Fatalf("MinAck(%d) = %d, %v, want a 0 pin", i, min, ok)
		}
	}
}

// handleAckEntry registers a flat (no per-stripe detail) ack directly,
// as a legacy follower would send it.
func (s *Source) handleAckEntry(t *testing.T) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.acks == nil {
		s.acks = map[string]ackEntry{}
	}
	s.acks["legacy"] = ackEntry{seq: 5, last: s.now()}
}
