package replication

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/wal"
)

func postAck(t *testing.T, s *Source, id string, seq uint64) {
	t.Helper()
	rr := httptest.NewRecorder()
	req := httptest.NewRequest("POST", "/v1/repl/ack",
		strings.NewReader(fmt.Sprintf(`{"follower_id":%q,"ack_seq":%d}`, id, seq)))
	s.handleAck(rr, req)
	if rr.Code != 200 {
		t.Fatalf("ack returned %d", rr.Code)
	}
}

// TestAckExpiryUnpinsWatermark: a follower that stops acking — died,
// or was a one-shot client that posted an arbitrary follower_id to the
// unauthenticated endpoint — expires after AckTTL of silence, so it
// cannot pin the prune watermark (and the disk) forever. Liveness is
// lazy: MinAck alone enforces it, matching the daemon's periodic
// watermark recomputation.
func TestAckExpiryUnpinsWatermark(t *testing.T) {
	now := time.Unix(1000, 0)
	s := &Source{
		Dir:    t.TempDir(),
		NodeID: "p",
		AckTTL: time.Minute,
		Now:    func() time.Time { return now },
	}
	postAck(t, s, "dead", 5)
	postAck(t, s, "live", 80)
	if min, ok := s.MinAck(0); !ok || min != 5 {
		t.Fatalf("MinAck = %d,%v, want 5,true", min, ok)
	}

	// Within the TTL the silent follower still holds segments.
	now = now.Add(30 * time.Second)
	postAck(t, s, "live", 90)
	if min, ok := s.MinAck(0); !ok || min != 5 {
		t.Fatalf("MinAck = %d,%v before expiry, want 5,true", min, ok)
	}

	// 75s of silence from "dead" (TTL 60s): it expires, "live" (45s
	// since its last ack... 45s < 60s) survives, pruning resumes at 90.
	now = now.Add(45 * time.Second)
	if min, ok := s.MinAck(0); !ok || min != 90 {
		t.Fatalf("MinAck = %d,%v after expiry, want 90,true", min, ok)
	}
	acks := s.Acks()
	if _, there := acks["dead"]; there || len(acks) != 1 {
		t.Fatalf("expired follower still in ack table: %v", acks)
	}

	// Everyone silent: no follower holds anything back.
	now = now.Add(2 * time.Minute)
	if _, ok := s.MinAck(0); ok {
		t.Fatal("fully-expired table still reports a follower")
	}

	// A returning follower re-registers (documented: it re-pins at its
	// stale seq, and may find its promised history pruned).
	postAck(t, s, "dead", 5)
	if min, ok := s.MinAck(0); !ok || min != 5 {
		t.Fatalf("returning follower MinAck = %d,%v, want 5,true", min, ok)
	}
}

// TestAckExpiryDisabled: a negative TTL preserves the old hold-forever
// contract for operators who want it.
func TestAckExpiryDisabled(t *testing.T) {
	now := time.Unix(1000, 0)
	s := &Source{
		Dir:    t.TempDir(),
		NodeID: "p",
		AckTTL: -1,
		Now:    func() time.Time { return now },
	}
	postAck(t, s, "dead", 7)
	now = now.Add(365 * 24 * time.Hour)
	if min, ok := s.MinAck(0); !ok || min != 7 {
		t.Fatalf("MinAck = %d,%v with expiry disabled, want 7,true", min, ok)
	}
}

// wiredPrimary is a Source over n fresh WAL stripes with one audit
// trail each and its prune hold running, as gpsd wires every primary.
type wiredPrimary struct {
	dir    string
	logs   []*wal.Log
	audits []*Audit
	src    *Source
}

func newWiredPrimary(t *testing.T, n int) *wiredPrimary {
	t.Helper()
	dir := t.TempDir()
	logs, _, err := wal.OpenStriped(dir, n, wal.Options{SegmentBytes: 256, Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	p := &wiredPrimary{dir: dir, logs: logs, audits: make([]*Audit, n)}
	for i := range logs {
		if p.audits[i], err = OpenAudit(wal.StripeDir(dir, n, i), AuditOptions{FlushInterval: time.Millisecond}); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		for i := range logs {
			p.audits[i].Close()
			logs[i].Close()
		}
	})
	p.src = &Source{Dir: dir, NodeID: "p", Logs: logs, Audits: p.audits}
	t.Cleanup(p.src.HoldPrunes(time.Hour))
	return p
}

// append logs ops[from:to] on stripe i, records the first audited of
// them in its audit trail, and snapshots the stripe at to (which prunes
// whatever the watermark lets go).
func (p *wiredPrimary) append(t *testing.T, i, from, to, audited int) {
	t.Helper()
	ops := auditTestOps(to)
	if err := p.logs[i].Append(ops[from:to]); err != nil {
		t.Fatal(err)
	}
	for _, o := range ops[from : from+audited] {
		p.audits[i].Record(o)
	}
	if audited > 0 {
		waitDurable(t, p.audits[i], uint64(from+audited))
	}
	p.snapshot(t, i, to)
}

func (p *wiredPrimary) snapshot(t *testing.T, i, upto int) {
	t.Helper()
	st := wal.State{}
	if err := wal.Replay(&st, auditTestOps(upto)); err != nil {
		t.Fatal(err)
	}
	if err := p.logs[i].Snapshot(st); err != nil {
		t.Fatal(err)
	}
}

// oldestSeq is the first sequence of stripe i's oldest surviving
// segment: everything below it was pruned.
func (p *wiredPrimary) oldestSeq(t *testing.T, i int) uint64 {
	t.Helper()
	sub := wal.StripeDir(p.dir, len(p.logs), i)
	entries, err := os.ReadDir(sub)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries { // sorted: the first segment is the oldest
		if isSeg(e.Name()) {
			data, err := os.ReadFile(filepath.Join(sub, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			first, err := wal.SegmentFirstSeq(e.Name(), data)
			if err != nil {
				t.Fatal(err)
			}
			return first
		}
	}
	t.Fatalf("stripe %d has no segment", i)
	return 0
}

// TestHoldPrunesOneStripe: a one-stripe primary prunes a segment only
// once both its audit trail and its follower's ack cover it. The real
// follower of a one-stripe primary acks its head with no per-stripe
// detail, which must count as stripe 0's progress, not pin it forever.
func TestHoldPrunesOneStripe(t *testing.T) {
	p := newWiredPrimary(t, 1)
	p.append(t, 0, 0, 20, 20)
	p.append(t, 0, 20, 40, 0)
	p.append(t, 0, 40, 60, 0)
	if got := p.oldestSeq(t, 0); got > 21 {
		t.Fatalf("oldest segment starts at %d with the audit trail durable at 20; seqs 21.. were pruned", got)
	}

	mux := http.NewServeMux()
	p.src.Mount(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()
	f, err := NewFollower(FollowerOptions{ID: "f1", PrimaryURL: ts.URL, Dir: t.TempDir(), Rand: rand.New(rand.NewSource(1))})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.PullOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if f.AckSeq() != 60 {
		t.Fatalf("follower acked %d, want 60", f.AckSeq())
	}
	p.snapshot(t, 0, 60)
	if got := p.oldestSeq(t, 0); got > 21 {
		t.Fatalf("oldest segment starts at %d: the ack outran the audit trail's durable 20", got)
	}

	// The audit trail catches up; the interval recomputation lets go.
	for _, o := range auditTestOps(60)[20:] {
		p.audits[0].Record(o)
	}
	waitDurable(t, p.audits[0], 60)
	p.src.UpdateWatermarks()
	p.snapshot(t, 0, 60)
	if got := p.oldestSeq(t, 0); got != 61 {
		t.Fatalf("oldest segment starts at %d once trail and follower both hold 60, want 61", got)
	}

	// With the follower 40 ops behind, only the trail has the new tail.
	p.append(t, 0, 60, 100, 40)
	if got := p.oldestSeq(t, 0); got != 61 {
		t.Fatalf("oldest segment starts at %d with the follower acked at 60, want 61", got)
	}
}

// TestStripedHoldPrunesPerStripe: a two-stripe primary holds each stripe until
// that stripe is acked, whatever the other stripe's follower progress.
func TestStripedHoldPrunesPerStripe(t *testing.T) {
	p := newWiredPrimary(t, 2)
	ack := func(seqs ...uint64) {
		t.Helper()
		body := fmt.Sprintf(`{"follower_id":"f1","ack_seq":%d,"stripe_seqs":[%d,%d]}`, seqs[0]+seqs[1], seqs[0], seqs[1])
		rr := httptest.NewRecorder()
		p.src.handleAck(rr, httptest.NewRequest("POST", "/v1/repl/ack", strings.NewReader(body)))
		if rr.Code != 200 {
			t.Fatalf("ack returned %d", rr.Code)
		}
	}
	for i := range p.logs {
		p.append(t, i, 0, 20, 20)
	}
	ack(20, 20)
	for i := range p.logs {
		p.append(t, i, 20, 60, 40)
	}
	for i := range p.logs {
		if got := p.oldestSeq(t, i); got > 21 {
			t.Fatalf("stripe %d oldest segment starts at %d with its ack at 20", i, got)
		}
	}
	ack(60, 20)
	for i := range p.logs {
		p.snapshot(t, i, 60)
	}
	if got := p.oldestSeq(t, 0); got != 61 {
		t.Fatalf("acked stripe 0 oldest segment starts at %d, want 61", got)
	}
	if got := p.oldestSeq(t, 1); got > 21 {
		t.Fatalf("stripe 1 oldest segment starts at %d with its ack still at 20", got)
	}
	ack(60, 60)
	p.snapshot(t, 1, 60)
	if got := p.oldestSeq(t, 1); got != 61 {
		t.Fatalf("stripe 1 oldest segment starts at %d once acked, want 61", got)
	}
}

// TestStripedAuditFatalAnyStripe: gpsd_audit_fatal reads 1 when any one
// stripe's trail froze, not only a one-stripe primary's.
func TestStripedAuditFatalAnyStripe(t *testing.T) {
	p := newWiredPrimary(t, 2)
	fatal := func() string {
		var b strings.Builder
		p.src.WriteMetrics(&b)
		for _, line := range strings.Split(b.String(), "\n") {
			if v, ok := strings.CutPrefix(line, "gpsd_audit_fatal "); ok {
				return v
			}
		}
		t.Fatal("gpsd_audit_fatal missing")
		return ""
	}
	if got := fatal(); got != "0" {
		t.Fatalf("gpsd_audit_fatal = %s before any failure, want 0", got)
	}
	bad := auditTestOps(1)[0]
	bad.Seq = 99 // a sequence gap latches the trail's fatal error
	p.audits[1].Record(bad)
	deadline := time.Now().Add(5 * time.Second)
	for p.audits[1].Err() == nil {
		if time.Now().After(deadline) {
			t.Fatal("sequence-gap record never froze the trail")
		}
		time.Sleep(time.Millisecond)
	}
	if got := fatal(); got != "1" {
		t.Fatalf("gpsd_audit_fatal = %s with stripe 1's trail frozen, want 1", got)
	}
}
