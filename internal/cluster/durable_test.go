package cluster

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ebb"
	"repro/internal/faults"
	"repro/internal/network"
	"repro/internal/paper"
	"repro/internal/server"
	"repro/internal/wal"
)

// rtFunc adapts a function to http.RoundTripper.
type rtFunc func(*http.Request) (*http.Response, error)

func (f rtFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// dropAckTransport performs matching requests for real and then reports
// a transport error — the commit lands on the hop, the ack is lost on
// the wire. That is the scenario that used to strand committed hop
// capacity forever.
type dropAckTransport struct {
	inner http.RoundTripper
	host  string // hop whose acks get lost
	path  string

	mu    sync.Mutex
	drops int // remaining acks to swallow
}

func (t *dropAckTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := t.inner.RoundTrip(r)
	if err != nil {
		return resp, err
	}
	t.mu.Lock()
	drop := t.drops > 0 && r.URL.Host == t.host && r.URL.Path == t.path
	if drop {
		t.drops--
	}
	t.mu.Unlock()
	if drop {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return nil, fmt.Errorf("injected: ack lost for %s %s", r.Method, r.URL.Path)
	}
	return resp, nil
}

func hostOf(url string) string { return strings.TrimPrefix(url, "http://") }

// TestClusterCommitAckLostOnce: the commit lands but its ack is lost.
// The coordinator retries the same txid; the hop answers from its
// resolved-tx memory instead of admitting twice, and the admit succeeds
// with the hop's real session id.
func TestClusterCommitAckLostOnce(t *testing.T) {
	d1, h1 := startHop(t, server.Config{Rate: 1})
	d2, h2 := startHop(t, server.Config{Rate: 1})
	dt := &dropAckTransport{inner: http.DefaultTransport, host: hostOf(h2.URL), path: "/v1/commit", drops: 1}
	topo := Topology{Nodes: []HopNode{
		{Name: "node1", URL: h1.URL, Rate: 1},
		{Name: "node2", URL: h2.URL, Rate: 1},
	}}
	coord, err := New(Config{Topology: topo, Client: &http.Client{Transport: dt}})
	if err != nil {
		t.Fatal(err)
	}

	arr := ebb.Process{Rho: 0.25, Lambda: 1, Alpha: 0.9}
	res, err := coord.Admit(AdmitRequest{Name: "lossy", Arrival: arr, Route: []int{0, 1}, Target: treeTarget})
	if err != nil || !res.Admitted {
		t.Fatalf("admit = %+v err=%v, want success despite the lost ack", res, err)
	}
	if got := coord.Metrics().CommitRetries.Load(); got != 1 {
		t.Errorf("coordinator CommitRetries = %d, want 1", got)
	}
	if got := d2.Metrics().ClusterCommitRetries.Load(); got != 1 {
		t.Errorf("hop ClusterCommitRetries = %d, want 1 (idempotent replay)", got)
	}
	// Exactly one session per hop — the retry did not double-admit —
	// and the id the coordinator recorded is the hop's real one.
	want := math.Float64bits(arr.Rho)
	for i, d := range []*server.Daemon{d1, d2} {
		if got := usedBits(t, d); got != want {
			t.Errorf("hop %d: used bits %#x != %#x", i+1, got, want)
		}
		if d.Health().Sessions != 1 {
			t.Errorf("hop %d: %d sessions, want 1", i+1, d.Health().Sessions)
		}
	}
	if ok, err := coord.Release(res.ID); !ok || err != nil {
		t.Fatalf("release through the recorded hop ids: ok=%v err=%v", ok, err)
	}
	if got := usedBits(t, d2); got != 0 {
		t.Errorf("hop 2 used bits %#x after release, want 0", got)
	}
}

// TestClusterCommitAckLostTwice: both the commit and its retry lose
// their acks. The admit fails closed — and the abort the coordinator
// sends for the already-committed txid is compensated by the hop
// (abort-after-commit releases the session it created), so no hop
// capacity is stranded.
func TestClusterCommitAckLostTwice(t *testing.T) {
	d1, h1 := startHop(t, server.Config{Rate: 1})
	d2, h2 := startHop(t, server.Config{Rate: 1})
	dt := &dropAckTransport{inner: http.DefaultTransport, host: hostOf(h2.URL), path: "/v1/commit", drops: 2}
	topo := Topology{Nodes: []HopNode{
		{Name: "node1", URL: h1.URL, Rate: 1},
		{Name: "node2", URL: h2.URL, Rate: 1},
	}}
	coord, err := New(Config{Topology: topo, Client: &http.Client{Transport: dt}})
	if err != nil {
		t.Fatal(err)
	}

	arr := ebb.Process{Rho: 0.25, Lambda: 1, Alpha: 0.9}
	_, err = coord.Admit(AdmitRequest{Name: "doomed", Arrival: arr, Route: []int{0, 1}, Target: treeTarget})
	if !errors.Is(err, ErrPartition) {
		t.Fatalf("admit err = %v, want ErrPartition", err)
	}
	if got := coord.Metrics().CommitRetries.Load(); got != 1 {
		t.Errorf("coordinator CommitRetries = %d, want 1", got)
	}
	// node2 committed (twice over the wire: the second was an idempotent
	// replay) and then compensated the abort by releasing the session.
	if got := d2.Metrics().ClusterCommitRetries.Load(); got != 1 {
		t.Errorf("hop ClusterCommitRetries = %d, want 1", got)
	}
	if got := d2.Metrics().ClusterCompensations.Load(); got != 1 {
		t.Errorf("hop ClusterCompensations = %d, want 1 (abort-after-commit)", got)
	}
	for i, d := range []*server.Daemon{d1, d2} {
		if got := usedBits(t, d); got != 0 {
			t.Errorf("hop %d: used bits %#x stranded after abort, want exactly 0", i+1, got)
		}
		if d.Reserved() != 0 || d.PrepareCount() != 0 {
			t.Errorf("hop %d: leftover reservations", i+1)
		}
	}
	if coord.Sessions() != 0 {
		t.Errorf("coordinator recorded %d sessions", coord.Sessions())
	}
}

// TestClusterReleasePartialFailure: a mid-route hop failure during
// Release must come back found=true with an error — the id is known,
// the release merely incomplete — never (false, …), which a caller
// would read as "unknown session" and stop retrying. The retry then
// completes idempotently.
func TestClusterReleasePartialFailure(t *testing.T) {
	d1, h1 := startHop(t, server.Config{Rate: 1})
	d2, h2 := startHop(t, server.Config{Rate: 1})
	var failing bool
	var mu sync.Mutex
	h2host := hostOf(h2.URL)
	rt := rtFunc(func(r *http.Request) (*http.Response, error) {
		mu.Lock()
		fail := failing && r.Method == http.MethodDelete && r.URL.Host == h2host
		mu.Unlock()
		if fail {
			return nil, errors.New("injected: hop unreachable")
		}
		return http.DefaultTransport.RoundTrip(r)
	})
	topo := Topology{Nodes: []HopNode{
		{Name: "node1", URL: h1.URL, Rate: 1},
		{Name: "node2", URL: h2.URL, Rate: 1},
	}}
	coord, err := New(Config{Topology: topo, Client: &http.Client{Transport: rt}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := coord.Admit(AdmitRequest{
		Name:    "sticky",
		Arrival: ebb.Process{Rho: 0.25, Lambda: 1, Alpha: 0.9},
		Route:   []int{0, 1},
		Target:  treeTarget,
	})
	if err != nil || !res.Admitted {
		t.Fatalf("admit: %+v %v", res, err)
	}

	mu.Lock()
	failing = true
	mu.Unlock()
	found, err := coord.Release(res.ID)
	if !found {
		t.Fatalf("partial release reported found=false (err=%v) — conflates unknown with incomplete", err)
	}
	if !errors.Is(err, ErrPartition) {
		t.Fatalf("partial release err = %v, want ErrPartition", err)
	}
	// The session stays in the model (conservative: node1 really did
	// release, so live load is only lower than modeled).
	if coord.Sessions() != 1 {
		t.Fatalf("coordinator dropped the session after a partial release")
	}
	if _, ok, err := coord.RouteBounds(res.ID); !ok || err != nil {
		t.Fatalf("RouteBounds after partial release: ok=%v err=%v", ok, err)
	}
	if err := d1.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if d1.Health().Sessions != 0 {
		t.Fatalf("node1 still holds the session (release never reached it?)")
	}

	// Retry once the hop is back: node1's 404 counts as released,
	// node2 releases for real, and the session leaves the model.
	mu.Lock()
	failing = false
	mu.Unlock()
	found, err = coord.Release(res.ID)
	if !found || err != nil {
		t.Fatalf("retry release: found=%v err=%v", found, err)
	}
	if coord.Sessions() != 0 {
		t.Fatalf("session survived the completed release")
	}
	if got := usedBits(t, d2); got != 0 {
		t.Fatalf("node2 used bits %#x, want 0", got)
	}
	// A genuinely unknown id is (false, nil) — the other half of the
	// contract.
	if found, err := coord.Release(res.ID); found || err != nil {
		t.Fatalf("released id again: found=%v err=%v, want (false, nil)", found, err)
	}
	if found, err := coord.Release(9999); found || err != nil {
		t.Fatalf("unknown id: found=%v err=%v, want (false, nil)", found, err)
	}
}

// TestCoordinatorRecoveryEveryPrefix SIGKILLs the coordinator at every
// route-record boundary — after the journal append, before memory or
// the reply (cluster.coord.append) — then reboots from a copy of the
// journal. The recovered coordinator must serve RouteBounds
// bit-identical to the offline CRST analysis of the folded journal,
// reconcile must find nothing to repair (hops and journal agree at
// every boundary), and a previous-life session must release cleanly.
func TestCoordinatorRecoveryEveryPrefix(t *testing.T) {
	set, err := paper.Table2(paper.Set1Rho)
	if err != nil {
		t.Fatal(err)
	}
	full := paper.Tree(set)

	// Ops 1..4 are admits of the §6.3 tree sessions; op 5 releases the
	// last one. Crashing at append n leaves exactly n records durable.
	for n := uint64(1); n <= 5; n++ {
		t.Run(fmt.Sprintf("crash-at-append-%d", n), func(t *testing.T) {
			hops := make([]*server.Daemon, 3)
			topo := Topology{}
			for m := 0; m < 3; m++ {
				d, hs := startHop(t, server.Config{Rate: 1})
				hops[m] = d
				topo.Nodes = append(topo.Nodes, HopNode{Name: full.Nodes[m].Name, URL: hs.URL, Rate: 1})
			}
			walDir := filepath.Join(t.TempDir(), "coordwal")
			l, _, err := wal.Open(walDir, wal.Options{Sync: wal.SyncAlways})
			if err != nil {
				t.Fatal(err)
			}
			crashed := make(chan struct{})
			plan := &faults.CrashPlan{
				Point: CrashCoordAppend,
				Nth:   n,
				// The coordinator goroutine never runs another
				// instruction — SIGKILL as seen from inside. It wedges
				// holding c.mu, like a dead process holding nothing.
				KillFunc: func() { close(crashed); select {} },
			}
			coord, err := New(Config{Topology: topo, PrepareTTL: time.Hour, Log: l, Crash: plan})
			if err != nil {
				t.Fatal(err)
			}
			go func() {
				ids := make([]uint64, 0, len(set))
				for i, p := range set {
					first := 0
					if i >= 2 {
						first = 1
					}
					res, err := coord.Admit(AdmitRequest{
						Name:    paper.SessionNames[i],
						Arrival: p,
						Route:   []int{first, 2},
						Target:  treeTarget,
					})
					if err != nil || !res.Admitted {
						return
					}
					ids = append(ids, res.ID)
				}
				coord.Release(ids[3])
			}()
			select {
			case <-crashed:
			case <-time.After(10 * time.Second):
				t.Fatal("crashpoint never fired")
			}

			// Reboot from a copy of the dead coordinator's journal.
			bootDir := filepath.Join(t.TempDir(), "coordwal")
			copyDir(t, walDir, bootDir)
			l2, rec2, err := wal.Open(bootDir, wal.Options{Sync: wal.SyncAlways})
			if err != nil {
				t.Fatal(err)
			}
			st, err := wal.FoldRoutes(rec2.Ops)
			if err != nil {
				t.Fatal(err)
			}
			wantSessions := int(n)
			if n == 5 {
				wantSessions = 3 // 4 admits + 1 tombstone
			}
			if len(st.Sessions) != wantSessions {
				t.Fatalf("journal folds to %d sessions, want %d", len(st.Sessions), wantSessions)
			}
			coord2, err := New(Config{Topology: topo, PrepareTTL: time.Hour, Log: l2, Recovered: rec2})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { coord2.Close() })
			if coord2.Sessions() != wantSessions {
				t.Fatalf("recovered coordinator has %d sessions, want %d", coord2.Sessions(), wantSessions)
			}
			// The hops agree with the journal at every append boundary
			// (hop work always completes before the record): nothing for
			// reconcile to drop or sweep.
			m2 := coord2.Metrics()
			if m2.ReconcileDrops.Load() != 0 || m2.OrphanReleases.Load() != 0 {
				t.Fatalf("reconcile repaired a consistent boundary: %d drops, %d orphans",
					m2.ReconcileDrops.Load(), m2.OrphanReleases.Load())
			}

			// Every surviving session's RouteBounds must match the
			// offline analysis of the folded journal bit for bit.
			an, err := BuildNetwork(topo, st.Sessions).AnalyzeCRST(network.CRSTOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for i, s := range st.Sessions {
				rb, ok, err := coord2.RouteBounds(s.ID)
				if err != nil || !ok {
					t.Fatalf("RouteBounds(%d): ok=%v err=%v", s.ID, ok, err)
				}
				if math.Float64bits(rb.Bound.AchievedEps) != math.Float64bits(an.EndToEndDelayTail(i)(s.Delay)) {
					t.Errorf("session %d: achieved eps %v != offline %v",
						s.ID, rb.Bound.AchievedEps, an.EndToEndDelayTail(i)(s.Delay))
				}
				env := an.EndToEndDelayExpTail(i)
				if math.Float64bits(rb.Bound.EnvPrefactor) != math.Float64bits(env.Prefactor) ||
					math.Float64bits(rb.Bound.EnvRate) != math.Float64bits(env.Rate) {
					t.Errorf("session %d: envelope %+v != offline %+v", s.ID, rb.Bound, env)
				}
				for k, hw := range rb.Hops {
					hb := an.Hops[i][k]
					if hw.Node != hb.Node || hw.HopID != s.HopIDs[k] ||
						math.Float64bits(hw.G) != math.Float64bits(hb.G) ||
						math.Float64bits(hw.Theta) != math.Float64bits(hb.Theta) ||
						math.Float64bits(hw.Prefactor) != math.Float64bits(hb.Delay.Prefactor) ||
						math.Float64bits(hw.Rate) != math.Float64bits(hb.Delay.Rate) {
						t.Errorf("session %d hop %d: %+v != offline %+v", s.ID, k, hw, hb)
					}
				}
			}

			// The recovered coordinator can release a session admitted by
			// its previous life: the journaled hop ids are live.
			victim := st.Sessions[0]
			if ok, err := coord2.Release(victim.ID); !ok || err != nil {
				t.Fatalf("releasing previous-life session %d: ok=%v err=%v", victim.ID, ok, err)
			}
			if err := hops[2].Rebuild(); err != nil {
				t.Fatal(err)
			}
			if got := hops[2].Health().Sessions; got != wantSessions-1 {
				t.Errorf("hop 3 has %d sessions after previous-life release, want %d", got, wantSessions-1)
			}
		})
	}
}

// TestCoordinatorReconcile exercises both repair rules at recovery:
// a journaled admit whose hop sessions are gone is dropped (tombstone
// journaled first), and unjournaled hop sessions older than the
// prepare TTL are orphan-released.
func TestCoordinatorReconcile(t *testing.T) {
	d1, h1 := startHop(t, server.Config{Rate: 1})
	d2, h2 := startHop(t, server.Config{Rate: 1})
	topo := Topology{Nodes: []HopNode{
		{Name: "node1", URL: h1.URL, Rate: 1},
		{Name: "node2", URL: h2.URL, Rate: 1},
	}}
	arr := ebb.Process{Rho: 0.2, Lambda: 1, Alpha: 0.9}

	walDir := filepath.Join(t.TempDir(), "coordwal")
	l, _, err := wal.Open(walDir, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	c1, err := New(Config{Topology: topo, PrepareTTL: time.Minute, Log: l})
	if err != nil {
		t.Fatal(err)
	}
	resA, err := c1.Admit(AdmitRequest{Name: "journaled", Arrival: arr, Route: []int{0, 1}, Target: treeTarget})
	if err != nil || !resA.Admitted {
		t.Fatalf("admit A: %+v %v", resA, err)
	}
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}

	// A second, stateless coordinator admits B through the same hops:
	// cluster-committed on the hops, journaled nowhere — the residue of
	// a coordinator that died between hop commit and journal append.
	c2, err := New(Config{Topology: topo, PrepareTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	resB, err := c2.Admit(AdmitRequest{Name: "orphan", Arrival: arr, Route: []int{0, 1}, Target: treeTarget})
	if err != nil || !resB.Admitted {
		t.Fatalf("admit B: %+v %v", resB, err)
	}

	// A's hop sessions vanish behind the journal's back (an operator
	// cleanup, an expiry — anything that makes the journal stale).
	for k, hs := range []string{h1.URL, h2.URL} {
		req, err := http.NewRequest(http.MethodDelete,
			fmt.Sprintf("%s/v1/sessions/%d", hs, resA.Hops[k].HopID), nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("deleting A's hop session: HTTP %d", resp.StatusCode)
		}
	}

	// Reboot A's journal with a short TTL, after B's hop sessions have
	// outlived it: reconcile drops A and sweeps B.
	const ttl = 50 * time.Millisecond
	time.Sleep(3 * ttl)
	l2, rec2, err := wal.Open(walDir, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	c3, err := New(Config{Topology: topo, PrepareTTL: ttl, Log: l2, Recovered: rec2})
	if err != nil {
		t.Fatal(err)
	}
	if c3.Sessions() != 0 {
		t.Errorf("recovered coordinator has %d sessions, want 0", c3.Sessions())
	}
	m := c3.Metrics()
	if m.ReconcileDrops.Load() != 1 {
		t.Errorf("ReconcileDrops = %d, want 1", m.ReconcileDrops.Load())
	}
	if m.OrphanReleases.Load() != 2 {
		t.Errorf("OrphanReleases = %d, want 2 (B on both hops)", m.OrphanReleases.Load())
	}
	for i, d := range []*server.Daemon{d1, d2} {
		if got := usedBits(t, d); got != 0 {
			t.Errorf("hop %d: used bits %#x, want 0 after reconcile", i+1, got)
		}
		if d.Health().Sessions != 0 {
			t.Errorf("hop %d still holds %d sessions", i+1, d.Health().Sessions)
		}
	}
	if err := c3.Close(); err != nil {
		t.Fatal(err)
	}

	// The drop is durable: the journal now ends with A's tombstone, so
	// the NEXT restart folds to the same empty set with no repair.
	ops, err := wal.ReadOps(walDir, 0)
	if err != nil {
		t.Fatal(err)
	}
	last := ops[len(ops)-1]
	if last.Kind != wal.KindRouteRelease || last.ID != resA.ID {
		t.Fatalf("last journal op = %+v, want tombstone for %d", last, resA.ID)
	}
	st, err := wal.FoldRoutes(ops)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Sessions) != 0 {
		t.Fatalf("journal folds to %d sessions after reconcile, want 0", len(st.Sessions))
	}
}

// BenchmarkCoordinatorChurn measures one release+re-admit cycle against
// a 10k-session set, with hop I/O stubbed out (the hop answers 404,
// which counts as released) — what remains is the coordinator's own
// bookkeeping, which used to be a linear scan per lookup.
func BenchmarkCoordinatorChurn(b *testing.B) {
	topo := Topology{Nodes: []HopNode{{Name: "n0", URL: "http://hop.invalid", Rate: 1e9}}}
	stub := rtFunc(func(r *http.Request) (*http.Response, error) {
		return &http.Response{StatusCode: http.StatusNotFound, Body: http.NoBody}, nil
	})
	c, err := New(Config{Topology: topo, Client: &http.Client{Transport: stub}})
	if err != nil {
		b.Fatal(err)
	}
	const n = 10000
	arr := ebb.Process{Rho: 1e-6, Lambda: 1, Alpha: 0.9}
	insert := func(id uint64) {
		c.byID[id] = len(c.sessions)
		c.sessions = append(c.sessions, wal.RouteSessionRecord{
			ID: id, Rho: arr.Rho, Lambda: arr.Lambda, Alpha: arr.Alpha,
			Route: []int{0}, HopIDs: []uint64{id}, Shards: []int{0},
		})
	}
	for id := uint64(1); id <= n; id++ {
		insert(id)
	}
	c.nextID = n + 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := uint64(i%n) + 1
		ok, err := c.Release(id)
		if !ok || err != nil {
			b.Fatalf("release %d: ok=%v err=%v", id, ok, err)
		}
		c.mu.Lock()
		insert(id)
		c.mu.Unlock()
	}
}
