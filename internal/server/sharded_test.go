package server

import (
	"bytes"
	"context"
	"math"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ebb"
	"repro/internal/gpsmath"
	"repro/internal/ledger"
	"repro/internal/source"
	"repro/internal/wal"
)

func newTestSharded(t *testing.T, cfg Config, n int) *Sharded {
	t.Helper()
	s, err := NewSharded(cfg, n, nil, nil, nil)
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Close(ctx); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return s
}

// TestShardedChurnEpochInvariants is the sharded writer's concurrency
// contract, the multi-writer extension of
// TestConcurrentChurnEpochInvariants: workers churn admits, releases,
// and bounds reads through the facade while a checker validates every
// epoch each shard publishes with the same per-epoch invariants (valid
// feasible partition, consistent id maps, sampled bit-identity to a
// fresh offline analysis at the shard's capacity), and the cross-shard
// ledger's safety invariant — slices never sum past the link rate —
// is asserted throughout. Run under -race via make shardcheck.
func TestShardedChurnEpochInvariants(t *testing.T) {
	const (
		nShards = 4
		workers = 8
		iters   = 50
		maxOwn  = 6
	)
	s := newTestSharded(t, Config{
		Rate:        1000,
		MaxEpochAge: 5 * time.Millisecond,
		MaxBatch:    16,
	}, nShards)

	var epochsSeen atomic.Int64
	checkerDone := make(chan struct{})
	stop := make(chan struct{})
	go func() {
		defer close(checkerDone)
		lastSeq := make([]uint64, nShards)
		for {
			for i := 0; i < nShards; i++ {
				ep := s.Shard(i).CurrentEpoch()
				if ep.Seq != lastSeq[i] {
					lastSeq[i] = ep.Seq
					epochsSeen.Add(1)
					checkEpoch(t, ep)
				}
			}
			led := s.Ledger()
			if r := led.Reserved(); r > led.Budget() {
				t.Errorf("ledger reserved %v exceeds budget %v", r, led.Budget())
			}
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()

	var wg sync.WaitGroup
	var netAdmitted atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := source.NewRNG(uint64(w)*104729 + 3)
			var mine []uint64
			for i := 0; i < iters; i++ {
				switch {
				case len(mine) == 0 || (len(mine) < maxOwn && rng.Float64() < 0.55):
					res, err := s.Admit(testTypes[rng.Intn(len(testTypes))])
					if err != nil {
						t.Errorf("worker %d admit: %v", w, err)
						return
					}
					if res.Admitted {
						if int(res.ID&s.mask) >= nShards {
							t.Errorf("worker %d: id %d routes past shard %d", w, res.ID, nShards-1)
						}
						mine = append(mine, res.ID)
						netAdmitted.Add(1)
					}
				case rng.Float64() < 0.5:
					k := rng.Intn(len(mine))
					ok, err := s.Release(mine[k])
					if err != nil {
						t.Errorf("worker %d release: %v", w, err)
						return
					}
					if !ok {
						t.Errorf("worker %d: own session %d not found", w, mine[k])
					}
					mine = append(mine[:k], mine[k+1:]...)
					netAdmitted.Add(-1)
				default:
					id := mine[rng.Intn(len(mine))]
					if rep, ok := s.Bounds(id, 1, 10); ok {
						if math.IsNaN(rep.DelayProb) || rep.DelayProb < 0 {
							t.Errorf("worker %d: delay prob %v", w, rep.DelayProb)
						}
					} else if !s.Pending(id) {
						t.Errorf("worker %d: live session %d neither bounded nor pending", w, id)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-checkerDone

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}

	total := 0
	capSum := 0.0
	for i := 0; i < nShards; i++ {
		d := s.Shard(i)
		final := d.CurrentEpoch()
		checkEpoch(t, final)
		total += final.Sessions()
		capSum += d.Capacity()
		if d.Metrics().RebuildFailures.Load() != 0 {
			t.Errorf("shard %d: %d epoch rebuild failures", i, d.Metrics().RebuildFailures.Load())
		}
	}
	if want := int(netAdmitted.Load()); total != want {
		t.Errorf("final epochs hold %d sessions, want %d (admits minus releases)", total, want)
	}
	led := s.Ledger()
	// The slices the shards hold are exactly what the ledger thinks it
	// reserved (the sums associate differently, hence the tolerance),
	// and they never exceed the budget.
	if r := led.Reserved(); math.Abs(capSum-r) > 1e-9*(1+r) {
		t.Errorf("shards hold %v of capacity, ledger has %v reserved", capSum, r)
	}
	if capSum > led.Budget()*(1+1e-12) {
		t.Errorf("shard capacities sum to %v, budget is %v", capSum, led.Budget())
	}
	if epochsSeen.Load() < int64(nShards) {
		t.Errorf("checker observed %d epochs across %d shards; churn should publish several", epochsSeen.Load(), nShards)
	}
	hv := s.Health()
	if hv.Sessions != total || hv.Shards != nShards {
		t.Errorf("health reports %d sessions / %d shards, want %d / %d", hv.Sessions, hv.Shards, total, nShards)
	}
}

// TestShardedStripedRecoveryBitIdentity is the sharded half of the
// crash-recovery contract: a striped-WAL sharded service admits and
// releases under SyncAlways, closes, and a second service booted from
// the same stripes must republish per-shard first epochs that are
// bit-identical — Σφ, capacities (re-derived by the deterministic
// BootCapacities split), and sampled tail bounds — to an independent
// offline fold of each stripe.
func TestShardedStripedRecoveryBitIdentity(t *testing.T) {
	const (
		nShards = 4
		rate    = 500.0
	)
	dir := filepath.Join(t.TempDir(), "wal")
	open := func() ([]*wal.Log, []*wal.Recovered) {
		t.Helper()
		logs, recs, err := wal.OpenStriped(dir, nShards, wal.Options{Sync: wal.SyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		return logs, recs
	}
	boot := func(logs []*wal.Log, recs []*wal.Recovered) *Sharded {
		t.Helper()
		alogs := make([]AdmissionLog, len(logs))
		for i := range logs {
			alogs[i] = logs[i]
		}
		s, err := NewSharded(Config{
			Rate:          rate,
			MaxEpochAge:   time.Hour,
			SnapshotEvery: 5, // force snapshot+prune cycles inside the history
		}, nShards, alogs, recs, nil)
		if err != nil {
			t.Fatalf("NewSharded: %v", err)
		}
		return s
	}
	closeAll := func(s *Sharded, logs []*wal.Log) {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Close(ctx); err != nil {
			t.Fatalf("Close: %v", err)
		}
		for _, l := range logs {
			if err := l.Close(); err != nil {
				t.Fatalf("log close: %v", err)
			}
		}
	}

	logs, recs := open()
	s := boot(logs, recs)
	rng := source.NewRNG(8)
	var ids []uint64
	for step := 0; step < 80; step++ {
		if len(ids) > 0 && rng.Float64() < 0.3 {
			k := rng.Intn(len(ids))
			if ok, err := s.Release(ids[k]); err != nil || !ok {
				t.Fatalf("step %d release: ok=%v err=%v", step, ok, err)
			}
			ids = append(ids[:k], ids[k+1:]...)
		} else {
			res, err := s.Admit(testTypes[rng.Intn(len(testTypes))])
			if err != nil {
				t.Fatalf("step %d admit: %v", step, err)
			}
			if res.Admitted {
				ids = append(ids, res.ID)
			}
		}
	}
	closeAll(s, logs)

	// Independent offline fold: per-stripe session sets, the boot
	// capacity split, and a fresh analysis per shard at its capacity.
	offRecs, err := wal.ReadStriped(dir)
	if err != nil {
		t.Fatal(err)
	}
	sts := make([]wal.State, nShards)
	useds := make([]float64, nShards)
	for i, rec := range offRecs {
		st, err := rec.SessionSet()
		if err != nil {
			t.Fatalf("stripe %d fold: %v", i, err)
		}
		sts[i], useds[i] = st, st.Used
	}
	caps, err := ledger.BootCapacities(useds, rate, ledger.DefaultQuantum(rate, nShards))
	if err != nil {
		t.Fatal(err)
	}

	logs, recs = open()
	s2 := boot(logs, recs)
	defer closeAll(s2, logs)
	for i := 0; i < nShards; i++ {
		d := s2.Shard(i)
		if got, want := math.Float64bits(d.CurrentEpoch().Used), math.Float64bits(useds[i]); got != want {
			t.Errorf("shard %d recovered Σφ bits %#x, offline fold %#x", i, got, want)
		}
		if got, want := math.Float64bits(d.Capacity()), math.Float64bits(caps[i]); got != want {
			t.Errorf("shard %d capacity bits %#x, BootCapacities %#x", i, got, want)
		}
		ep := d.CurrentEpoch()
		if ep.Sessions() != len(sts[i].Sessions) {
			t.Errorf("shard %d epoch has %d sessions, stripe implies %d", i, ep.Sessions(), len(sts[i].Sessions))
			continue
		}
		if len(sts[i].Sessions) == 0 {
			continue
		}
		srv := gpsmath.Server{Rate: caps[i], Sessions: make([]gpsmath.Session, len(sts[i].Sessions))}
		for j, rec := range sts[i].Sessions {
			srv.Sessions[j] = gpsmath.Session{
				Name: rec.Name, Phi: rec.G,
				Arrival: ebb.Process{Rho: rec.Rho, Lambda: rec.Lambda, Alpha: rec.Alpha},
			}
		}
		fresh, err := gpsmath.AnalyzeServer(srv, gpsmath.Options{Independent: true, Xi: gpsmath.XiOptimal})
		if err != nil {
			t.Fatalf("shard %d offline AnalyzeServer: %v", i, err)
		}
		for j := range srv.Sessions {
			for _, q := range []float64{1, 8} {
				if math.Float64bits(ep.Analysis.BestBacklogTailValue(j, q)) !=
					math.Float64bits(fresh.BestBacklogTailValue(j, q)) {
					t.Errorf("shard %d session %d backlog bound at q=%v not bit-identical to offline", i, j, q)
				}
			}
			if math.Float64bits(ep.Analysis.BestDelayTailValue(j, 15)) !=
				math.Float64bits(fresh.BestDelayTailValue(j, 15)) {
				t.Errorf("shard %d session %d delay bound not bit-identical to offline", i, j)
			}
		}
	}
	// The composed health document folds the same way walcheck does:
	// Σφ accumulated in shard index order.
	used := 0.0
	for _, u := range useds {
		used += u
	}
	if got := s2.Health(); math.Float64bits(got.Used) != math.Float64bits(used) {
		t.Errorf("composed Σφ bits %#x, shard-ordered offline fold %#x", math.Float64bits(got.Used), math.Float64bits(used))
	}
}

// TestShardedRoutingErrors pins the facade's edge behavior: partition
// views of out-of-range shards fail, releases of ids carrying an
// unknown shard tag miss without error, and a concatenated partition
// view covers every shard in order.
func TestShardedRoutingErrors(t *testing.T) {
	s := newTestSharded(t, Config{Rate: 1000, MaxEpochAge: time.Hour}, 3)
	var ids []uint64
	for i := 0; i < 9; i++ {
		res, err := s.Admit(testTypes[i%len(testTypes)])
		if err != nil || !res.Admitted {
			t.Fatalf("admit %d: admitted=%v err=%v", i, res.Admitted, err)
		}
		ids = append(ids, res.ID)
	}
	if err := s.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Partition(3); err == nil {
		t.Error("Partition(3) on a 3-shard service must fail")
	}
	if _, err := s.Partition(s.Shards() + 7); err == nil {
		t.Error("Partition far out of range must fail")
	}
	all, err := s.Partition(-1)
	if err != nil {
		t.Fatal(err)
	}
	if all.Sessions != len(ids) {
		t.Errorf("concatenated partition has %d sessions, want %d", all.Sessions, len(ids))
	}
	// n=3 packs shard ids into 2 bits, so tag 3 is addressable but maps
	// to no shard: the release must miss cleanly, not panic or error.
	ok, err := s.Release(3)
	if err != nil || ok {
		t.Errorf("release of unknown-shard id: ok=%v err=%v, want a clean miss", ok, err)
	}
	if misses := s.Metrics().ReleaseMisses.Load(); misses == 0 {
		t.Error("unknown-shard release not counted as a miss")
	}
}

// TestShardedRateMemoCountsOnce: the facade sizes each admit once and
// hands the shard the rate, so k distinct-type admits show k memo
// lookups in /metrics, not one at the facade and another at the shard.
func TestShardedRateMemoCountsOnce(t *testing.T) {
	s := newTestSharded(t, Config{Rate: 1000, MaxEpochAge: time.Hour}, 2)
	const k = 10
	for i := 0; i < k; i++ {
		req := testTypes[0]
		req.Target.Delay = 20 + float64(i)
		if res, err := s.Admit(req); err != nil || !res.Admitted {
			t.Fatalf("admit %d: admitted=%v err=%v", i, res.Admitted, err)
		}
	}
	var buf bytes.Buffer
	s.WriteMetrics(&buf)
	counter := func(name string) int {
		t.Helper()
		for _, line := range strings.Split(buf.String(), "\n") {
			if v, ok := strings.CutPrefix(line, name+" "); ok {
				n, err := strconv.Atoi(v)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				return n
			}
		}
		t.Fatalf("%s missing from /metrics", name)
		return 0
	}
	hits, misses := counter("gpsd_rate_cache_hits_total"), counter("gpsd_rate_cache_misses_total")
	if hits+misses != k || misses != k {
		t.Fatalf("rate memo hits=%d misses=%d after %d distinct-type admits, want 0 and %d", hits, misses, k, k)
	}
}

// TestShardedOneShardMatchesDaemon pins the one-shard boot: a flat WAL
// (a staged snapshot plus an op suffix) booted through
// NewSharded(cfg, 1, …) serves exactly what a standalone Daemon booted
// from a copy of it serves — ids, Σφ bits, partitions, and
// Float64bits-identical bounds — through the same admit, release,
// prepare, commit and abort sequence, up to the first rejection. A lone
// shard is the whole link: analyzed at a ledger slice instead of the
// rate, every bound would move.
func TestShardedOneShardMatchesDaemon(t *testing.T) {
	stage := filepath.Join(t.TempDir(), "stage")
	l, _, err := wal.Open(stage, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	memo := NewRateMemo(rateCacheMax)
	rec := func(id uint64, req AdmitRequest) wal.SessionRecord {
		g, _, err := memo.Required(req.Arrival, req.Target)
		if err != nil {
			t.Fatal(err)
		}
		return wal.SessionRecord{ID: id, Name: req.Name,
			Rho: req.Arrival.Rho, Lambda: req.Arrival.Lambda, Alpha: req.Arrival.Alpha,
			Delay: req.Target.Delay, Eps: req.Target.Eps, G: g}
	}
	var st wal.State
	for i := 0; i < 12; i++ {
		st.Sessions = append(st.Sessions, rec(uint64(i+1), testTypes[i%len(testTypes)]))
		st.Used += st.Sessions[i].G
	}
	st.NextID = 12
	st.Seq = l.NextSeq() - 1
	if err := l.Snapshot(st); err != nil {
		t.Fatal(err)
	}
	admit := rec(13, testTypes[1])
	suffix := []wal.Op{
		{Kind: wal.KindRelease, ID: 3},
		{Kind: wal.KindAdmit, ID: 13, Name: admit.Name, Rho: admit.Rho, Lambda: admit.Lambda, Alpha: admit.Alpha,
			Delay: admit.Delay, Eps: admit.Eps, G: admit.G},
		{Kind: wal.KindRelease, ID: 7},
	}
	if err := l.Append(suffix); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	rate := 2 * st.Used

	type node interface {
		Service
		Rebuild() error
	}
	cfg := Config{Rate: rate, MaxEpochAge: time.Hour}
	boot := func(sharded bool) node {
		t.Helper()
		dir := filepath.Join(t.TempDir(), "wal")
		copyDir(t, stage, dir)
		var n node
		var close func(context.Context) error
		if sharded {
			logs, recs, err := wal.OpenStriped(dir, 1, wal.Options{Sync: wal.SyncAlways})
			if err != nil {
				t.Fatal(err)
			}
			s, err := NewSharded(cfg, 1, []AdmissionLog{logs[0]}, recs, nil)
			if err != nil {
				t.Fatal(err)
			}
			if s.Shard(0).Capacity() != rate {
				t.Fatalf("lone shard capacity %v, want the whole rate %v", s.Shard(0).Capacity(), rate)
			}
			n, close = s, s.Close
		} else {
			l, rec, err := wal.Open(dir, wal.Options{Sync: wal.SyncAlways})
			if err != nil {
				t.Fatal(err)
			}
			c := cfg
			c.Log, c.Recovered = l, rec
			d, err := New(c)
			if err != nil {
				t.Fatal(err)
			}
			n, close = d, d.Close
		}
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := close(ctx); err != nil {
				t.Errorf("Close: %v", err)
			}
		})
		return n
	}
	d, s := boot(false), boot(true)

	live := map[uint64]bool{}
	for _, r := range st.Sessions {
		live[r.ID] = true
	}
	delete(live, 3)
	delete(live, 7)
	live[13] = true
	compare := func(tag string) {
		t.Helper()
		if err := d.Rebuild(); err != nil {
			t.Fatal(err)
		}
		if err := s.Rebuild(); err != nil {
			t.Fatal(err)
		}
		dh, sh := d.Health(), s.Health()
		if math.Float64bits(dh.Used) != math.Float64bits(sh.Used) || dh.Sessions != sh.Sessions || dh.Sessions != len(live) ||
			math.Float64bits(dh.Reserved) != math.Float64bits(sh.Reserved) || dh.Prepares != sh.Prepares {
			t.Fatalf("%s: daemon health %+v, one-shard %+v (%d live)", tag, dh, sh, len(live))
		}
		dp, _ := d.Partition(-1)
		sp, _ := s.Partition(-1)
		if !reflect.DeepEqual(dp.Classes, sp.Classes) {
			t.Fatalf("%s: partitions differ:\ndaemon    %v\none-shard %v", tag, dp.Classes, sp.Classes)
		}
		for id := range live {
			for _, pt := range [][2]float64{{0, 0}, {0.5, 3}} {
				db, dok := d.Bounds(id, pt[0], pt[1])
				sb, sok := s.Bounds(id, pt[0], pt[1])
				if !dok || !sok {
					t.Fatalf("%s: session %d bounds served daemon=%v one-shard=%v", tag, id, dok, sok)
				}
				for _, f := range [][2]float64{{db.G, sb.G}, {db.Q, sb.Q}, {db.BacklogProb, sb.BacklogProb},
					{db.Delay, sb.Delay}, {db.DelayProb, sb.DelayProb}, {db.AchievedEps, sb.AchievedEps}} {
					if math.Float64bits(f[0]) != math.Float64bits(f[1]) {
						t.Fatalf("%s: session %d at %v: daemon bounds %+v, one-shard %+v", tag, id, pt, db, sb)
					}
				}
				if db.Theorem != sb.Theorem || db.MeetsTarget != sb.MeetsTarget {
					t.Fatalf("%s: session %d: daemon bounds %+v, one-shard %+v", tag, id, db, sb)
				}
			}
		}
	}
	both := func(tag string, f func(n node) (uint64, bool)) uint64 {
		t.Helper()
		did, dok := f(d)
		sid, sok := f(s)
		if did != sid || dok != sok {
			t.Fatalf("%s: daemon (%d, %v), one-shard (%d, %v)", tag, did, dok, sid, sok)
		}
		return did
	}
	admitOn := func(k int) func(n node) (uint64, bool) {
		return func(n node) (uint64, bool) {
			res, err := n.Admit(testTypes[k%len(testTypes)])
			if err != nil {
				t.Fatal(err)
			}
			return res.ID, res.Admitted
		}
	}

	compare("boot")
	for k := 0; k < 4; k++ {
		id := both("admit", admitOn(k))
		if id == 0 {
			t.Fatal("admit rejected with headroom left")
		}
		live[id] = true
	}
	for id := range live {
		both("release", func(n node) (uint64, bool) {
			ok, err := n.Release(id)
			if err != nil {
				t.Fatal(err)
			}
			return id, ok
		})
		delete(live, id)
		break
	}
	compare("admit+release")

	prepare := func(txid string) func(n node) (uint64, bool) {
		return func(n node) (uint64, bool) {
			res, err := n.Prepare(testPrepare(txid))
			if err != nil {
				t.Fatal(err)
			}
			return uint64(res.Shard), res.Prepared
		}
	}
	both("prepare", prepare("tx-commit"))
	both("prepare", prepare("tx-abort"))
	compare("prepared")
	live[both("commit", func(n node) (uint64, bool) {
		res, err := n.CommitPrepared("tx-commit", 0)
		if err != nil {
			t.Fatal(err)
		}
		return res.ID, res.Committed
	})] = true
	both("abort", func(n node) (uint64, bool) {
		ok, err := n.AbortPrepared("tx-abort", 0)
		if err != nil {
			t.Fatal(err)
		}
		return 0, ok
	})
	compare("committed")

	// Fill the link: both reject at the same admit, having assigned the
	// same ids up to it.
	for k := 0; ; k++ {
		if k > 1000 {
			t.Fatal("link never filled")
		}
		id := both("fill", admitOn(k))
		if id == 0 {
			break
		}
		live[id] = true
	}
	compare("full")
}
