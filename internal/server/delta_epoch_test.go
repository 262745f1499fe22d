package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/ebb"
	"repro/internal/gpsmath"
)

// admitType admits one palette session and fails the test on any
// shed/reject (the configs here size the link so everything fits).
func admitType(t *testing.T, d *Daemon, k int) uint64 {
	t.Helper()
	res, err := d.Admit(testTypes[k%len(testTypes)])
	if err != nil {
		t.Fatalf("admit: %v", err)
	}
	if !res.Admitted {
		t.Fatalf("admit rejected: %s", res.Reason)
	}
	return res.ID
}

// checkEpochAgainstDirect recomputes every published count the slow
// way — ClassifyUnderRate for the revalidation counts, a fresh
// AnalyzeServer plus AdmissionDecision for TargetsMet — and requires
// exact agreement with the epoch's per-type folded bookkeeping.
func checkEpochAgainstDirect(t *testing.T, d *Daemon, ep *Epoch) {
	t.Helper()
	n := ep.Sessions()
	if n == 0 {
		if ep.TargetsMet != 0 || ep.Guaranteed != 0 || ep.Degraded != 0 || ep.Infeasible != 0 {
			t.Fatalf("epoch %d: empty epoch with nonzero counts", ep.Seq)
		}
		return
	}
	required := make([]float64, n)
	dmax := make([]float64, n)
	eps := make([]float64, n)
	for i := range ep.Server.Sessions {
		required[i] = ep.Server.Sessions[i].Phi
		dmax[i] = ep.Targets[i].Delay
		eps[i] = ep.Targets[i].Eps
	}
	rep, err := ep.Server.ClassifyUnderRate(required, d.Rate())
	if err != nil {
		t.Fatalf("epoch %d: ClassifyUnderRate: %v", ep.Seq, err)
	}
	g, dg, inf := rep.Counts()
	if g != ep.Guaranteed || dg != ep.Degraded || inf != ep.Infeasible {
		t.Fatalf("epoch %d: counts %d/%d/%d, direct ClassifyUnderRate says %d/%d/%d",
			ep.Seq, ep.Guaranteed, ep.Degraded, ep.Infeasible, g, dg, inf)
	}
	fresh, err := gpsmath.AnalyzeServer(ep.Server, *d.cfg.Opts)
	if err != nil {
		t.Fatalf("epoch %d: fresh AnalyzeServer: %v", ep.Seq, err)
	}
	_, probs, err := fresh.AdmissionDecision(dmax, eps)
	if err != nil {
		t.Fatalf("epoch %d: AdmissionDecision: %v", ep.Seq, err)
	}
	met := 0
	for i, p := range probs {
		if p <= eps[i] {
			met++
		}
	}
	if met != ep.TargetsMet {
		t.Fatalf("epoch %d: TargetsMet %d, direct AdmissionDecision says %d",
			ep.Seq, ep.TargetsMet, met)
	}
	// The sorted id index must invert IDs exactly.
	if len(ep.idsSorted) != n || len(ep.posSorted) != n {
		t.Fatalf("epoch %d: sorted index holds %d/%d entries, want %d", ep.Seq, len(ep.idsSorted), len(ep.posSorted), n)
	}
	for i, id := range ep.IDs {
		if j, ok := ep.IndexOf(id); !ok || j != i {
			t.Fatalf("epoch %d: IndexOf(%d) = %d, %v, want %d", ep.Seq, id, j, ok, i)
		}
	}
	// Published analysis must be the fresh analysis bit for bit.
	for i := 0; i < n; i++ {
		for _, q := range []float64{2, 30} {
			if math.Float64bits(ep.Analysis.BestBacklogTailValue(i, q)) !=
				math.Float64bits(fresh.BestBacklogTailValue(i, q)) {
				t.Fatalf("epoch %d session %d: backlog tail at %v differs from fresh", ep.Seq, i, q)
			}
		}
		if math.Float64bits(ep.Analysis.BestDelayTailValue(i, dmax[i])) !=
			math.Float64bits(fresh.BestDelayTailValue(i, dmax[i])) {
			t.Fatalf("epoch %d session %d: delay tail differs from fresh", ep.Seq, i)
		}
	}
}

// TestDeltaEpochChurnMatchesDirect drives seeded admit/release churn,
// publishing an epoch after every few ops so most publishes ride the
// incremental path, and pins every published count and sampled bound
// to the from-scratch computations.
func TestDeltaEpochChurnMatchesDirect(t *testing.T) {
	d := newTestDaemon(t, Config{Rate: 60, MaxEpochAge: time.Hour, MaxBatch: 1 << 30})
	rng := rand.New(rand.NewSource(43))
	var ids []uint64
	for step := 0; step < 160; step++ {
		if len(ids) < 3 || (len(ids) < 24 && rng.Intn(2) == 0) {
			ids = append(ids, admitType(t, d, rng.Intn(len(testTypes))))
		} else {
			k := rng.Intn(len(ids))
			ok, err := d.Release(ids[k])
			if err != nil || !ok {
				t.Fatalf("release: ok=%v err=%v", ok, err)
			}
			ids[k] = ids[len(ids)-1]
			ids = ids[:len(ids)-1]
		}
		if step%3 == 2 {
			ep := forceRebuild(t, d)
			if ep.Sessions() != len(ids) {
				t.Fatalf("step %d: epoch has %d sessions, want %d", step, ep.Sessions(), len(ids))
			}
			checkEpochAgainstDirect(t, d, ep)
		}
	}
	if d.met.DeltaRebuilds.Load() == 0 {
		t.Error("churn never exercised the incremental path")
	}
	if f := d.met.SelfCheckFailures.Load(); f != 0 {
		t.Errorf("self-check failures: %d", f)
	}
}

// TestTypeFoldOscillatingChurn pins the per-type target fold across
// epochs whose population oscillates by one session of one type: every
// publish re-evaluates each type once, and the folded counts stay exact
// against the per-session AdmissionDecision.
func TestTypeFoldOscillatingChurn(t *testing.T) {
	d := newTestDaemon(t, Config{Rate: 80, MaxEpochAge: time.Hour, MaxBatch: 1 << 30})
	for k := range testTypes {
		admitType(t, d, k)
		admitType(t, d, k)
	}
	checkEpochAgainstDirect(t, d, forceRebuild(t, d))
	for round := 0; round < 6; round++ {
		id := admitType(t, d, round%len(testTypes))
		checkEpochAgainstDirect(t, d, forceRebuild(t, d))
		if ok, err := d.Release(id); err != nil || !ok {
			t.Fatalf("release: ok=%v err=%v", ok, err)
		}
		checkEpochAgainstDirect(t, d, forceRebuild(t, d))
	}
}

// TestPerOpDeltaPublish runs the daemon with MaxBatch 1 — every
// mutation publishes an epoch — and checks the publishes ride the
// incremental path.
func TestPerOpDeltaPublish(t *testing.T) {
	d := newTestDaemon(t, Config{Rate: 60, MaxBatch: 1, MaxEpochAge: time.Hour})
	var ids []uint64
	for k := 0; k < 12; k++ {
		ids = append(ids, admitType(t, d, k))
	}
	for _, id := range ids[:6] {
		if ok, err := d.Release(id); err != nil || !ok {
			t.Fatalf("release: ok=%v err=%v", ok, err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		ep := d.CurrentEpoch()
		if ep.Sessions() == 6 && !d.CurrentEpoch().BuiltAt.IsZero() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("epoch never caught up: %d sessions", ep.Sessions())
		}
		time.Sleep(time.Millisecond)
	}
	if d.met.DeltaRebuilds.Load() == 0 {
		t.Fatal("per-op publishing never used the incremental path")
	}
	ep := forceRebuild(t, d)
	checkEpochAgainstDirect(t, d, ep)
}

// TestSelfCheckRuns forces the self-check on every delta epoch and
// requires it to pass (the delta path is bit-identical).
func TestSelfCheckRuns(t *testing.T) {
	d := newTestDaemon(t, Config{Rate: 60, MaxEpochAge: time.Hour, MaxBatch: 1 << 30, SelfCheckEvery: 1})
	var ids []uint64
	for k := 0; k < 8; k++ {
		ids = append(ids, admitType(t, d, k))
		forceRebuild(t, d)
	}
	for _, id := range ids[:4] {
		if ok, err := d.Release(id); err != nil || !ok {
			t.Fatalf("release: ok=%v err=%v", ok, err)
		}
		forceRebuild(t, d)
	}
	if d.met.SelfChecks.Load() == 0 {
		t.Fatal("self-check never ran")
	}
	if f := d.met.SelfCheckFailures.Load(); f != 0 {
		t.Fatalf("self-check failures: %d", f)
	}
}

// TestDeltaBatchLargerThanPopulation publishes a batch of admits and
// releases larger than the population it lands on: the analyzer
// carries it in one refresh — one ordering repair or sort, no
// from-scratch rebuild — and the epoch matches the direct
// recomputations.
func TestDeltaBatchLargerThanPopulation(t *testing.T) {
	d := newTestDaemon(t, Config{Rate: 80, MaxEpochAge: time.Hour, MaxBatch: 1 << 30})
	var ids []uint64
	for k := 0; k < 6; k++ {
		ids = append(ids, admitType(t, d, k))
	}
	forceRebuild(t, d)
	orderings := func() uint64 {
		var n uint64
		if err := d.exec(func() { st := d.delta.Stats(); n = st.OrderRepairs + st.OrderSorts }); err != nil {
			t.Fatal(err)
		}
		return n
	}
	full0, ord0 := d.met.FullRebuilds.Load(), orderings()
	rng := rand.New(rand.NewSource(7))
	for op := 0; op < 16; op++ {
		if op%3 != 2 {
			ids = append(ids, admitType(t, d, rng.Intn(len(testTypes))))
			continue
		}
		k := rng.Intn(len(ids))
		if ok, err := d.Release(ids[k]); err != nil || !ok {
			t.Fatalf("release: ok=%v err=%v", ok, err)
		}
		ids[k] = ids[len(ids)-1]
		ids = ids[:len(ids)-1]
	}
	ep := forceRebuild(t, d)
	if !ep.Delta {
		t.Error("16-op batch over 6 sessions did not publish through the analyzer")
	}
	if full := d.met.FullRebuilds.Load(); full != full0 {
		t.Errorf("full rebuilds went %d -> %d", full0, full)
	}
	if got := orderings() - ord0; got != 1 {
		t.Errorf("batch took %d ordering repairs+sorts, want 1", got)
	}
	if ep.Sessions() != len(ids) {
		t.Fatalf("epoch has %d sessions, want %d", ep.Sessions(), len(ids))
	}
	checkEpochAgainstDirect(t, d, ep)
}

// TestIndexBatchesUnderChurn publishes seeded batches of 1 to 40 ops
// over populations that swing between empty and ~30 sessions, so
// releases move sessions below the batch's low-water mark, sometimes
// twice, and pins every epoch's sorted index and counts to the direct
// recomputations.
func TestIndexBatchesUnderChurn(t *testing.T) {
	d := newTestDaemon(t, Config{Rate: 80, MaxEpochAge: time.Hour, MaxBatch: 1 << 30})
	rng := rand.New(rand.NewSource(2026))
	var ids []uint64
	for batch := 0; batch < 40; batch++ {
		for op := 1 + rng.Intn(40); op > 0; op-- {
			if len(ids) == 0 || (len(ids) < 30 && rng.Intn(2) == 0) {
				ids = append(ids, admitType(t, d, rng.Intn(len(testTypes))))
				continue
			}
			k := rng.Intn(len(ids))
			if ok, err := d.Release(ids[k]); err != nil || !ok {
				t.Fatalf("release: ok=%v err=%v", ok, err)
			}
			ids[k] = ids[len(ids)-1]
			ids = ids[:len(ids)-1]
		}
		ep := forceRebuild(t, d)
		if ep.Sessions() != len(ids) {
			t.Fatalf("batch %d: epoch has %d sessions, want %d", batch, ep.Sessions(), len(ids))
		}
		checkEpochAgainstDirect(t, d, ep)
	}
	if f := d.met.FullRebuilds.Load(); f != 1 {
		t.Errorf("%d full rebuilds, want only the boot one", f)
	}
}

// TestFailedPublishIsVisible drops a shard's capacity below its Σρ, so
// both the analyzer refresh and the verified constructor refuse the
// population: Rebuild must return the refusal, Health and /healthz
// must read degraded, and the failure counter must move — until the
// capacity comes back and a publish succeeds.
func TestFailedPublishIsVisible(t *testing.T) {
	s := newTestSharded(t, Config{Rate: 60, MaxEpochAge: time.Hour, MaxBatch: 1 << 30}, 1)
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()
	for k := 0; k < 16; k++ {
		if res, err := s.Admit(testTypes[k%len(testTypes)]); err != nil || !res.Admitted {
			t.Fatalf("admit %d: admitted=%v err=%v", k, res.Admitted, err)
		}
	}
	if err := s.Rebuild(); err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	d := s.Shard(0)
	healthz := func() string {
		t.Helper()
		r, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		var body map[string]any
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil || r.StatusCode != http.StatusOK {
			t.Fatalf("healthz: status %d, decode %v", r.StatusCode, err)
		}
		return body["status"].(string)
	}
	setCapacity := func(c float64) {
		t.Helper()
		if err := d.exec(func() { d.capacity, d.capDirty = c, true }); err != nil {
			t.Fatal(err)
		}
	}
	capacity := d.Capacity()
	seq, fails := d.CurrentEpoch().Seq, d.met.RebuildFailures.Load()
	sumRho := 0.0
	for _, sess := range d.CurrentEpoch().Server.Sessions {
		sumRho += sess.Arrival.Rho
	}
	setCapacity(sumRho / 2)
	err := s.Rebuild()
	if !errors.Is(err, ErrPublish) || !errors.Is(err, gpsmath.ErrOverloaded) {
		t.Fatalf("rebuild under Σρ: err = %v, want ErrPublish wrapping ErrOverloaded", err)
	}
	if !s.Health().Degraded || !d.Health().Degraded {
		t.Error("Health not degraded after a failed publish")
	}
	if got := healthz(); got != "degraded" {
		t.Errorf("healthz status %q, want degraded", got)
	}
	if got := d.met.RebuildFailures.Load(); got != fails+1 {
		t.Errorf("rebuild failures %d, want %d", got, fails+1)
	}
	if got := d.CurrentEpoch().Seq; got != seq {
		t.Errorf("failed publish moved the epoch %d -> %d", seq, got)
	}
	setCapacity(capacity)
	if err := s.Rebuild(); err != nil {
		t.Fatalf("rebuild after restoring capacity: %v", err)
	}
	if s.Health().Degraded {
		t.Error("Health still degraded after a successful publish")
	}
	if got := healthz(); got != "ok" {
		t.Errorf("healthz status %q after recovery, want ok", got)
	}
	checkEpochAgainstDirect(t, d, d.CurrentEpoch())
}

// TestBoundsForSharedEvaluation pins BoundsFor's single evaluation at
// the default points: the shared value must equal each of the three
// separate Best* calls it replaces, and the unpruned best-of-routes min,
// bit for bit. Explicit points — differing from the defaults or equal
// to them — must match their own separate calls.
func TestBoundsForSharedEvaluation(t *testing.T) {
	for _, opts := range []*gpsmath.Options{
		nil, // the daemon default: Theorem 7, ξ-optimal
		{Independent: false, Xi: gpsmath.XiOne},
	} {
		d := newTestDaemon(t, Config{Rate: 12, MaxEpochAge: time.Hour, MaxBatch: 1 << 30, Opts: opts})
		for k := 0; k < 24; k++ {
			admitType(t, d, k)
		}
		ep := forceRebuild(t, d)
		an := ep.Analysis
		// unpruned is the min of the two routes with every route
		// evaluated, as Best* computed it before the Lemma 6 floor.
		unpruned := func(i int, x float64, delay bool) float64 {
			pb, ob := an.PartitionBound(i), an.OrderingBound(i)
			v, w := pb.BacklogTail(x), ob.BacklogTail(x)
			if delay {
				v, w = pb.DelayTail(x), ob.DelayTail(x)
			}
			if w < v {
				return w
			}
			return v
		}
		same := func(id uint64, field string, got, want float64) {
			t.Helper()
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("session %d %s = %v (%x), want %v (%x)", id, field,
					got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
		for _, id := range ep.IDs {
			i, _ := ep.IndexOf(id)
			tg := ep.Targets[i]
			g := an.PartitionBound(i).G
			rep, ok := ep.BoundsFor(id, 0, 0)
			if !ok {
				t.Fatalf("session %d missing from its epoch", id)
			}
			qDef := g * tg.Delay
			same(id, "AchievedEps", rep.AchievedEps, an.BestDelayTailValue(i, tg.Delay))
			same(id, "BacklogProb", rep.BacklogProb, an.BestBacklogTailValue(i, qDef))
			same(id, "DelayProb", rep.DelayProb, an.BestDelayTailValue(i, tg.Delay))
			same(id, "AchievedEps (unpruned)", rep.AchievedEps, unpruned(i, tg.Delay, true))
			same(id, "BacklogProb (unpruned)", rep.BacklogProb, unpruned(i, qDef, false))
			for _, pt := range [][2]float64{{2, 30}, {qDef, tg.Delay}, {qDef / 3, tg.Delay}, {qDef, tg.Delay / 3}} {
				rep, _ := ep.BoundsFor(id, pt[0], pt[1])
				same(id, "explicit BacklogProb", rep.BacklogProb, an.BestBacklogTailValue(i, pt[0]))
				same(id, "explicit DelayProb", rep.DelayProb, an.BestDelayTailValue(i, pt[1]))
				same(id, "explicit AchievedEps", rep.AchievedEps, an.BestDelayTailValue(i, tg.Delay))
				same(id, "explicit BacklogProb (unpruned)", rep.BacklogProb, unpruned(i, pt[0], false))
				same(id, "explicit DelayProb (unpruned)", rep.DelayProb, unpruned(i, pt[1], true))
			}
		}
	}
}

// commitCluster admits req through the cluster two-phase path, which
// reserves the coordinator's weight phi instead of the required rate a
// direct admit reserves.
func commitCluster(t *testing.T, d *Daemon, txid string, req AdmitRequest, phi float64) uint64 {
	t.Helper()
	res, err := d.Prepare(PrepareRequest{TxID: txid, Name: req.Name, Arrival: req.Arrival,
		Target: req.Target, Phi: phi, TTL: time.Minute})
	if err != nil || !res.Prepared {
		t.Fatalf("prepare %s: %+v, %v", txid, res, err)
	}
	cr, err := d.CommitPrepared(txid, res.Shard)
	if err != nil || !cr.Committed {
		t.Fatalf("commit %s: %+v, %v", txid, cr, err)
	}
	return cr.ID
}

// TestTypeFoldSeparatesWeights admits one (arrival, target) twice: once
// directly, at φ = its required rate, and once through a cluster commit,
// at the coordinator's φ = ρ. The two sessions have different bounds, so
// they are two types: the per-type counts and the per-session reads must
// agree with the direct recomputations.
func TestTypeFoldSeparatesWeights(t *testing.T) {
	req := AdmitRequest{Name: "tree session", Arrival: ebb.Process{Rho: 0.25, Lambda: 1, Alpha: 0.9},
		Target: admission.Target{Delay: 50, Eps: 1e-3}}
	d := newTestDaemon(t, Config{Rate: 0.52, MaxEpochAge: time.Hour, MaxBatch: 1 << 30})
	if res, err := d.Admit(req); err != nil || !res.Admitted {
		t.Fatalf("admit: %+v, %v", res, err)
	}
	commitCluster(t, d, "tx-phi", req, req.Arrival.Rho)
	ep := forceRebuild(t, d)
	if ep.Sessions() != 2 {
		t.Fatalf("epoch holds %d sessions, want 2", ep.Sessions())
	}
	if ep.Server.Sessions[0].Phi == ep.Server.Sessions[1].Phi {
		t.Fatal("both paths reserved one weight; the test needs two")
	}
	checkEpochAgainstDirect(t, d, ep)
	checkReadsAgainstFresh(t, d, ep)
	if ep.TargetsMet != 1 {
		t.Errorf("TargetsMet = %d, want 1: only the direct admit's weight meets the target", ep.TargetsMet)
	}
}

// checkReadsAgainstFresh requires every session's default-point read to
// be a fresh AnalyzeServer's best-of-routes values, bit for bit.
func checkReadsAgainstFresh(t *testing.T, d *Daemon, ep *Epoch) {
	t.Helper()
	fresh, err := gpsmath.AnalyzeServer(ep.Server, *d.cfg.Opts)
	if err != nil {
		t.Fatalf("epoch %d: fresh AnalyzeServer: %v", ep.Seq, err)
	}
	for i, id := range ep.IDs {
		rep, ok := ep.BoundsFor(id, 0, 0)
		if !ok {
			t.Fatalf("epoch %d: session %d not served", ep.Seq, id)
		}
		tg := ep.Targets[i]
		delay := fresh.BestDelayTailValue(i, tg.Delay)
		backlog := fresh.BestBacklogTailValue(i, fresh.PartitionBound(i).G*tg.Delay)
		for _, c := range []struct {
			field     string
			got, want float64
		}{
			{"AchievedEps", rep.AchievedEps, delay},
			{"DelayProb", rep.DelayProb, delay},
			{"BacklogProb", rep.BacklogProb, backlog},
		} {
			if math.Float64bits(c.got) != math.Float64bits(c.want) {
				t.Fatalf("epoch %d session %d (index %d): %s = %v, fresh analysis says %v",
					ep.Seq, id, i, c.field, c.got, c.want)
			}
		}
	}
}

// typePalette returns k declared session types: the four test types
// for k = 4, the first of them for k = 1, and otherwise k types whose
// rates step like gpsdbench's 64-type sharded palette.
func typePalette(k int) []AdmitRequest {
	switch k {
	case 1:
		return testTypes[:1]
	case 4:
		return testTypes
	}
	reqs := make([]AdmitRequest, k)
	for j := range reqs {
		reqs[j] = AdmitRequest{Name: "palette",
			Arrival: ebb.Process{Rho: 0.04 + 0.0005*float64(j), Lambda: 1, Alpha: 1.2},
			Target:  admission.Target{Delay: 40, Eps: 1e-3}}
	}
	return reqs
}

// TestBoundsForTypeShared pins every default-point read, served from
// its type's shared partition-route value, to a fresh analysis's
// per-session evaluation: palettes of 1, 4 and 64 types with many
// members each, cluster-committed members sharing (arrival, target)
// with direct admits, seeded churn over several publishes, and an
// epoch whose self-check adopts a fresh analysis.
func TestBoundsForTypeShared(t *testing.T) {
	for _, k := range []int{1, 4, 64} {
		t.Run(fmt.Sprintf("palette%d", k), func(t *testing.T) {
			reqs := typePalette(k)
			const population = 320
			used := 0.0
			for j, req := range reqs {
				g, err := admission.RequiredRate(req.Arrival, req.Target)
				if err != nil {
					t.Fatal(err)
				}
				used += g * float64(population/len(reqs)+min(j, 1))
			}
			d := newTestDaemon(t, Config{Rate: used / 0.75, MaxEpochAge: time.Hour, MaxBatch: 1 << 30,
				SelfCheckEvery: -1})
			rng := rand.New(rand.NewSource(int64(k)))
			var ids []uint64
			tx := 0
			step := func() {
				req := reqs[rng.Intn(len(reqs))]
				switch r := rng.Intn(8); {
				case len(ids) > population || (r < 3 && len(ids) > 0):
					x := rng.Intn(len(ids))
					if ok, err := d.Release(ids[x]); err != nil || !ok {
						t.Fatalf("release: ok=%v err=%v", ok, err)
					}
					ids[x] = ids[len(ids)-1]
					ids = ids[:len(ids)-1]
				case r == 3:
					tx++
					ids = append(ids, commitCluster(t, d, fmt.Sprintf("tx-%d", tx), req, req.Arrival.Rho))
				default:
					res, err := d.Admit(req)
					if err != nil || !res.Admitted {
						t.Fatalf("admit: %+v, %v", res, err)
					}
					ids = append(ids, res.ID)
				}
			}
			for len(ids) < population {
				step()
			}
			for publish := 0; publish < 6; publish++ {
				for op := rng.Intn(60); op >= 0; op-- {
					step()
				}
				ep := forceRebuild(t, d)
				checkReadsAgainstFresh(t, d, ep)
				checkEpochAgainstDirect(t, d, ep)
			}
			// A self-check that finds the epoch's analysis wrong adopts a
			// fresh one: its reads must come from the fresh analysis too.
			var adopted *Epoch
			if err := d.exec(func() {
				cur := d.epoch.Load()
				wrong, err := gpsmath.AnalyzeServer(cur.Server, gpsmath.Options{Xi: gpsmath.XiOne, SlackFraction: 0.5})
				if err != nil {
					t.Error(err)
					return
				}
				adopted = &Epoch{Seq: cur.Seq, Server: cur.Server, Analysis: wrong, IDs: cur.IDs,
					Targets: cur.Targets, idsSorted: cur.idsSorted, posSorted: cur.posSorted}
				d.countTargets(adopted)
				d.selfCheck(adopted)
			}); err != nil || adopted == nil {
				t.Fatalf("self-check on the writer: %v", err)
			}
			if d.met.SelfCheckFailures.Load() != 1 {
				t.Fatal("the self-check did not refuse the wrong analysis")
			}
			checkReadsAgainstFresh(t, d, adopted)
		})
	}
}

// TestBoundsForOrderingWins builds, through cluster commits at weights
// that ignore the rates, a population of two-member types in which the
// ordering route beats the type's shared partition-route value for one
// member: every read must still equal a fresh analysis's per-session
// best-of-routes value. gpsd's own weight rules (φ = required rate, or
// φ = ρ) give the ordering route no win at the populations the other
// tests build, so this is the case that checks BoundsFor's per-session
// ordering-route step.
func TestBoundsForOrderingWins(t *testing.T) {
	rng := rand.New(rand.NewSource(233))
	d := newTestDaemon(t, Config{Rate: 1, MaxEpochAge: time.Hour, MaxBatch: 1 << 30, SelfCheckEvery: -1})
	const members = 2
	types := 2 + rng.Intn(4)
	load := 0.5 + 0.49*rng.Float64()
	w, phi := make([]float64, types), make([]float64, types)
	sumW, sumPhi := 0.0, 0.0
	for k := range w {
		w[k] = math.Exp(4 * (rng.Float64() - 0.5))
		phi[k] = math.Exp(6 * (rng.Float64() - 0.5))
		sumW += w[k]
		sumPhi += phi[k]
	}
	var ids []uint64
	reqs := make([]AdmitRequest, types)
	for k := range reqs {
		reqs[k] = AdmitRequest{Name: "weighted",
			Arrival: ebb.Process{Rho: load * w[k] / sumW / members,
				Lambda: math.Exp(4 * (rng.Float64() - 0.5)), Alpha: math.Exp(3 * (rng.Float64() - 0.5))},
			Target: admission.Target{Delay: []float64{10, 100, 1000}[rng.Intn(3)], Eps: 1e-3}}
		phi[k] *= 0.98 / sumPhi / members
		for m := 0; m < members; m++ {
			ids = append(ids, commitCluster(t, d, fmt.Sprintf("tx-%d-%d", k, m), reqs[k], phi[k]))
		}
	}
	wins := 0
	for round := 0; round < 3; round++ {
		ep := forceRebuild(t, d)
		checkReadsAgainstFresh(t, d, ep)
		checkEpochAgainstDirect(t, d, ep)
		an := ep.Analysis
		for i := range ep.IDs {
			dl := ep.Targets[i].Delay
			if an.BestDelayTailValue(i, dl) < an.PartitionBound(i).DelayTail(dl) {
				wins++
			}
		}
		// Re-admit a released member: the pair trades ordering positions.
		k := round % types
		if ok, err := d.Release(ids[k*members]); err != nil || !ok {
			t.Fatalf("release: ok=%v err=%v", ok, err)
		}
		ids[k*members] = commitCluster(t, d, fmt.Sprintf("tx-re-%d", round), reqs[k], phi[k])
	}
	if wins == 0 {
		t.Fatal("the ordering route won for no session: the population no longer checks the per-session step")
	}
}
