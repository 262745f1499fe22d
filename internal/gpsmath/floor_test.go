package gpsmath

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/ebb"
	"repro/internal/numeric"
	"repro/internal/source"
)

// This file pins the Lemma 6 floor that lets the best-of-routes min skip
// the ordering route (DESIGN §16): the floor never claims more than a
// prefactor delivers, skipping never changes a returned bit (against the
// unpruned oracle in reference_test.go), and at gpsd's populations it
// actually fires.

// benchType is one declared session type of the gpsdbench palettes.
type benchType struct {
	arr        ebb.Process
	delay, eps float64
}

var (
	// palette4 is gpsdload's four service classes (node-churn).
	palette4 = []benchType{
		{ebb.Process{Rho: 0.05, Lambda: 1, Alpha: 2}, 20, 1e-4},
		{ebb.Process{Rho: 0.30, Lambda: 2, Alpha: 0.8}, 40, 1e-3},
		{ebb.Process{Rho: 0.10, Lambda: 1.5, Alpha: 1.2}, 80, 1e-2},
		{ebb.Process{Rho: 0.20, Lambda: 1, Alpha: 0.5}, 160, 5e-2},
	}
	// palette1 is BenchmarkEpochDelta's single type (node-131k).
	palette1 = []benchType{{ebb.Process{Rho: 0.05, Lambda: 1, Alpha: 1.2}, 40, 1e-3}}
	// palette64 is BenchmarkAdmitThroughputSharded's 64 types
	// (node-sharded-read).
	palette64 = func() []benchType {
		p := make([]benchType, 64)
		for k := range p {
			p[k] = benchType{ebb.Process{Rho: 0.04 + 0.0005*float64(k), Lambda: 1, Alpha: 1.2}, 40, 1e-3}
		}
		return p
	}()
)

// requiredRate mirrors admission.RequiredRate, which imports this
// package and so is out of reach of its tests: the smallest rate whose
// discrete Lemma 5 tail meets eps at delay d.
func requiredRate(t testing.TB, p ebb.Process, d, eps float64) float64 {
	t.Helper()
	f := func(g float64) float64 {
		tail, err := p.DeltaTailDiscrete(g)
		if err != nil {
			return math.Inf(1)
		}
		return math.Log(tail.EvalRaw(g*d)) - math.Log(eps)
	}
	hi, err := numeric.BracketUp(f, p.Rho, math.Max(p.Rho/4, 1e-3))
	if err != nil {
		t.Fatal(err)
	}
	g, err := numeric.Bisect(f, p.Rho+1e-12, hi, 1e-12*math.Max(1, hi))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// gpsdServer builds a population the way gpsd holds one: n sessions of
// seeded-random palette types, each weighted by its required rate, on a
// link loaded to load (Σφ over the rate). It returns each session's
// declared target delay alongside.
func gpsdServer(t testing.TB, palette []benchType, n int, load float64, seed uint64) (Server, []float64) {
	t.Helper()
	gs := make([]float64, len(palette))
	for k, bt := range palette {
		gs[k] = requiredRate(t, bt.arr, bt.delay, bt.eps)
	}
	rng := source.NewRNG(seed)
	srv := Server{Sessions: make([]Session, n)}
	delays := make([]float64, n)
	used := 0.0
	for i := range srv.Sessions {
		k := rng.Intn(len(palette))
		srv.Sessions[i] = Session{Name: fmt.Sprint(k), Phi: gs[k], Arrival: palette[k].arr}
		delays[i] = palette[k].delay
		used += gs[k]
	}
	srv.Rate = used / load
	return srv, delays
}

// multiClassServer draws a small population whose weights ignore the
// rates, so ρ/φ ratios straddle the partition thresholds and the
// ordering route's prefactor stays finite often enough to win.
func multiClassServer(rng *source.RNG) Server {
	n := 1 + rng.Intn(16)
	srv := Server{Rate: 1}
	load := 0.3 + 0.65*rng.Float64()
	w := make([]float64, n)
	total := 0.0
	for i := range w {
		w[i] = 0.1 + rng.Float64()
		total += w[i]
	}
	for i := range w {
		srv.Sessions = append(srv.Sessions, Session{
			Name: fmt.Sprint(i),
			Phi:  0.05 + rng.Float64(),
			Arrival: ebb.Process{
				Rho: load * w[i] / total, Lambda: 0.05 + 2*rng.Float64(), Alpha: 0.3 + 3*rng.Float64(),
			},
		})
	}
	return srv
}

// floorOptions are the four theorem/ξ combinations the floor covers.
var floorOptions = []Options{
	{Independent: true, Xi: XiOptimal},
	{Independent: true, Xi: XiOne},
	{Independent: false, Xi: XiOptimal},
	{Independent: false, Xi: XiOne},
}

// builds returns the analysis of one server from AnalyzeServer and from
// a NewDeltaAnalyzer, whose verified build is AnalyzeServer too: the
// pair checks the constructor against itself, through both entry
// points.
func builds(t testing.TB, srv Server, opts Options) [2]*Analysis {
	t.Helper()
	fresh, err := AnalyzeServer(srv, opts)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDeltaAnalyzer(srv, opts)
	if err != nil {
		t.Fatal(err)
	}
	return [2]*Analysis{fresh, d.Analysis()}
}

// specialLevels are the edge evaluation points: zero, NaN, +Inf, huge
// and negative.
var specialLevels = []float64{0, math.NaN(), math.Inf(1), 1e300, -1}

// checkOracle pins session i's pruned Best* values to the unpruned
// oracle at every level in qs (backlog) and ds (delay).
func checkOracle(t *testing.T, tag string, an *Analysis, i int, qs, ds []float64) {
	t.Helper()
	for _, q := range qs {
		if got, want := an.BestBacklogTailValue(i, q), an.bestBacklogTailRef(i, q); !sameBits(got, want) {
			t.Fatalf("%s: session %d BestBacklogTailValue(%v) = %v (%x), oracle %v (%x)",
				tag, i, q, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	for _, d := range ds {
		if got, want := an.BestDelayTailValue(i, d), an.bestDelayTailRef(i, d); !sameBits(got, want) {
			t.Fatalf("%s: session %d BestDelayTailValue(%v) = %v (%x), oracle %v (%x)",
				tag, i, d, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

// minWithCase pins b.minWith to the unpruned min at level q for
// partition values around b's own value w — equal, one ulp either
// side, a factor 2 either side — and at the extremes. It reports how
// many of them the floor pruned and how many b won.
func minWithCase(t *testing.T, tag string, b *SessionBounds, q float64) (pruned, won int) {
	t.Helper()
	w := b.BacklogTail(q)
	for _, p := range []float64{
		0, w, math.Nextafter(w, 0), math.Nextafter(w, 2), w / 2, 2 * w,
		1, 1e-12, math.Inf(1), math.NaN(),
	} {
		want := p
		if w < p {
			want = w
		}
		if got := b.minWith(p, q); !sameBits(got, want) {
			t.Fatalf("%s: minWith(p=%v, q=%v) = %v (%x), unpruned %v (%x); family value %v",
				tag, p, q, got, math.Float64bits(got), want, math.Float64bits(want), w)
		}
		if b.cannotBeat(q, p) {
			pruned++
		}
		if want < p {
			won++
		}
	}
	return pruned, won
}

// TestLemma6FloorBelowPrefactor pins the floor itself: at every probed
// θ, the floor must refuse to certify a level just above the prefactor
// the family actually evaluates there — for both theorems and both ξ
// modes. A floor that overstated K (or dropped a Hölder power) would
// certify it.
func TestLemma6FloorBelowPrefactor(t *testing.T) {
	rng := source.NewRNG(61)
	checked := 0
	for trial := 0; trial < 60; trial++ {
		srv := multiClassServer(rng)
		for _, opts := range floorOptions {
			an, err := AnalyzeServer(srv, opts)
			if err != nil {
				continue
			}
			for pos, i := range an.Ordering {
				b := an.OrderingBound(i)
				if b.floor.m == nil {
					t.Fatalf("trial %d %+v pos %d: ordering bound carries no floor", trial, opts, pos)
				}
				for _, frac := range []float64{1e-6, 1e-3, 0.1, 0.3, 0.5, 0.7, 0.9, 0.999, 1 - 1e-9} {
					lam := b.Prefactor(frac * b.ThetaMax)
					if math.IsInf(lam, 1) {
						continue
					}
					l := math.Log(lam)
					if b.floor.reaches(l + 1e-9*math.Max(1, math.Abs(l))) {
						t.Fatalf("trial %d %+v pos %d: floor certifies log Λ >= %v but Λ(%v·θmax) = %v",
							trial, opts, pos, l, frac, lam)
					}
					checked++
				}
			}
		}
	}
	if checked < 1000 {
		t.Fatalf("only %d finite prefactors probed", checked)
	}
}

// TestFloorMatchesOracle is the pruning's differential gate: every
// Best* value, every AdmissionDecision verdict and probability, and
// every minWith result equals the unpruned oracle bit for bit — over
// random multi-class populations with φ unrelated to the required rate,
// both theorems and both ξ modes, both constructor entry points, explicit
// Hölder exponents, the special levels 0, NaN, +Inf, huge and negative,
// and samples of the three gpsdbench populations.
func TestFloorMatchesOracle(t *testing.T) {
	t.Run("multi-class", func(t *testing.T) {
		rng := source.NewRNG(62)
		trials := 24
		if raceEnabled || testing.Short() {
			trials = 8
		}
		multi, pruned, won := 0, 0, 0
		for trial := 0; trial < trials; trial++ {
			srv := multiClassServer(rng)
			for _, opts := range floorOptions {
				if _, err := AnalyzeServer(srv, opts); err != nil {
					continue
				}
				for b, an := range builds(t, srv, opts) {
					tag := fmt.Sprintf("trial %d %+v build %d", trial, opts, b)
					if an.Partition.L() > 1 {
						multi++
					}
					n := len(srv.Sessions)
					dmax, eps := make([]float64, n), make([]float64, n)
					for i := range srv.Sessions {
						dmax[i] = []float64{1, 10, 40, math.Inf(1), 0}[rng.Intn(5)]
						eps[i] = []float64{1e-9, 1e-3, 0.1, 0.9, 1}[rng.Intn(5)]
						if i%4 != trial%4 {
							continue // a rotating quarter of the sessions
						}
						g := an.SessionG(i)
						checkOracle(t, tag, an, i, append([]float64{4, g * 10}, specialLevels...), append([]float64{10}, specialLevels...))
						ob := an.OrderingBound(i)
						for _, q := range []float64{0.5, 4, 32, g * 10} {
							pr, wn := minWithCase(t, tag, ob, q)
							pruned += pr
							won += wn
						}
					}
					ok, probs, err := an.AdmissionDecision(dmax, eps)
					if err != nil {
						t.Fatal(err)
					}
					wantOK, wantProbs := an.admissionDecisionRef(dmax, eps)
					if ok != wantOK {
						t.Fatalf("%s: AdmissionDecision ok = %v, oracle %v", tag, ok, wantOK)
					}
					for i := range probs {
						if !sameBits(probs[i], wantProbs[i]) {
							t.Fatalf("%s: AdmissionDecision probs[%d] = %v, oracle %v", tag, i, probs[i], wantProbs[i])
						}
					}
				}
			}
		}
		if multi == 0 || pruned == 0 || won == 0 {
			t.Fatalf("matrix too narrow: %d multi-class analyses, %d pruned, %d ordering wins", multi, pruned, won)
		}
		t.Logf("%d multi-class analyses, %d pruned minWith cases, %d ordering-route wins", multi, pruned, won)
	})
	t.Run("explicit-holder", func(t *testing.T) {
		// Explicit exponents carry no floor, so these mins evaluate the
		// family (except against p = 0, which nothing undercuts).
		rng := source.NewRNG(63)
		for trial := 0; trial < 6; trial++ {
			srv := multiClassServer(rng)
			an, err := AnalyzeServer(srv, Options{Xi: XiOptimal})
			if err != nil {
				continue
			}
			for pos := range an.Ordering {
				k := pos + 1
				ps := make([]float64, k)
				for idx := range ps {
					ps[idx] = float64(k)
				}
				for _, mode := range []XiMode{XiOptimal, XiOne} {
					b, err := srv.Theorem8(an.Ordering, an.Rates, pos, ps, mode)
					if err != nil {
						t.Fatal(err)
					}
					if b.floor != (lemma6Floor{}) {
						t.Fatalf("trial %d pos %d: explicit exponents got a floor %+v", trial, pos, b.floor)
					}
					for _, q := range []float64{0, 4, 1e300, math.Inf(1), math.NaN()} {
						minWithCase(t, fmt.Sprintf("trial %d pos %d %v", trial, pos, mode), b, q)
					}
				}
			}
		}
	})
	for _, pc := range []struct {
		name    string
		palette []benchType
		n       int
		load    float64
		both    bool
	}{
		// node-churn's population, and node-131k's; node-sharded-read
		// splits 50k sessions over two shards, each analyzing about 25k
		// at a ledger slice a little above its own Σφ.
		{"palette4-10k", palette4, 10_000, 0.75, true},
		{"palette64-25k", palette64, 25_000, 0.86, false},
		{"palette1-131k", palette1, 131_072, 0.75, false},
	} {
		t.Run(pc.name, func(t *testing.T) {
			if testing.Short() && pc.n > 10_000 {
				t.Skip("large population")
			}
			srv, delays := gpsdServer(t, pc.palette, pc.n, pc.load, uint64(pc.n))
			samples := 6
			if raceEnabled {
				samples = 2
			}
			// gpsd's options; the other three combinations are covered
			// above, where the oracle's unpruned Theorem 8 scans stay
			// affordable.
			opts := Options{Independent: true, Xi: XiOptimal}
			var ans []*Analysis
			if pc.both {
				b := builds(t, srv, opts)
				ans = b[:]
			} else {
				d, err := NewDeltaAnalyzer(srv, opts)
				if err != nil {
					t.Fatal(err)
				}
				ans = []*Analysis{d.Analysis()}
			}
			rng := source.NewRNG(64)
			for b, an := range ans {
				// The deepest and shallowest ordering positions, plus
				// random ones.
				idx := []int{an.Ordering[len(an.Ordering)-1], an.Ordering[0]}
				for len(idx) < samples {
					idx = append(idx, rng.Intn(pc.n))
				}
				for _, i := range idx {
					g := an.SessionG(i)
					checkOracle(t, fmt.Sprintf("%s build %d", pc.name, b), an, i,
						append([]float64{g * delays[i]}, specialLevels...), append([]float64{delays[i]}, specialLevels...))
				}
			}
		})
	}
}

// TestFloorFiresOnGpsdPopulation guards the point of the floor: on
// node-churn's population, at each session's default read point, the
// floor must rule the ordering route out for at least 99% of sessions.
// A change that silently defeated the prune would keep every bit and
// fail only a benchmark; this fails a test instead.
func TestFloorFiresOnGpsdPopulation(t *testing.T) {
	srv, delays := gpsdServer(t, palette4, 10_000, 0.75, 10_000)
	d, err := NewDeltaAnalyzer(srv, Options{Independent: true, Xi: XiOptimal})
	if err != nil {
		t.Fatal(err)
	}
	an := d.Analysis()
	rng := source.NewRNG(65)
	samples := 2000
	if raceEnabled {
		samples = 400
	}
	cleared := 0
	for k := 0; k < samples; k++ {
		i := rng.Intn(len(srv.Sessions))
		p := an.PartitionBound(i).DelayTail(delays[i])
		ob := an.OrderingBound(i)
		if ob.cannotBeat(ob.G*delays[i], p) {
			cleared++
		}
	}
	if cleared*100 < samples*99 {
		t.Fatalf("floor cleared %d of %d sampled sessions, want >= 99%%", cleared, samples)
	}
	t.Logf("floor cleared %d of %d sampled sessions", cleared, samples)
}
