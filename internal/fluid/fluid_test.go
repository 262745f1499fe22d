package fluid

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/ebb"
	"repro/internal/gpsmath"
	"repro/internal/source"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Rate: 0, Phi: []float64{1}}); err == nil {
		t.Error("zero rate: want error")
	}
	if _, err := New(Config{Rate: 1}); err == nil {
		t.Error("no sessions: want error")
	}
	if _, err := New(Config{Rate: 1, Phi: []float64{1, 0}}); err == nil {
		t.Error("zero phi: want error")
	}
	if _, err := New(Config{Rate: 1, Phi: []float64{1}, DecompRates: []float64{1, 2}}); err == nil {
		t.Error("mismatched decomp rates: want error")
	}
	if _, err := New(Config{Rate: math.NaN(), Phi: []float64{1}}); err == nil {
		t.Error("NaN rate: want error")
	}
}

func TestStepValidation(t *testing.T) {
	s, _ := New(Config{Rate: 1, Phi: []float64{1, 1}})
	if _, err := s.Step([]float64{1}); err == nil {
		t.Error("wrong arrival count: want error")
	}
	if _, err := s.Step([]float64{1, -1}); err == nil {
		t.Error("negative arrival: want error")
	}
	if _, err := s.Step([]float64{1, math.NaN()}); err == nil {
		t.Error("NaN arrival: want error")
	}
}

// Two equal-weight sessions, one unit each at slot 0: GPS serves both at
// rate 1/2, so each batch's last bit departs exactly at time 2.
func TestHandComputedTwoSessions(t *testing.T) {
	var delays []float64
	s, err := New(Config{
		Rate: 1, Phi: []float64{1, 1},
		OnDelay: func(i, slot int, d float64) { delays = append(delays, d) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Step([]float64{1, 1}); err != nil {
		t.Fatal(err)
	}
	// After slot 0 (time 1): each served 0.5, backlog 0.5 each.
	for i := 0; i < 2; i++ {
		if math.Abs(s.Backlog(i)-0.5) > 1e-12 {
			t.Errorf("backlog[%d] = %v, want 0.5", i, s.Backlog(i))
		}
	}
	if _, err := s.Step([]float64{0, 0}); err != nil {
		t.Fatal(err)
	}
	if len(delays) != 2 {
		t.Fatalf("%d delays recorded, want 2", len(delays))
	}
	for _, d := range delays {
		if math.Abs(d-2) > 1e-9 {
			t.Errorf("delay = %v, want 2", d)
		}
	}
}

// Weighted case: φ = (3, 1), 1 unit each. Session 0 drains at 3/4 and
// finishes at t = 4/3; session 1 then gets the full server and finishes at
// 4/3 + (1 - 1/3) = 2 — total work 2 at rate 1.
func TestHandComputedWeighted(t *testing.T) {
	var d0, d1 float64
	s, _ := New(Config{
		Rate: 1, Phi: []float64{3, 1},
		OnDelay: func(i, slot int, d float64) {
			if i == 0 {
				d0 = d
			} else {
				d1 = d
			}
		},
	})
	for k := 0; k < 3; k++ {
		arr := []float64{0, 0}
		if k == 0 {
			arr = []float64{1, 1}
		}
		if _, err := s.Step(arr); err != nil {
			t.Fatal(err)
		}
	}
	if math.Abs(d0-4.0/3) > 1e-9 {
		t.Errorf("session 0 delay = %v, want 4/3", d0)
	}
	if math.Abs(d1-2) > 1e-9 {
		t.Errorf("session 1 delay = %v, want 2", d1)
	}
}

func TestConservationAndWorkConserving(t *testing.T) {
	srcs := make([]*source.OnOff, 3)
	for i := range srcs {
		var err error
		srcs[i], err = source.NewOnOff(0.3, 0.4, 0.6, uint64(i+1))
		if err != nil {
			t.Fatal(err)
		}
	}
	s, _ := New(Config{Rate: 1, Phi: []float64{2, 1, 1}})
	arr := make([]float64, 3)
	for k := 0; k < 20000; k++ {
		preBacklog := 0.0
		for i := range arr {
			arr[i] = srcs[i].Next()
			preBacklog += s.Backlog(i) + arr[i]
		}
		served, err := s.Step(arr)
		if err != nil {
			t.Fatal(err)
		}
		// Work conservation: the slot serves min(work available, rate).
		want := math.Min(preBacklog, 1)
		if math.Abs(served-want) > 1e-9 {
			t.Fatalf("slot %d: served %v, want %v", k, served, want)
		}
	}
	for i := 0; i < 3; i++ {
		if diff := s.CumArrival(i) - s.CumService(i) - s.Backlog(i); math.Abs(diff) > 1e-6 {
			t.Errorf("session %d: conservation violated by %v", i, diff)
		}
	}
}

// Paper eq. (1): over an interval where session i stays backlogged,
// S_i(τ,t)/S_j(τ,t) >= φ_i/φ_j.
func TestGPSGuaranteeEq1(t *testing.T) {
	srcs := make([]*source.OnOff, 2)
	for i := range srcs {
		var err error
		srcs[i], err = source.NewOnOff(0.5, 0.2, 0.9, uint64(40+i))
		if err != nil {
			t.Fatal(err)
		}
	}
	phi := []float64{2, 1}
	s, _ := New(Config{Rate: 1, Phi: phi})
	type snap struct {
		s0, s1 float64
		busy0  bool
	}
	var snaps []snap
	arr := make([]float64, 2)
	for k := 0; k < 5000; k++ {
		for i := range arr {
			arr[i] = srcs[i].Next()
		}
		// Busy throughout the slot iff backlog is positive at the slot
		// start (after arrivals) and still positive at the end.
		pre0 := s.Backlog(0) + arr[0]
		if _, err := s.Step(arr); err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, snap{s0: s.CumService(0), s1: s.CumService(1), busy0: pre0 > 1e-9 && s.Backlog(0) > 1e-9})
	}
	for start := 0; start+50 < len(snaps); start += 97 {
		for end := start + 1; end < start+50; end++ {
			busy := true
			for k := start + 1; k <= end; k++ {
				if !snaps[k].busy0 {
					busy = false
					break
				}
			}
			if !busy {
				continue
			}
			ds0 := snaps[end].s0 - snaps[start].s0
			ds1 := snaps[end].s1 - snaps[start].s1
			if ds1 > 1e-12 && ds0/ds1 < phi[0]/phi[1]-1e-9 {
				t.Fatalf("eq.(1) violated on [%d,%d]: ratio %v < %v", start, end, ds0/ds1, phi[0]/phi[1])
			}
		}
	}
}

// innerRates returns decomposed rates r_i = ρ_i + ε that hand out 0.999
// of the slack, so the decomposed system keeps a margin below the link.
func innerRates(srv gpsmath.Server) []float64 {
	share := srv.Slack() * 0.999 / float64(len(srv.Sessions))
	rates := make([]float64, len(srv.Sessions))
	for i, s := range srv.Sessions {
		rates[i] = s.Arrival.Rho + share
	}
	return rates
}

// simForLemmas builds the paper's Set-1 RPPS server with the decomposed
// system enabled, running the Table 1 on-off sources.
func simForLemmas(t *testing.T, slots int) (*Sim, gpsmath.Server, []int, []float64) {
	t.Helper()
	arrivals := []ebb.Process{
		{Rho: 0.2, Lambda: 1.0, Alpha: 1.74},
		{Rho: 0.25, Lambda: 0.92, Alpha: 1.76},
		{Rho: 0.2, Lambda: 0.84, Alpha: 2.13},
		{Rho: 0.25, Lambda: 1.0, Alpha: 1.62},
	}
	srv := gpsmath.NewRPPSServer(1, arrivals, nil)
	rates := innerRates(srv)
	ord, err := srv.FeasibleOrdering(rates)
	if err != nil {
		t.Fatal(err)
	}
	phi := make([]float64, 4)
	for i, sess := range srv.Sessions {
		phi[i] = sess.Phi
	}
	sim, err := New(Config{Rate: 1, Phi: phi, DecompRates: rates})
	if err != nil {
		t.Fatal(err)
	}
	params := []struct{ p, q, l float64 }{
		{0.3, 0.7, 0.5}, {0.4, 0.4, 0.4}, {0.3, 0.3, 0.3}, {0.4, 0.6, 0.5},
	}
	srcs := make([]*source.OnOff, 4)
	for i, pr := range params {
		srcs[i], err = source.NewOnOff(pr.p, pr.q, pr.l, uint64(900+i))
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := sim.Run(slots, func(i int) float64 { return srcs[i].Next() }); err != nil {
		t.Fatal(err)
	}
	return sim, srv, ord, rates
}

// Lemma 1: along a feasible ordering, Σ_{j<=i} Q_j(t) <= Σ_{j<=i} δ_j(t).
// We check it at the end of a long run and at intermediate points.
func TestLemma1OnSamplePaths(t *testing.T) {
	arrivalsCheck := func(sim *Sim, ord []int) {
		sumQ, sumD := 0.0, 0.0
		for _, j := range ord {
			sumQ += sim.Backlog(j)
			sumD += sim.Delta(j)
			if sumQ > sumD+1e-6 {
				t.Fatalf("Lemma 1 violated at slot %d: sum Q %v > sum delta %v", sim.Slot(), sumQ, sumD)
			}
		}
	}
	sim, _, ord, _ := simForLemmas(t, 1000)
	arrivalsCheck(sim, ord)
	for k := 0; k < 200; k++ {
		if err := sim.Run(137, func(i int) float64 {
			// Deterministic continuation bursts to stress the system.
			if (sim.Slot()+i)%7 == 0 {
				return 0.5
			}
			return 0
		}); err != nil {
			t.Fatal(err)
		}
		arrivalsCheck(sim, ord)
	}
}

// Lemma 3: Q_i(t) <= δ_i(t) + ψ_i·Σ_{j before i} δ_j(t).
func TestLemma3OnSamplePaths(t *testing.T) {
	arrivals := []ebb.Process{
		{Rho: 0.2, Lambda: 1.0, Alpha: 1.74},
		{Rho: 0.25, Lambda: 0.92, Alpha: 1.76},
		{Rho: 0.2, Lambda: 0.84, Alpha: 2.13},
		{Rho: 0.25, Lambda: 1.0, Alpha: 1.62},
	}
	srv := gpsmath.NewRPPSServer(1, arrivals, nil)
	rates := innerRates(srv)
	ord, _ := srv.FeasibleOrdering(rates)
	phi := make([]float64, 4)
	totalPhi := 0.0
	for i, sess := range srv.Sessions {
		phi[i] = sess.Phi
		totalPhi += sess.Phi
	}
	sim, _ := New(Config{Rate: 1, Phi: phi, DecompRates: rates})
	params := []struct{ p, q, l float64 }{
		{0.3, 0.7, 0.5}, {0.4, 0.4, 0.4}, {0.3, 0.3, 0.3}, {0.4, 0.6, 0.5},
	}
	srcs := make([]*source.OnOff, 4)
	for i, pr := range params {
		var err error
		srcs[i], err = source.NewOnOff(pr.p, pr.q, pr.l, uint64(700+i))
		if err != nil {
			t.Fatal(err)
		}
	}
	arr := make([]float64, 4)
	for k := 0; k < 30000; k++ {
		for i := range arr {
			arr[i] = srcs[i].Next()
		}
		if _, err := sim.Step(arr); err != nil {
			t.Fatal(err)
		}
		for pos, i := range ord {
			tailPhi := 0.0
			for _, j := range ord[pos:] {
				tailPhi += phi[j]
			}
			psi := phi[i] / tailPhi
			bound := sim.Delta(i)
			for _, j := range ord[:pos] {
				bound += psi * sim.Delta(j)
			}
			if sim.Backlog(i) > bound+1e-6 {
				t.Fatalf("Lemma 3 violated at slot %d session %d: Q = %v > bound %v", k, i, sim.Backlog(i), bound)
			}
		}
	}
}

// The session backlog of the real GPS system is bounded by its fictitious
// dedicated-rate backlog for H_1 sessions served at rate g_i (the key step
// of Theorem 10): with DecompRates = g_i under RPPS, Q_i <= δ_i.
func TestTheorem10SamplePathStep(t *testing.T) {
	arrivals := []ebb.Process{
		{Rho: 0.2, Lambda: 1.0, Alpha: 1.74},
		{Rho: 0.25, Lambda: 0.92, Alpha: 1.76},
		{Rho: 0.2, Lambda: 0.84, Alpha: 2.13},
		{Rho: 0.25, Lambda: 1.0, Alpha: 1.62},
	}
	srv := gpsmath.NewRPPSServer(1, arrivals, nil)
	g := srv.GuaranteedRates()
	phi := make([]float64, 4)
	for i, sess := range srv.Sessions {
		phi[i] = sess.Phi
	}
	sim, _ := New(Config{Rate: 1, Phi: phi, DecompRates: g})
	params := []struct{ p, q, l float64 }{
		{0.3, 0.7, 0.5}, {0.4, 0.4, 0.4}, {0.3, 0.3, 0.3}, {0.4, 0.6, 0.5},
	}
	srcs := make([]*source.OnOff, 4)
	for i, pr := range params {
		var err error
		srcs[i], err = source.NewOnOff(pr.p, pr.q, pr.l, uint64(3000+i))
		if err != nil {
			t.Fatal(err)
		}
	}
	arr := make([]float64, 4)
	for k := 0; k < 30000; k++ {
		for i := range arr {
			arr[i] = srcs[i].Next()
		}
		if _, err := sim.Step(arr); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			if sim.Backlog(i) > sim.Delta(i)+1e-6 {
				t.Fatalf("slot %d session %d: Q = %v > delta = %v (Theorem 10 sample-path step)", k, i, sim.Backlog(i), sim.Delta(i))
			}
		}
	}
}

// Property: backlogs never go negative and cumulative service never
// decreases, under arbitrary small workloads.
func TestInvariantsProperty(t *testing.T) {
	prop := func(seed uint16) bool {
		rng := source.NewRNG(uint64(seed))
		s, err := New(Config{Rate: 1, Phi: []float64{1, 2, 3}})
		if err != nil {
			return false
		}
		prevS := make([]float64, 3)
		arr := make([]float64, 3)
		for k := 0; k < 300; k++ {
			for i := range arr {
				arr[i] = 0
				if rng.Bernoulli(0.4) {
					arr[i] = rng.Float64() * 1.5
				}
			}
			if _, err := s.Step(arr); err != nil {
				return false
			}
			for i := 0; i < 3; i++ {
				if s.Backlog(i) < 0 {
					return false
				}
				if s.CumService(i) < prevS[i]-1e-12 {
					return false
				}
				prevS[i] = s.CumService(i)
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Delay measurements must agree with Little-style sanity: a session alone
// at rate R with constant arrivals below R sees delay a/R per batch.
func TestSingleSessionDelays(t *testing.T) {
	var delays []float64
	s, _ := New(Config{Rate: 1, Phi: []float64{1}, OnDelay: func(i, slot int, d float64) {
		delays = append(delays, d)
	}})
	for k := 0; k < 100; k++ {
		if _, err := s.Step([]float64{0.5}); err != nil {
			t.Fatal(err)
		}
	}
	if len(delays) != 100 {
		t.Fatalf("%d delays, want 100", len(delays))
	}
	for _, d := range delays {
		if math.Abs(d-0.5) > 1e-9 {
			t.Fatalf("delay = %v, want 0.5 (batch of 0.5 at rate 1)", d)
		}
	}
}

// Property: with equal weights and identical arrival streams, GPS treats
// sessions identically — backlogs and cumulative service stay equal.
func TestSymmetryProperty(t *testing.T) {
	prop := func(seed uint16) bool {
		rng := source.NewRNG(uint64(seed) + 9)
		s, err := New(Config{Rate: 1, Phi: []float64{1, 1, 1}})
		if err != nil {
			return false
		}
		for k := 0; k < 400; k++ {
			a := 0.0
			if rng.Bernoulli(0.5) {
				a = rng.Float64()
			}
			if _, err := s.Step([]float64{a, a, a}); err != nil {
				return false
			}
			for i := 1; i < 3; i++ {
				if math.Abs(s.Backlog(i)-s.Backlog(0)) > 1e-9 ||
					math.Abs(s.CumService(i)-s.CumService(0)) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: scaling all weights by a constant changes nothing (GPS only
// reads weight ratios).
func TestWeightScaleInvariance(t *testing.T) {
	mk := func(scale float64) *Sim {
		s, _ := New(Config{Rate: 1, Phi: []float64{scale * 1, scale * 3}})
		return s
	}
	a, b := mk(1), mk(100)
	rng := source.NewRNG(77)
	for k := 0; k < 500; k++ {
		arr := []float64{0, 0}
		if rng.Bernoulli(0.6) {
			arr[0] = rng.Float64()
		}
		if rng.Bernoulli(0.3) {
			arr[1] = 1.5 * rng.Float64()
		}
		if _, err := a.Step(arr); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Step(arr); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if math.Abs(a.Backlog(i)-b.Backlog(i)) > 1e-9 {
				t.Fatalf("slot %d session %d: backlog %v vs %v under weight scaling",
					k, i, a.Backlog(i), b.Backlog(i))
			}
		}
	}
}

func TestRunGenerator(t *testing.T) {
	s, _ := New(Config{Rate: 1, Phi: []float64{1, 1}})
	err := s.Run(10, func(i int) float64 { return float64(i) * 0.1 })
	if err != nil {
		t.Fatal(err)
	}
	if s.Slot() != 10 {
		t.Errorf("Slot = %d, want 10", s.Slot())
	}
	if math.Abs(s.CumArrival(1)-1.0) > 1e-12 {
		t.Errorf("CumArrival(1) = %v, want 1.0", s.CumArrival(1))
	}
}

// A single burst served alone: the busy period is exactly [0, burst/rate].
func TestBusyPeriodSingleBurst(t *testing.T) {
	type period struct {
		sess       int
		start, end float64
	}
	var got []period
	s, err := New(Config{
		Rate: 1, Phi: []float64{1},
		OnBusyPeriod: func(sess int, start, end float64) {
			got = append(got, period{sess, start, end})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Step([]float64{2.5}); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 5; k++ {
		if _, err := s.Step([]float64{0}); err != nil {
			t.Fatal(err)
		}
	}
	if len(got) != 1 {
		t.Fatalf("%d busy periods, want 1", len(got))
	}
	if got[0].start != 0 || math.Abs(got[0].end-2.5) > 1e-9 {
		t.Errorf("busy period [%v, %v], want [0, 2.5]", got[0].start, got[0].end)
	}
}

// Alternating bursts produce one busy period per burst, and the busy
// fraction matches the load.
func TestBusyPeriodsAlternating(t *testing.T) {
	var count int
	var busyTime float64
	s, err := New(Config{
		Rate: 1, Phi: []float64{1, 1},
		OnBusyPeriod: func(sess int, start, end float64) {
			if sess == 0 {
				count++
				busyTime += end - start
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 100
	for k := 0; k < rounds; k++ {
		if _, err := s.Step([]float64{0.5, 0}); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Step([]float64{0, 0}); err != nil {
			t.Fatal(err)
		}
	}
	if count != rounds {
		t.Errorf("%d busy periods, want %d", count, rounds)
	}
	// Session 0 alone: each 0.5 burst served at full rate in 0.5 slots.
	if math.Abs(busyTime-0.5*rounds) > 1e-6 {
		t.Errorf("total busy time %v, want %v", busyTime, 0.5*rounds)
	}
}

func TestAccessorsCopy(t *testing.T) {
	s, _ := New(Config{Rate: 1, Phi: []float64{1, 1}})
	if _, err := s.Step([]float64{3, 0}); err != nil {
		t.Fatal(err)
	}
	b := s.Backlogs()
	b[0] = -99
	if s.Backlog(0) < 0 {
		t.Error("Backlogs returned an aliased slice")
	}
	d := s.Deltas()
	if len(d) != 2 {
		t.Errorf("Deltas len = %d", len(d))
	}
}
