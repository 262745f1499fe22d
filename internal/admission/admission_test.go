package admission

import (
	"errors"
	"math"
	"testing"

	"repro/internal/ebb"
	"repro/internal/fluid"
	"repro/internal/source"
)

var testProc = ebb.Process{Rho: 0.2, Lambda: 1.0, Alpha: 1.74}

func TestTargetValidate(t *testing.T) {
	if err := (Target{Delay: 10, Eps: 1e-4}).Validate(); err != nil {
		t.Errorf("valid target rejected: %v", err)
	}
	for _, bad := range []Target{{0, 0.1}, {-1, 0.1}, {10, 0}, {10, 1}, {math.NaN(), 0.1}} {
		if err := bad.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", bad)
		}
	}
}

func TestRequiredRateMeetsTarget(t *testing.T) {
	tgt := Target{Delay: 20, Eps: 1e-5}
	g, err := RequiredRate(testProc, tgt)
	if err != nil {
		t.Fatalf("RequiredRate: %v", err)
	}
	if g <= testProc.Rho {
		t.Fatalf("required rate %v not above rho", g)
	}
	// At the returned rate the bound meets the target...
	tail, err := testProc.DeltaTailDiscrete(g)
	if err != nil {
		t.Fatal(err)
	}
	if v := tail.EvalRaw(g * tgt.Delay); v > tgt.Eps*(1+1e-6) {
		t.Errorf("bound at required rate = %v, want <= %v", v, tgt.Eps)
	}
	// ...and just below it, it does not (minimality).
	gLow := g * 0.99
	tailLow, err := testProc.DeltaTailDiscrete(gLow)
	if err != nil {
		t.Fatal(err)
	}
	if v := tailLow.EvalRaw(gLow * tgt.Delay); v < tgt.Eps {
		t.Errorf("bound already met at 0.99·g (%v < %v) — rate not minimal", v, tgt.Eps)
	}
}

func TestRequiredRateMonotoneInTarget(t *testing.T) {
	loose, err := RequiredRate(testProc, Target{Delay: 30, Eps: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	tight, err := RequiredRate(testProc, Target{Delay: 10, Eps: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	if tight <= loose {
		t.Errorf("tighter target needs rate %v <= looser target's %v", tight, loose)
	}
}

func TestRequiredRateValidation(t *testing.T) {
	if _, err := RequiredRate(ebb.Process{}, Target{Delay: 10, Eps: 0.1}); err == nil {
		t.Error("invalid process: want error")
	}
	if _, err := RequiredRate(testProc, Target{Delay: 0, Eps: 0.1}); err == nil {
		t.Error("invalid target: want error")
	}
	if g, err := RequiredRate(ebb.Process{Rho: 1.7e308, Alpha: 1}, Target{Delay: 1, Eps: 0.1}); err == nil {
		t.Errorf("rate beyond float64: got %v, want error", g)
	}
}

func TestRequiredRateMarkovSharper(t *testing.T) {
	src, err := source.NewOnOff(0.4, 0.4, 0.4, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := src.Markov()
	if err != nil {
		t.Fatal(err)
	}
	char, err := m.EBBPaper(0.25)
	if err != nil {
		t.Fatal(err)
	}
	tgt := Target{Delay: 20, Eps: 1e-5}
	viaEBB, err := RequiredRate(char, tgt)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := RequiredRateMarkov(m, tgt)
	if err != nil {
		t.Fatal(err)
	}
	if direct > viaEBB*(1+1e-6) {
		t.Errorf("direct route needs rate %v above EBB route %v", direct, viaEBB)
	}
	if direct <= src.MeanRate() {
		t.Errorf("direct rate %v not above mean", direct)
	}
}

func TestRequiredRateMarkovValidation(t *testing.T) {
	src, _ := source.NewOnOff(0.4, 0.4, 0.4, 1)
	m, err := src.Markov()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RequiredRateMarkov(m, Target{Delay: -1, Eps: 0.5}); err == nil {
		t.Error("invalid target: want error")
	}
}

func TestControllerAdmitRejectRelease(t *testing.T) {
	c, err := NewController(1)
	if err != nil {
		t.Fatal(err)
	}
	tgt := Target{Delay: 20, Eps: 1e-4}
	n := 0
	for ; n < 100; n++ {
		_, err := c.Admit(Request{Name: names(n), Arrival: testProc, Target: tgt})
		if errors.Is(err, ErrRejected) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if n == 0 || n == 100 {
		t.Fatalf("admitted %d sessions, expected a finite positive count", n)
	}
	if got := len(c.Admitted()); got != n {
		t.Errorf("Admitted() len = %d, want %d", got, n)
	}
	if u := c.Utilization(); u <= 0 || u > 1 {
		t.Errorf("utilization = %v", u)
	}
	if len(c.Weights()) != n {
		t.Errorf("weights len = %d", len(c.Weights()))
	}
	// Release one and the next admit succeeds again.
	if !c.Release(names(0)) {
		t.Fatal("release failed")
	}
	if c.Release("nope") {
		t.Error("released a nonexistent session")
	}
	if _, err := c.Admit(Request{Name: "again", Arrival: testProc, Target: tgt}); err != nil {
		t.Errorf("admit after release: %v", err)
	}
}

func names(i int) string { return string(rune('a'+i%26)) + string(rune('0'+i/26)) }

func TestNewControllerValidation(t *testing.T) {
	if _, err := NewController(0); err == nil {
		t.Error("zero rate: want error")
	}
}

// End-to-end soundness: admit a full link of on-off sessions, simulate
// the admitted set under the assigned weights, and verify the per-session
// delay targets hold empirically.
func TestAdmittedSetMeetsTargetsInSimulation(t *testing.T) {
	src, err := source.NewOnOff(0.4, 0.4, 0.4, 1)
	if err != nil {
		t.Fatal(err)
	}
	char, err := src.EBBPaper(0.25)
	if err != nil {
		t.Fatal(err)
	}
	tgt := Target{Delay: 25, Eps: 1e-4}
	c, err := NewController(1)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for ; ; n++ {
		if _, err := c.Admit(Request{Name: names(n), Arrival: char, Target: tgt}); err != nil {
			break
		}
	}
	if n < 2 {
		t.Fatalf("admitted only %d sessions", n)
	}
	phi := c.Weights()
	srcs := make([]*source.OnOff, n)
	for i := range srcs {
		srcs[i], err = source.NewOnOff(0.4, 0.4, 0.4, uint64(1000+i))
		if err != nil {
			t.Fatal(err)
		}
	}
	violations, samples := 0, 0
	sim, err := fluid.New(fluid.Config{Rate: 1, Phi: phi, OnDelay: func(sess, slot int, d float64) {
		samples++
		if d >= tgt.Delay {
			violations++
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(100000, func(i int) float64 { return srcs[i].Next() }); err != nil {
		t.Fatal(err)
	}
	if samples == 0 {
		t.Fatal("no delay samples")
	}
	// Allow generous sampling noise over the 1e-4 target.
	if rate := float64(violations) / float64(samples); rate > 10*tgt.Eps {
		t.Errorf("violation rate %v far above target %v", rate, tgt.Eps)
	}
}
