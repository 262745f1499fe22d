package gpsmath

import (
	"errors"
	"math"
	"testing"

	"repro/internal/ebb"
	"repro/internal/numeric"
)

// fixedOnlyBounds builds a SessionBounds with no θ-family, as a consumer
// composing custom bounds might.
func fixedOnlyBounds() *SessionBounds {
	return &SessionBounds{
		Name:  "fixed",
		G:     0.5,
		Rho:   0.2,
		Fixed: []numeric.ExpTail{{Prefactor: 2, Rate: 1.5}},
	}
}

func TestFixedOnlyBounds(t *testing.T) {
	sb := fixedOnlyBounds()
	if got := sb.PrefactorAt(0.5); !math.IsInf(got, 1) {
		t.Errorf("PrefactorAt without family = %v, want +Inf", got)
	}
	want := math.Min(2*math.Exp(-1.5*4), 1)
	if got := sb.BacklogTail(4); math.Abs(got-want) > 1e-12 {
		t.Errorf("BacklogTail = %v, want fixed tail %v", got, want)
	}
	// Delay converts through g.
	if got := sb.DelayTail(8); math.Abs(got-sb.BacklogTail(4)) > 1e-12 {
		t.Errorf("DelayTail(8) = %v, want BacklogTail(4)", got)
	}
	q := sb.BacklogQuantile(1e-6)
	if math.IsInf(q, 1) || sb.Fixed[0].EvalRaw(q) > 1e-6*(1+1e-9) {
		t.Errorf("BacklogQuantile = %v", q)
	}
	if _, err := sb.OutputEBB(0.5); err == nil {
		t.Error("OutputEBB without family: want error")
	}
	if _, err := sb.BestOutputEBB(1); err == nil {
		t.Error("BestOutputEBB without family: want error")
	}
}

func TestEmptyBoundsDegenerate(t *testing.T) {
	sb := &SessionBounds{Name: "empty", G: 1}
	if got := sb.BacklogTail(1); got != 1 {
		t.Errorf("BacklogTail with no bounds = %v, want trivial 1", got)
	}
	if q := sb.BacklogQuantile(1e-3); !math.IsInf(q, 1) {
		t.Errorf("BacklogQuantile with no bounds = %v, want +Inf", q)
	}
	if q := sb.BacklogQuantile(0); !math.IsInf(q, 1) {
		t.Errorf("BacklogQuantile(0) = %v, want +Inf", q)
	}
}

func TestBestOutputEBBDownstreamBelowRho(t *testing.T) {
	srv := set1Server(t)
	a, err := AnalyzeServer(srv, Options{Independent: true, Xi: XiOptimal})
	if err != nil {
		t.Fatal(err)
	}
	sb := a.PartitionBound(0)
	// Downstream rate below rho: the fallback path minimizes Λ directly.
	out, err := sb.BestOutputEBB(0.1)
	if err != nil {
		t.Fatalf("BestOutputEBB: %v", err)
	}
	if err := out.Validate(); err != nil {
		t.Errorf("fallback output invalid: %v", err)
	}
}

func TestBacklogTailAtOutOfRange(t *testing.T) {
	srv := set1Server(t)
	a, _ := AnalyzeServer(srv, Options{Independent: true, Xi: XiOne})
	sb := a.PartitionBound(0)
	tail := sb.BacklogTailAt(sb.ThetaMax * 2)
	if !math.IsInf(tail.Prefactor, 1) {
		t.Errorf("out-of-range theta prefactor = %v, want +Inf", tail.Prefactor)
	}
	if v := tail.Eval(5); v != 1 {
		t.Errorf("clipped eval = %v, want 1", v)
	}
}

// A zero-prefactor family (possible with Λ = 0 sources) must short-
// circuit the quantile search to zero backlog.
func TestZeroPrefactorFamilyQuantile(t *testing.T) {
	sb := &SessionBounds{
		Name:     "zero",
		G:        1,
		Rho:      0.1,
		ThetaMax: 1,
		Prefactor: func(theta float64) float64 {
			if theta <= 0 || theta >= 1 {
				return math.Inf(1)
			}
			return 0
		},
	}
	if q := sb.BacklogQuantile(1e-9); q != 0 {
		t.Errorf("quantile with zero prefactor = %v, want 0", q)
	}
	if v := sb.BacklogTail(0.5); v != 0 {
		t.Errorf("tail with zero prefactor = %v, want 0", v)
	}
}

// TestCheckFeasibleCoversTheorem10 pins the one guard on a returned
// analysis: an H_1 session whose Theorem 11 slack is positive (gEff > ρ)
// while its Theorem 10 slack is not (g ≤ ρ) must be refused, not
// returned with a PartitionBound that fails. g folds Σφ over the session
// slice and gEff class by class; with φ = [2^-53, 2^-53, 1] and classes
// {0, 2}, {1}, the slice fold rounds Σφ up to 1+2^-52 while the class
// fold rounds it to 1, so g = 1−2^-52 = ρ_2 < gEff = 1. The partition
// is passed in by hand: FeasiblePartition's own threshold keeps this
// population's session 2 out of H_1.
func TestCheckFeasibleCoversTheorem10(t *testing.T) {
	tiny := math.Ldexp(1, -53)
	srv := Server{Rate: 1, Sessions: []Session{
		{Name: "a", Phi: tiny, Arrival: ebb.Process{Rho: math.Ldexp(1, -60), Lambda: 1, Alpha: 1}},
		{Name: "b", Phi: tiny, Arrival: ebb.Process{Rho: math.Ldexp(1, -60), Lambda: 1, Alpha: 1}},
		{Name: "c", Phi: 1, Arrival: ebb.Process{Rho: 1 - math.Ldexp(1, -52), Lambda: 1, Alpha: 1}},
	}}
	part := Partition{Classes: [][]int{{0, 2}, {1}}, ClassOf: []int{0, 1, 0}}
	pm := srv.newPartitionMemo(part)
	if geo := pm.geometry(2); !(geo.epsBudget > 0) {
		t.Fatalf("setup: session 2 has no Theorem 11 slack (gEff = %v)", geo.gEff)
	}
	if _, err := pm.theorem10(2); !errors.Is(err, ebb.ErrRateTooSmall) {
		t.Fatalf("setup: Theorem 10 for session 2 = %v, want ErrRateTooSmall", err)
	}
	g := &generation{ord: []int{0, 1, 2}, rates: []float64{tiny, tiny, 1 - math.Ldexp(1, -52)}}
	g.pm.addPartition(srv, part)
	_, err := newAnalysis(srv, Options{Independent: true}, srv.TotalPhi(), part, g)
	if !errors.Is(err, ebb.ErrRateTooSmall) {
		t.Fatalf("newAnalysis = %v, want a refusal wrapping ErrRateTooSmall", err)
	}
}
