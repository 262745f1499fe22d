package gpsmath

import (
	"math"
	"testing"
)

func pgpsFixture(t *testing.T) (*SessionBounds, *PGPSBounds) {
	t.Helper()
	srv := set1Server(t)
	a, err := AnalyzeServer(srv, Options{Independent: true, Xi: XiOptimal})
	if err != nil {
		t.Fatal(err)
	}
	fluid := a.PartitionBound(0)
	p, err := NewPGPSBounds(fluid, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	return fluid, p
}

func TestNewPGPSBoundsValidation(t *testing.T) {
	fluid, _ := pgpsFixture(t)
	if _, err := NewPGPSBounds(nil, 1, 1); err == nil {
		t.Error("nil fluid: want error")
	}
	if _, err := NewPGPSBounds(fluid, -1, 1); err == nil {
		t.Error("negative lmax: want error")
	}
	if _, err := NewPGPSBounds(fluid, 1, 0); err == nil {
		t.Error("zero rate: want error")
	}
}

func TestPGPSShiftsFluidBounds(t *testing.T) {
	fluid, p := pgpsFixture(t)
	for _, d := range []float64{1, 5, 10, 20} {
		got := p.DelayTail(d)
		want := fluid.DelayTail(d - 0.5) // lmax/rate = 0.5
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("DelayTail(%v) = %v, want shifted %v", d, got, want)
		}
		// PGPS bound must never be better than the fluid bound.
		if got < fluid.DelayTail(d)-1e-12 {
			t.Errorf("PGPS bound %v below fluid bound %v at %v", got, fluid.DelayTail(d), d)
		}
	}
	for _, q := range []float64{1, 3, 8} {
		got := p.BacklogTail(q)
		want := fluid.BacklogTail(q - 0.5)
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("BacklogTail(%v) = %v, want %v", q, got, want)
		}
	}
	if p.DelayTail(0.2) != 1 || p.BacklogTail(0.4) != 1 {
		t.Error("inside the packetization shift the bound must be trivial")
	}
}

func TestPGPSQuantiles(t *testing.T) {
	fluid, p := pgpsFixture(t)
	eps := 1e-6
	if got, want := p.DelayQuantile(eps), fluid.DelayQuantile(eps)+0.5; math.Abs(got-want) > 1e-9 {
		t.Errorf("DelayQuantile = %v, want %v", got, want)
	}
	if got, want := p.BacklogQuantile(eps), fluid.BacklogQuantile(eps)+0.5; math.Abs(got-want) > 1e-9 {
		t.Errorf("BacklogQuantile = %v, want %v", got, want)
	}
}

func TestPGPSBestDelayTailDominates(t *testing.T) {
	_, p := pgpsFixture(t)
	for _, d := range []float64{2, 6, 15} {
		tail := p.BestDelayTail(d)
		if !tail.Valid() {
			t.Fatalf("invalid tail at %v", d)
		}
		// The exponential form evaluated at d must dominate the exact
		// shifted bound (it is the same bound re-expressed plus slack
		// from θ being optimized at the shifted abscissa).
		if v := tail.Eval(d); v < p.DelayTail(d)-1e-9 {
			t.Errorf("exponential form %v below exact bound %v at %v", v, p.DelayTail(d), d)
		}
	}
}
