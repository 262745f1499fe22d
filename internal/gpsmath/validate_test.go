package gpsmath

import (
	"errors"
	"math"
	"testing"

	"repro/internal/ebb"
)

func validationServer() Server {
	procs := []ebb.Process{
		{Rho: 0.2, Lambda: 1, Alpha: 1.7},
		{Rho: 0.25, Lambda: 1, Alpha: 1.8},
		{Rho: 0.2, Lambda: 1, Alpha: 2.1},
	}
	return NewRPPSServer(1, procs, nil)
}

func TestValidateWrapsErrInvalidInput(t *testing.T) {
	bad := validationServer()
	bad.Rate = math.NaN()
	if err := bad.Validate(); !errors.Is(err, ErrInvalidInput) {
		t.Errorf("NaN rate: err = %v, want ErrInvalidInput", err)
	}
	bad = validationServer()
	bad.Sessions[1].Phi = -1
	if err := bad.Validate(); !errors.Is(err, ErrInvalidInput) {
		t.Errorf("negative phi: err = %v, want ErrInvalidInput", err)
	}
	// Overload keeps its dedicated sentinel.
	over := validationServer()
	over.Rate = 0.5
	if err := over.Validate(); !errors.Is(err, ErrOverloaded) {
		t.Errorf("overload: err = %v, want ErrOverloaded", err)
	}
}

func TestFeasibleOrderingRejectsBadRates(t *testing.T) {
	srv := validationServer()
	good, err := srv.DecomposedRates()
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), 0, -0.1} {
		rates := append([]float64(nil), good...)
		rates[1] = bad
		if _, err := srv.FeasibleOrdering(rates); !errors.Is(err, ErrInvalidInput) {
			t.Errorf("rate %v: err = %v, want ErrInvalidInput", bad, err)
		}
	}
	if _, err := srv.FeasibleOrdering(good[:2]); !errors.Is(err, ErrInvalidInput) {
		t.Error("length mismatch: want ErrInvalidInput")
	}
}

func TestTheoremIndexValidation(t *testing.T) {
	srv := validationServer()
	p, err := srv.FeasiblePartition()
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{-1, len(srv.Sessions)} {
		if _, err := srv.Theorem10(p, i); !errors.Is(err, ErrInvalidInput) {
			t.Errorf("Theorem10(%d): %v, want ErrInvalidInput", i, err)
		}
		if _, err := srv.Theorem11(p, i, XiOne); !errors.Is(err, ErrInvalidInput) {
			t.Errorf("Theorem11(%d): %v, want ErrInvalidInput", i, err)
		}
		if _, err := srv.Theorem12(p, i, nil, XiOne); !errors.Is(err, ErrInvalidInput) {
			t.Errorf("Theorem12(%d): %v, want ErrInvalidInput", i, err)
		}
	}
}

func TestTheorem12RejectsNaNHolderExponents(t *testing.T) {
	// A non-RPPS assignment puts the light-phi session in a later
	// class, so Theorem 12 has an aggregate to Hölder against.
	procs := []ebb.Process{
		{Rho: 0.2, Lambda: 1, Alpha: 1.7},
		{Rho: 0.3, Lambda: 1, Alpha: 1.8},
	}
	srv := Server{Rate: 1, Sessions: []Session{
		{Name: "a", Phi: 0.7, Arrival: procs[0]},
		{Name: "b", Phi: 0.3, Arrival: procs[1]},
	}}
	p, err := srv.FeasiblePartition()
	if err != nil {
		t.Fatal(err)
	}
	var late int
	for i, c := range p.ClassOf {
		if c > 0 {
			late = i
		}
	}
	if p.ClassOf[late] == 0 {
		t.Skip("partition collapsed to one class; no aggregate to test")
	}
	for _, ps := range [][]float64{
		{math.NaN(), 2},
		{2, math.NaN()},
		{0.5, 2},
	} {
		if _, err := srv.Theorem12(p, late, ps, XiOne); !errors.Is(err, ErrInvalidInput) {
			t.Errorf("ps %v: err = %v, want ErrInvalidInput", ps, err)
		}
	}
}

func TestBoundsNaNGuards(t *testing.T) {
	srv := validationServer()
	p, err := srv.FeasiblePartition()
	if err != nil {
		t.Fatal(err)
	}
	b, err := srv.Theorem11(p, 0, XiOne)
	if err != nil {
		t.Fatal(err)
	}
	if v := b.BacklogTail(math.NaN()); v != 1 {
		t.Errorf("BacklogTail(NaN) = %v, want trivial bound 1", v)
	}
	if v := b.DelayTail(math.NaN()); v != 1 {
		t.Errorf("DelayTail(NaN) = %v, want trivial bound 1", v)
	}
	if q := b.BacklogQuantile(math.NaN()); !math.IsInf(q, 1) {
		t.Errorf("BacklogQuantile(NaN) = %v, want +Inf", q)
	}
	if _, err := b.OutputEBB(math.NaN()); !errors.Is(err, ErrInvalidInput) {
		t.Errorf("OutputEBB(NaN): %v, want ErrInvalidInput", err)
	}
	if _, err := b.BestOutputEBB(math.NaN()); !errors.Is(err, ErrInvalidInput) {
		t.Errorf("BestOutputEBB(NaN): %v, want ErrInvalidInput", err)
	}
}
