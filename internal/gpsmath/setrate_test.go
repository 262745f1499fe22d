package gpsmath

import (
	"math"
	"testing"

	"repro/internal/source"
)

// TestDeltaSetRateMatchesFresh pins the capacity-move path the sharded
// writer leans on: after SetRate, the delta analysis — structure and a
// bound sweep — must be bit-identical to a fresh AnalyzeServer over
// the same sessions at the new rate, through a churn/retune interleave
// that crosses class boundaries.
func TestDeltaSetRateMatchesFresh(t *testing.T) {
	for _, opts := range []Options{
		{Independent: true, Xi: XiOptimal},
		{Independent: false, Xi: XiOne},
	} {
		rate := 40.0
		d, err := NewDeltaAnalyzer(Server{Rate: rate}, opts)
		if err != nil {
			t.Fatal(err)
		}
		rng := source.NewRNG(1994)
		var mirror []Session
		for op := 0; op < 40; op++ {
			// A rejected admit leaves the analyzer unchanged; skip it.
			churnStep(rng, d, &mirror, 2, 12)
		}
		if len(mirror) == 0 {
			t.Fatal("churn left an empty population")
		}
		for _, next := range []float64{52.5, 37.0078125, 40, 64, 33.40625} {
			rate = next
			if err := d.SetRate(rate); err != nil {
				t.Fatalf("SetRate(%v): %v", rate, err)
			}
			an, err := d.Refresh()
			if err != nil {
				t.Fatalf("refresh at rate %v: %v", rate, err)
			}
			fresh, err := AnalyzeServer(Server{Rate: rate, Sessions: mirror}, opts)
			if err != nil {
				t.Fatalf("fresh AnalyzeServer at rate %v: %v", rate, err)
			}
			compareStructure(t, "setrate", an, fresh)
			for i := range mirror {
				compareBounds(t, "setrate", an, fresh, i)
			}
			// Interleave churn so the next retune starts from a repaired
			// ordering, not a pristine one.
			for op := 0; op < 6; op++ {
				churnStep(rng, d, &mirror, 2, 12)
			}
			fresh, err = AnalyzeServer(Server{Rate: rate, Sessions: mirror}, opts)
			if err != nil {
				t.Fatalf("post-churn fresh AnalyzeServer at rate %v: %v", rate, err)
			}
			compareStructure(t, "setrate+churn", d.Analysis(), fresh)
		}
	}
}

// TestDeltaSetRateRejectsAndRollsBack pins the error contract: an
// invalid or infeasible rate leaves the analyzer exactly where it was.
func TestDeltaSetRateRejectsAndRollsBack(t *testing.T) {
	opts := Options{Independent: true, Xi: XiOptimal}
	rate := 40.0
	d, err := NewDeltaAnalyzer(Server{Rate: rate}, opts)
	if err != nil {
		t.Fatal(err)
	}
	rng := source.NewRNG(3)
	var mirror []Session
	for op := 0; op < 24; op++ {
		churnStep(rng, d, &mirror, 2, 10)
	}
	for _, bad := range []float64{0, -5, math.Inf(1), math.NaN()} {
		if err := d.SetRate(bad); err == nil {
			t.Errorf("SetRate(%v) accepted", bad)
		}
	}
	// A rate below the population's Σρ is structurally infeasible; the
	// refresh must fail and roll back to the old rate.
	sumRho := 0.0
	for _, s := range mirror {
		sumRho += s.Arrival.Rho
	}
	if err := d.SetRate(sumRho * 0.5); err != nil {
		t.Fatalf("SetRate(%v) refused a valid rate: %v", sumRho*0.5, err)
	}
	if _, err := d.Refresh(); err == nil {
		t.Fatalf("refresh at rate %v under Σρ=%v accepted", sumRho*0.5, sumRho)
	}
	if got := d.Server().Rate; got != rate {
		t.Fatalf("refused refresh left the rate at %v, want %v", got, rate)
	}
	fresh, err := AnalyzeServer(Server{Rate: rate, Sessions: mirror}, opts)
	if err != nil {
		t.Fatal(err)
	}
	compareStructure(t, "rollback", d.Analysis(), fresh)
	// And the analyzer still works at the old rate: churn on.
	if _, err := churnStep(rng, d, &mirror, 2, 10); err != nil {
		t.Fatalf("churn after rollback: %v", err)
	}
}
