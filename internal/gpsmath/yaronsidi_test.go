package gpsmath

import (
	"testing"
)

func TestYaronSidiBoundsValid(t *testing.T) {
	srv := set1Server(t)
	rates, err := srv.DecomposedRates()
	if err != nil {
		t.Fatal(err)
	}
	ord, err := srv.FeasibleOrdering(rates)
	if err != nil {
		t.Fatal(err)
	}
	ys, err := srv.YaronSidiBounds(ord, rates, 0, XiOne)
	if err != nil {
		t.Fatalf("YaronSidiBounds: %v", err)
	}
	for i, sb := range ys {
		if sb == nil {
			t.Fatalf("missing bounds for session %d", i)
		}
		prev := 1.1
		for q := 0.0; q <= 200; q += 20 {
			v := sb.BacklogTail(q)
			if v < 0 || v > 1 || v > prev+1e-12 {
				t.Fatalf("session %d: tail misbehaves at %v: %v", i, q, v)
			}
			prev = v
		}
		if sb.BacklogTail(400) > 1e-3 {
			t.Errorf("session %d: recursion bound not decaying (%v at 400)", i, sb.BacklogTail(400))
		}
	}
}

// The first session of the ordering sees no interference in either route,
// so the two coincide there.
func TestYaronSidiFirstMatchesTheorem7(t *testing.T) {
	srv := set1Server(t)
	rates, _ := srv.DecomposedRates()
	ord, _ := srv.FeasibleOrdering(rates)
	ys, err := srv.YaronSidiBounds(ord, rates, 0, XiOne)
	if err != nil {
		t.Fatal(err)
	}
	t7, err := srv.Theorem7(ord, rates, 0, XiOne)
	if err != nil {
		t.Fatal(err)
	}
	first := ord[0]
	for _, theta := range []float64{0.2, 0.6, 1.0} {
		a, b := ys[first].PrefactorAt(theta), t7.PrefactorAt(theta)
		if a != b {
			t.Errorf("theta %v: YS %v != thm7 %v for the first session", theta, a, b)
		}
	}
}

// The paper's §4 point: the decomposition route beats the output-based
// recursion for downstream sessions — at a deep backlog level, ZTK's
// Theorem 7 quantile is no worse, and strictly better for the last
// session of the ordering.
func TestYaronSidiLooserThanTheorem7(t *testing.T) {
	srv := set1Server(t)
	rates, _ := srv.DecomposedRates()
	ord, _ := srv.FeasibleOrdering(rates)
	ys, err := srv.YaronSidiBounds(ord, rates, 0, XiOne)
	if err != nil {
		t.Fatal(err)
	}
	eps := 1e-6
	for pos, i := range ord {
		t7, err := srv.Theorem7(ord, rates, pos, XiOne)
		if err != nil {
			t.Fatal(err)
		}
		qZTK := t7.BacklogQuantile(eps)
		qYS := ys[i].BacklogQuantile(eps)
		if qZTK > qYS*1.001 {
			t.Errorf("session %d: decomposition quantile %v worse than recursion %v", i, qZTK, qYS)
		}
		if pos == len(ord)-1 && !(qZTK < qYS) {
			t.Errorf("last session: decomposition %v not strictly better than recursion %v", qZTK, qYS)
		}
	}
}

func TestYaronSidiValidation(t *testing.T) {
	srv := set1Server(t)
	rates, _ := srv.DecomposedRates()
	ord, _ := srv.FeasibleOrdering(rates)
	if _, err := srv.YaronSidiBounds(ord, rates, 1.5, XiOne); err == nil {
		t.Error("theta fraction out of range: want error")
	}
	if _, err := srv.YaronSidiBounds(ord[:2], rates, 0, XiOne); err == nil {
		t.Error("short ordering: want error")
	}
}
