package main

import (
	"math"
	"testing"
)

func TestTailRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{1000, 0.99, true}, {999, 0.99, false},
		{100, 0.9, true}, {99, 0.9, false},
		{20, 0.5, true}, {19, 0.5, false},
		{10000, 0.999, true}, {9999, 0.999, false},
		{0, 0.5, false},
	} {
		if got := supports(c.n, c.p); got != c.want {
			t.Errorf("supports(%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
	// The rule itself: whenever a percentile is supported, at least ten
	// samples lie strictly beyond the value it reports.
	for n := 1; n <= 3000; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		for _, p := range []float64{0.5, 0.9, 0.99, 0.999} {
			if !supports(n, p) {
				continue
			}
			v := quantile(xs, p)
			beyond := 0
			for _, x := range xs {
				if x > v {
					beyond++
				}
			}
			if beyond < minBeyond {
				t.Fatalf("n=%d p=%v: %d samples beyond the reported percentile", n, p, beyond)
			}
		}
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0}, {50, 0.5}, {500, 0.9}, {5000, 0.99}, {50000, 0.999}} {
		if got := highestTail(c.n); got != c.want {
			t.Errorf("highestTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for p, want := range map[float64]float64{0.5: 50, 0.9: 90, 0.99: 99, 1: 100} {
		if got := quantile(xs, p); got != want {
			t.Errorf("quantile(1..100, %v) = %v, want %v", p, got, want)
		}
	}
}

// TestSpreadMatchesPython pins quartiles to Python's
// statistics.quantiles(values, n=4) (the default exclusive method) on
// the values the acceptance check feeds it.
func TestSpreadMatchesPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3.1, 0.5, 2.2, 9.0}, 0.925, 7.525},
		{[]float64{5, 1}, 0, 6}, // two values extrapolate, as Python does
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got, want := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}
