package gpsmath

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/ebb"
	"repro/internal/source"
)

// scalingServer builds the heterogeneous population the scaling
// benchmarks use: total load 0.9 split unevenly, spread weights and
// E.B.B. parameters.
func scalingServer(n int, seed uint64) Server {
	srv := Server{Rate: 1}
	rng := source.NewRNG(seed)
	budget := 0.9
	for i := 0; i < n; i++ {
		rho := budget / float64(n) * (0.5 + 0.5*rng.Float64())
		srv.Sessions = append(srv.Sessions, Session{
			Name: fmt.Sprint(i),
			Phi:  0.1 + rng.Float64(),
			Arrival: ebb.Process{
				Rho: rho, Lambda: 0.5 + rng.Float64(), Alpha: 0.5 + 2*rng.Float64(),
			},
		})
	}
	return srv
}

func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

func relClose(a, b, tol float64) bool {
	if sameBits(a, b) || (math.IsInf(a, 1) && math.IsInf(b, 1)) {
		return true
	}
	d := math.Abs(a - b)
	m := math.Max(math.Abs(a), math.Abs(b))
	return d <= tol*m
}

// TestFeasiblePartitionMatchesReference pins the sorted-block partition
// to the round-per-rescan reference bit for bit: the fast path
// accumulates the per-round ρ/φ sums in the same session order, so even
// the float thresholds must agree exactly.
func TestFeasiblePartitionMatchesReference(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8, 16, 33, 64, 257} {
		for seed := uint64(1); seed <= 5; seed++ {
			srv := scalingServer(n, seed*7919+uint64(n))
			got, errGot := srv.FeasiblePartition()
			want, errWant := srv.feasiblePartitionReference()
			if (errGot == nil) != (errWant == nil) {
				t.Fatalf("n=%d seed=%d: fast err=%v ref err=%v", n, seed, errGot, errWant)
			}
			if errGot != nil {
				continue
			}
			if len(got.Classes) != len(want.Classes) {
				t.Fatalf("n=%d seed=%d: %d classes, reference has %d", n, seed, len(got.Classes), len(want.Classes))
			}
			for c := range got.Classes {
				if len(got.Classes[c]) != len(want.Classes[c]) {
					t.Fatalf("n=%d seed=%d class %d: size %d vs %d", n, seed, c, len(got.Classes[c]), len(want.Classes[c]))
				}
				for j := range got.Classes[c] {
					if got.Classes[c][j] != want.Classes[c][j] {
						t.Fatalf("n=%d seed=%d class %d member %d: %d vs %d",
							n, seed, c, j, got.Classes[c][j], want.Classes[c][j])
					}
				}
			}
			for i := range got.ClassOf {
				if got.ClassOf[i] != want.ClassOf[i] {
					t.Fatalf("n=%d seed=%d: ClassOf[%d] = %d, reference %d", n, seed, i, got.ClassOf[i], want.ClassOf[i])
				}
			}
		}
	}
}

// TestFeasiblePartitionOverload keeps the stalled-partition error on the
// fast path.
func TestFeasiblePartitionOverload(t *testing.T) {
	srv := Server{Rate: 1}
	for i := 0; i < 3; i++ {
		srv.Sessions = append(srv.Sessions, Session{
			Name: fmt.Sprint(i), Phi: 1,
			Arrival: ebb.Process{Rho: 0.5, Lambda: 1, Alpha: 1},
		})
	}
	if _, err := srv.FeasiblePartition(); err == nil {
		t.Fatal("overloaded server: want stalled-partition error, got nil")
	}
	if _, err := srv.feasiblePartitionReference(); err == nil {
		t.Fatal("overloaded server: reference accepted overload")
	}
}

// thetaProbe samples θ across (0, θmax): below, at fractions of, and
// just above the ceiling.
func thetaProbe(thetaMax float64) []float64 {
	return []float64{
		thetaMax * 1e-3, thetaMax * 0.25, thetaMax * 0.5,
		thetaMax * 0.9, thetaMax * 0.999, thetaMax * 1.001, -1, 0,
	}
}

// TestOrderingBoundsMatchReference pins theorem7/8 fast constructions to
// the retained references across random populations. Theorem 7 shares
// its arithmetic with the old code exactly; Theorem 8's fast path may
// differ from the reference θ ceiling by a couple of ulps (the
// predecessor limits collapse to 1/(inv·ψ)), so the ceiling is compared
// with a 4-ulp-scale relative tolerance and the prefactors bit for bit
// at θ strictly below both ceilings.
func TestOrderingBoundsMatchReference(t *testing.T) {
	for _, n := range []int{1, 2, 4, 9, 16, 33, 64} {
		for seed := uint64(1); seed <= 3; seed++ {
			srv := scalingServer(n, seed*104729+uint64(n))
			rates, err := srv.DecomposedRates()
			if err != nil {
				t.Fatalf("n=%d: DecomposedRates: %v", n, err)
			}
			ord, err := srv.FeasibleOrdering(rates)
			if err != nil {
				t.Fatalf("n=%d: FeasibleOrdering: %v", n, err)
			}
			memo := srv.newOrderingMemo(ord, rates)
			for _, mode := range []XiMode{XiOne, XiOptimal} {
				for pos := 0; pos < n; pos++ {
					var fast, ref SessionBounds
					if err := memo.theorem8Into(&fast, pos, nil, mode); err != nil {
						t.Fatalf("n=%d pos=%d: theorem8Into: %v", n, pos, err)
					}
					if err := memo.theorem8RefInto(&ref, pos, nil, mode); err != nil {
						t.Fatalf("n=%d pos=%d: theorem8RefInto: %v", n, pos, err)
					}
					if !relClose(fast.ThetaMax, ref.ThetaMax, 1e-12) {
						t.Fatalf("n=%d pos=%d mode=%v: thm8 ThetaMax %v vs reference %v",
							n, pos, mode, fast.ThetaMax, ref.ThetaMax)
					}
					ceil := math.Min(fast.ThetaMax, ref.ThetaMax)
					for _, theta := range thetaProbe(ceil) {
						if theta >= ceil && theta <= math.Max(fast.ThetaMax, ref.ThetaMax) {
							continue // inside the ulp band the Inf cutoffs may differ
						}
						a, b := fast.Prefactor(theta), ref.Prefactor(theta)
						if !sameBits(a, b) {
							t.Fatalf("n=%d pos=%d mode=%v θ=%v: thm8 prefactor %v vs reference %v",
								n, pos, mode, theta, a, b)
						}
					}
				}
			}
		}
	}
}

// TestPartitionBoundsMatchReference pins theorem11/12 fast constructions
// to the retained references: Theorem 11 must agree bit for bit
// (prefix-min and closure-built aggregate terms reproduce the same
// floats); Theorem 12's ceiling gets the same ulp-band treatment as
// Theorem 8.
func TestPartitionBoundsMatchReference(t *testing.T) {
	for _, n := range []int{1, 2, 4, 9, 16, 33, 64, 129} {
		for seed := uint64(1); seed <= 3; seed++ {
			srv := scalingServer(n, seed*31337+uint64(n))
			part, err := srv.FeasiblePartition()
			if err != nil {
				t.Fatalf("n=%d: FeasiblePartition: %v", n, err)
			}
			memo := srv.newPartitionMemo(part)
			for _, mode := range []XiMode{XiOne, XiOptimal} {
				for i := 0; i < n; i++ {
					var fast, ref SessionBounds
					if err := memo.theorem11Into(&fast, i, mode); err != nil {
						t.Fatalf("n=%d i=%d: theorem11Into: %v", n, i, err)
					}
					if err := memo.theorem11RefInto(&ref, i, mode); err != nil {
						t.Fatalf("n=%d i=%d: theorem11RefInto: %v", n, i, err)
					}
					if !sameBits(fast.ThetaMax, ref.ThetaMax) {
						t.Fatalf("n=%d i=%d mode=%v: thm11 ThetaMax %v vs reference %v",
							n, i, mode, fast.ThetaMax, ref.ThetaMax)
					}
					for _, theta := range thetaProbe(fast.ThetaMax) {
						a, b := fast.Prefactor(theta), ref.Prefactor(theta)
						if !sameBits(a, b) {
							t.Fatalf("n=%d i=%d mode=%v θ=%v: thm11 prefactor %v vs reference %v",
								n, i, mode, theta, a, b)
						}
					}

					if err := memo.theorem12Into(&fast, i, nil, mode); err != nil {
						t.Fatalf("n=%d i=%d: theorem12Into: %v", n, i, err)
					}
					if err := memo.theorem12RefInto(&ref, i, nil, mode); err != nil {
						t.Fatalf("n=%d i=%d: theorem12RefInto: %v", n, i, err)
					}
					if !relClose(fast.ThetaMax, ref.ThetaMax, 1e-12) {
						t.Fatalf("n=%d i=%d mode=%v: thm12 ThetaMax %v vs reference %v",
							n, i, mode, fast.ThetaMax, ref.ThetaMax)
					}
					ceil := math.Min(fast.ThetaMax, ref.ThetaMax)
					for _, theta := range thetaProbe(ceil) {
						if theta >= ceil && theta <= math.Max(fast.ThetaMax, ref.ThetaMax) {
							continue
						}
						a, b := fast.Prefactor(theta), ref.Prefactor(theta)
						if !sameBits(a, b) {
							t.Fatalf("n=%d i=%d mode=%v θ=%v: thm12 prefactor %v vs reference %v",
								n, i, mode, theta, a, b)
						}
					}
				}
			}
		}
	}
}

// TestAnalyzeServerLargeN exercises the full pass well past the old
// numerical ceiling (FeasibleOrdering's eq. (5) check used to reject
// spuriously around N ≈ 1024) and sanity-checks the output shape.
func TestAnalyzeServerLargeN(t *testing.T) {
	if testing.Short() {
		t.Skip("large-N analysis in -short mode")
	}
	srv := scalingServer(4096, 4096)
	a, err := AnalyzeServer(srv, Options{Independent: true, Xi: XiOptimal})
	if err != nil {
		t.Fatalf("AnalyzeServer(4096): %v", err)
	}
	if len(a.Ordering) != 4096 || len(a.Partition.ClassOf) != 4096 {
		t.Fatalf("analysis shape: %d ordered, %d classified, want 4096 each",
			len(a.Ordering), len(a.Partition.ClassOf))
	}
	for i := range srv.Sessions {
		pb, ob := a.PartitionBound(i), a.OrderingBound(i)
		if pb == nil || ob == nil {
			t.Fatalf("session %d: nil bound (partition %v, ordering %v)", i, pb == nil, ob == nil)
		}
		if pb.ThetaMax <= 0 || ob.ThetaMax <= 0 {
			t.Fatalf("session %d: non-positive θ ceiling", i)
		}
	}
}

// TestFeasibleOrderingTightSlack covers the regime that used to fail: a
// full-slack equal split makes the last eq. (5) position an exact
// equality, so only rounding decides it at every N.
func TestFeasibleOrderingTightSlack(t *testing.T) {
	for _, n := range []int{64, 1024, 8192} {
		srv := scalingServer(n, uint64(n)*13)
		rates, err := srv.DecomposedRates()
		if err != nil {
			t.Fatalf("n=%d: DecomposedRates: %v", n, err)
		}
		if _, err := srv.FeasibleOrdering(rates); err != nil {
			t.Fatalf("n=%d: FeasibleOrdering rejected a feasible full-slack split: %v", n, err)
		}
	}
}
