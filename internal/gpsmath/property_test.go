package gpsmath

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/ebb"
	"repro/internal/source"
)

// randomServer builds a stable random server from three seed bytes:
// 2-5 sessions, random rates and weights, total load <= 0.9.
func randomServer(a, b, c uint8) Server {
	rng := source.NewRNG(uint64(a)<<16 | uint64(b)<<8 | uint64(c))
	n := 2 + rng.Intn(4)
	srv := Server{Rate: 1}
	budget := 0.9
	for i := 0; i < n; i++ {
		share := budget / float64(n)
		rho := share * (0.3 + 0.7*rng.Float64())
		srv.Sessions = append(srv.Sessions, Session{
			Name: "s",
			Phi:  0.05 + rng.Float64(),
			Arrival: ebb.Process{
				Rho:    rho,
				Lambda: 0.2 + 2*rng.Float64(),
				Alpha:  0.3 + 3*rng.Float64(),
			},
		})
	}
	return srv
}

// Property: the feasible partition always covers every session exactly
// once, classes are nonempty, and class thresholds are honored (eq. 39).
func TestFeasiblePartitionProperty(t *testing.T) {
	prop := func(a, b, c uint8) bool {
		srv := randomServer(a, b, c)
		p, err := srv.FeasiblePartition()
		if err != nil {
			return false
		}
		seen := make([]bool, len(srv.Sessions))
		placedRho := 0.0
		remPhi := srv.TotalPhi()
		for _, class := range p.Classes {
			if len(class) == 0 {
				return false
			}
			threshold := (srv.Rate - placedRho) / remPhi
			for _, i := range class {
				if seen[i] {
					return false
				}
				seen[i] = true
				s := srv.Sessions[i]
				// Definition: members are strictly below the threshold.
				if !(s.Arrival.Rho/s.Phi < threshold) {
					return false
				}
			}
			for _, i := range class {
				placedRho += srv.Sessions[i].Arrival.Rho
				remPhi -= srv.Sessions[i].Phi
			}
		}
		for _, ok := range seen {
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: a feasible ordering always exists for DecomposedRates, and
// satisfies eq. (5).
func TestFeasibleOrderingProperty(t *testing.T) {
	prop := func(a, b, c uint8) bool {
		srv := randomServer(a, b, c)
		rates, err := srv.DecomposedRates()
		if err != nil {
			return false
		}
		ord, err := srv.FeasibleOrdering(rates)
		if err != nil {
			return false
		}
		remPhi := srv.TotalPhi()
		used := 0.0
		for _, i := range ord {
			limit := srv.Sessions[i].Phi / remPhi * (srv.Rate - used)
			if rates[i] > limit*(1+1e-9) {
				return false
			}
			used += rates[i]
			remPhi -= srv.Sessions[i].Phi
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: every bound the analysis produces behaves like a probability
// tail — within [0,1], nonincreasing, and eventually small — for both the
// independent and Hölder routes.
func TestAnalysisBoundsProperty(t *testing.T) {
	prop := func(a, b, c uint8, independent bool) bool {
		srv := randomServer(a, b, c)
		an, err := AnalyzeServer(srv, Options{Independent: independent, Xi: XiOptimal})
		if err != nil {
			return false
		}
		for i := range srv.Sessions {
			for _, set := range [][]*SessionBounds{{an.PartitionBound(i)}, {an.OrderingBound(i)}} {
				sb := set[0]
				prev := 1.1
				for q := 0.0; q <= 80; q += 8 {
					v := sb.BacklogTail(q)
					if v < 0 || v > 1 || v > prev+1e-9 {
						return false
					}
					prev = v
				}
				if sb.BacklogTail(400) > 1e-3 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: the partition-route prefactor matches eq. (54) at ξ=1 for a
// randomly chosen session and θ.
func TestTheorem11Eq54Property(t *testing.T) {
	prop := func(a, b, c uint8, pick uint8, th uint8) bool {
		srv := randomServer(a, b, c)
		p, err := srv.FeasiblePartition()
		if err != nil {
			return false
		}
		i := int(pick) % len(srv.Sessions)
		sb, err := srv.Theorem11(p, i, XiOne)
		if err != nil {
			return false
		}
		theta := sb.ThetaMax * (0.05 + 0.9*float64(th)/255)
		got := sb.PrefactorAt(theta)
		want := srv.Theorem11PaperPrefactor(p, i, theta)
		if math.IsInf(got, 1) && math.IsInf(want, 1) {
			return true
		}
		return math.Abs(got-want) <= 1e-6*want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: guaranteed rates sum to the server rate and each session's
// effective class rate gEff dominates the paper's requirement gEff > ρ.
func TestClassGeometryProperty(t *testing.T) {
	prop := func(a, b, c uint8) bool {
		srv := randomServer(a, b, c)
		p, err := srv.FeasiblePartition()
		if err != nil {
			return false
		}
		sum := 0.0
		for i := range srv.Sessions {
			sum += srv.GuaranteedRate(i)
			geo := srv.classGeometry(p, i)
			if !(geo.epsBudget > 0) {
				return false
			}
			if geo.psi <= 0 || geo.psi > 1+1e-12 {
				return false
			}
		}
		return math.Abs(sum-srv.Rate) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
