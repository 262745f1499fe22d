package gpsmath

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/ebb"
	"repro/internal/source"
)

// paperSet1 is Table 2, Set 1 of the paper: the four on-off sessions'
// E.B.B. characterizations.
func paperSet1() []ebb.Process {
	return []ebb.Process{
		{Rho: 0.2, Lambda: 1.0, Alpha: 1.74},
		{Rho: 0.25, Lambda: 0.92, Alpha: 1.76},
		{Rho: 0.2, Lambda: 0.84, Alpha: 2.13},
		{Rho: 0.25, Lambda: 1.0, Alpha: 1.62},
	}
}

// mixedServer is a non-RPPS server whose feasible partition has two
// classes: session 1 is over-weighted, session 2 under-weighted.
func mixedServer() Server {
	return Server{
		Rate: 1,
		Sessions: []Session{
			{Name: "a", Phi: 0.8, Arrival: ebb.Process{Rho: 0.1, Lambda: 1, Alpha: 2}},
			{Name: "b", Phi: 0.2, Arrival: ebb.Process{Rho: 0.4, Lambda: 1, Alpha: 1.5}},
		},
	}
}

func TestValidateServer(t *testing.T) {
	srv := NewRPPSServer(1, paperSet1(), []string{"s1", "s2", "s3", "s4"})
	if err := srv.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if srv.Sessions[0].Name != "s1" || srv.Sessions[3].Name != "s4" {
		t.Errorf("names not applied: %+v", srv.Sessions)
	}

	over := NewRPPSServer(0.8, paperSet1(), nil)
	if err := over.Validate(); !errors.Is(err, ErrOverloaded) {
		t.Errorf("overloaded server: err = %v, want ErrOverloaded", err)
	}

	empty := Server{Rate: 1}
	if err := empty.Validate(); err == nil {
		t.Error("empty server: want error")
	}

	badPhi := srv
	badPhi.Sessions = append([]Session(nil), srv.Sessions...)
	badPhi.Sessions[1].Phi = 0
	if err := badPhi.Validate(); err == nil {
		t.Error("zero phi: want error")
	}

	badRate := srv
	badRate.Rate = math.NaN()
	if err := badRate.Validate(); err == nil {
		t.Error("NaN rate: want error")
	}

	badEBB := srv
	badEBB.Sessions = append([]Session(nil), srv.Sessions...)
	badEBB.Sessions[2].Arrival.Alpha = -1
	if err := badEBB.Validate(); err == nil {
		t.Error("invalid EBB: want error")
	}
}

func TestGuaranteedRates(t *testing.T) {
	srv := NewRPPSServer(1, paperSet1(), nil)
	gs := srv.GuaranteedRates()
	sum := 0.0
	for i, g := range gs {
		if g != srv.GuaranteedRate(i) {
			t.Errorf("GuaranteedRates[%d] = %v != GuaranteedRate = %v", i, g, srv.GuaranteedRate(i))
		}
		sum += g
	}
	if math.Abs(sum-srv.Rate) > 1e-12 {
		t.Errorf("sum g = %v, want rate %v", sum, srv.Rate)
	}
	// RPPS: g_i = rho_i/sum(rho) · r; for Set 1 that's rho_i/0.9.
	want := 0.2 / 0.9
	if math.Abs(gs[0]-want) > 1e-12 {
		t.Errorf("g_1 = %v, want %v", gs[0], want)
	}
}

func TestIsRPPS(t *testing.T) {
	if !NewRPPSServer(1, paperSet1(), nil).IsRPPS() {
		t.Error("RPPS server not detected as RPPS")
	}
	if mixedServer().IsRPPS() {
		t.Error("mixed server detected as RPPS")
	}
}

func TestTotals(t *testing.T) {
	srv := NewRPPSServer(1, paperSet1(), nil)
	if got := srv.TotalRho(); math.Abs(got-0.9) > 1e-12 {
		t.Errorf("TotalRho = %v, want 0.9", got)
	}
	if got := srv.TotalPhi(); math.Abs(got-0.9) > 1e-12 {
		t.Errorf("TotalPhi = %v, want 0.9 for RPPS", got)
	}
	if got := srv.Slack(); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("Slack = %v, want 0.1", got)
	}
	if got := len(srv.Arrivals()); got != 4 {
		t.Errorf("Arrivals len = %d, want 4", got)
	}
}

func TestDecomposedRates(t *testing.T) {
	srv := NewRPPSServer(1, paperSet1(), nil)
	rates, err := srv.DecomposedRates()
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for i, r := range rates {
		if r <= srv.Sessions[i].Arrival.Rho {
			t.Errorf("rate[%d] = %v <= rho", i, r)
		}
		sum += r
	}
	if sum > srv.Rate+1e-12 {
		t.Errorf("sum rates = %v > server rate", sum)
	}
	// Every session gets the same share of the slack.
	share := rates[0] - srv.Sessions[0].Arrival.Rho
	for i, r := range rates {
		if e := r - srv.Sessions[i].Arrival.Rho; math.Abs(e-share) > 1e-15 {
			t.Errorf("rate[%d] carries eps %v, session 0 %v", i, e, share)
		}
	}
	over := srv
	over.Rate = 0.5
	if _, err := over.DecomposedRates(); !errors.Is(err, ErrOverloaded) {
		t.Errorf("no slack: err = %v, want ErrOverloaded", err)
	}
}

func TestFeasibleOrderingSatisfiesEq5(t *testing.T) {
	srv := mixedServer()
	rates := []float64{0.2, 0.5}
	ord, err := srv.FeasibleOrdering(rates)
	if err != nil {
		t.Fatalf("FeasibleOrdering: %v", err)
	}
	remPhi := srv.TotalPhi()
	used := 0.0
	for _, i := range ord {
		limit := srv.Sessions[i].Phi / remPhi * (srv.Rate - used)
		if rates[i] > limit+1e-12 {
			t.Errorf("eq.(5) violated at session %d: %v > %v", i, rates[i], limit)
		}
		used += rates[i]
		remPhi -= srv.Sessions[i].Phi
	}
}

func TestFeasibleOrderingInfeasible(t *testing.T) {
	srv := Server{Rate: 1, Sessions: []Session{
		{Name: "x", Phi: 1, Arrival: ebb.Process{Rho: 0.4, Lambda: 1, Alpha: 1}},
		{Name: "y", Phi: 1, Arrival: ebb.Process{Rho: 0.4, Lambda: 1, Alpha: 1}},
	}}
	if _, err := srv.FeasibleOrdering([]float64{0.9, 0.9}); !errors.Is(err, ErrNoFeasibleOrdering) {
		t.Errorf("err = %v, want ErrNoFeasibleOrdering", err)
	}
	// The test is exact over the float64 values: 0.9 + 0.05 + 0.05 is 1
	// in decimal, but those float64 values sum past 1 by 2.8e-17.
	three := Server{Rate: 1, Sessions: append(srv.Sessions, srv.Sessions[0])}
	if _, err := three.FeasibleOrdering([]float64{0.9, 0.05, 0.05}); !errors.Is(err, ErrNoFeasibleOrdering) {
		t.Errorf("rates past r by 2.8e-17: err = %v, want ErrNoFeasibleOrdering", err)
	}
	if _, err := srv.FeasibleOrdering([]float64{0.5}); err == nil {
		t.Error("mismatched rates length: want error")
	}
}

func TestFeasibleOrderingAlwaysExistsWhenRatesFit(t *testing.T) {
	// Paper §3: as long as Σr_i <= r a feasible ordering exists. Probe a
	// few random-ish configurations.
	srv := Server{Rate: 1, Sessions: []Session{
		{Name: "a", Phi: 5, Arrival: ebb.Process{Rho: 0.1, Lambda: 1, Alpha: 1}},
		{Name: "b", Phi: 1, Arrival: ebb.Process{Rho: 0.2, Lambda: 1, Alpha: 1}},
		{Name: "c", Phi: 0.1, Arrival: ebb.Process{Rho: 0.3, Lambda: 1, Alpha: 1}},
	}}
	for _, rates := range [][]float64{
		{0.2, 0.3, 0.5},
		{0.5, 0.3, 0.2},
		{0.15, 0.25, 0.35},
		{0.875, 0.0625, 0.0625},
	} {
		if _, err := srv.FeasibleOrdering(rates); err != nil {
			t.Errorf("rates %v: unexpected error %v", rates, err)
		}
	}
}

// TestExcessMatchesExactSum holds the feasibility test — the Sum2 fold
// with its error bound, the granularity check inside it, and the exact
// pass — to a math/big sum: rates spread over the whole float64 range
// (subnormals included), and rates whose sum r meets exactly, so that r
// itself, and r one ulp either side, put the test on its boundary.
func TestExcessMatchesExactSum(t *testing.T) {
	rng := source.NewRNG(5)
	check := func(tag string, rates []float64, r float64) {
		t.Helper()
		want := bigExcess(t, rates, r)
		sum := rateSum{s: -r}
		for _, v := range rates {
			sum = sum.plus(v)
		}
		w, _ := want.Float64()
		w = max(w, 0)
		// The fold may overestimate a positive excess by its error
		// bound, but never underestimate it by more than rounding.
		if e := sum.excess(rates, r); (e > 0) != (w > 0) || e < w*(1-0x1p-50) {
			t.Fatalf("%s: folded excess %v, exact %v", tag, e, want)
		}
		_, lo := math.Frexp(min(r, slices.Min(rates)))
		if e := exactExcess(rates, r, lo); (e > 0) != (w > 0) || math.Abs(e-w) > 0x1p-50*w {
			t.Fatalf("%s: exact-pass excess %v, exact %v", tag, e, want)
		}
	}
	// A tie whose smallest summand's last bit is narrower than the
	// fold's bound: only the exact sum can tell.
	for _, r := range []float64{1, math.Nextafter(1, 0), math.Nextafter(1, 2)} {
		check("tie below the fold's bound", []float64{0.5, 0.5 - 0x1p-60, 0x1p-60}, r)
	}
	for trial := 0; trial < 300; trial++ {
		rates := make([]float64, 1+rng.Intn(64))
		float := 0.0
		for i := range rates {
			rates[i] = math.Ldexp(0.5+rng.Float64(), rng.Intn(2000)-1070)
			float += rates[i]
		}
		for _, r := range []float64{float, math.Nextafter(float, 0), math.Nextafter(float, math.Inf(1)), 2 * float} {
			check(fmt.Sprintf("spread %d", trial), rates, r)
		}
		exact := 0.0
		for i := range rates {
			rates[i] = math.Ldexp(float64(1+rng.Intn(1<<20)), -30)
			exact += rates[i] // dyadic: every partial sum is exact
		}
		for _, r := range []float64{exact, math.Nextafter(exact, 0), math.Nextafter(exact, math.Inf(1))} {
			check(fmt.Sprintf("dyadic %d", trial), rates, r)
		}
	}
}

func TestFeasiblePartitionRPPSSingleClass(t *testing.T) {
	srv := NewRPPSServer(1, paperSet1(), nil)
	p, err := srv.FeasiblePartition()
	if err != nil {
		t.Fatalf("FeasiblePartition: %v", err)
	}
	if p.L() != 1 {
		t.Fatalf("RPPS partition has %d classes, want 1", p.L())
	}
	if len(p.Classes[0]) != 4 {
		t.Errorf("class size = %d, want 4", len(p.Classes[0]))
	}
	for i, c := range p.ClassOf {
		if c != 0 {
			t.Errorf("ClassOf[%d] = %d, want 0", i, c)
		}
	}
}

func TestFeasiblePartitionTwoClasses(t *testing.T) {
	srv := mixedServer()
	p, err := srv.FeasiblePartition()
	if err != nil {
		t.Fatalf("FeasiblePartition: %v", err)
	}
	if p.L() != 2 {
		t.Fatalf("partition has %d classes, want 2", p.L())
	}
	if p.ClassOf[0] != 0 || p.ClassOf[1] != 1 {
		t.Errorf("ClassOf = %v, want [0 1]", p.ClassOf)
	}
	rho, phi, members := srv.AggregateClass(p, 0)
	if rho != 0.1 || phi != 0.8 || len(members) != 1 {
		t.Errorf("AggregateClass = (%v, %v, %v)", rho, phi, members)
	}
}

func TestFeasiblePartitionStall(t *testing.T) {
	srv := Server{Rate: 1, Sessions: []Session{
		{Name: "x", Phi: 0.5, Arrival: ebb.Process{Rho: 0.6, Lambda: 1, Alpha: 1}},
		{Name: "y", Phi: 0.5, Arrival: ebb.Process{Rho: 0.6, Lambda: 1, Alpha: 1}},
	}}
	if _, err := srv.FeasiblePartition(); err == nil {
		t.Error("overloaded partition: want stall error")
	}
}

// Paper §7 example: three traffic classes with ρ/φ ratios 1, 4/3 and 2
// produce a three-class feasible partition when capacity allows.
func TestFeasiblePartitionThreeClasses(t *testing.T) {
	srv := Server{Rate: 1, Sessions: []Session{
		{Name: "hi", Phi: 0.60, Arrival: ebb.Process{Rho: 0.30, Lambda: 1, Alpha: 1}},
		{Name: "mid", Phi: 0.30, Arrival: ebb.Process{Rho: 0.30, Lambda: 1, Alpha: 1}},
		{Name: "lo", Phi: 0.15, Arrival: ebb.Process{Rho: 0.30, Lambda: 1, Alpha: 1}},
	}}
	if err := srv.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	p, err := srv.FeasiblePartition()
	if err != nil {
		t.Fatalf("FeasiblePartition: %v", err)
	}
	if p.L() != 3 {
		t.Fatalf("partition has %d classes, want 3: %v", p.L(), p.Classes)
	}
	for i, want := range []int{0, 1, 2} {
		if p.ClassOf[i] != want {
			t.Errorf("ClassOf[%d] = %d, want %d", i, p.ClassOf[i], want)
		}
	}
}
