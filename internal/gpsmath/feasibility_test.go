package gpsmath

import (
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"testing"
)

// bigExcess returns Σrates - r summed in math/big at a precision that
// spans every bit of every summand and of the sum, so that each Add is
// exact (checked): the oracle the feasibility test is held to.
func bigExcess(t testing.TB, rates []float64, r float64) *big.Float {
	t.Helper()
	_, lo := math.Frexp(r)
	hi := lo
	for _, v := range rates {
		_, e := math.Frexp(v)
		lo, hi = min(lo, e), max(hi, e)
	}
	prec := uint(hi-lo) + 53 + uint(bits.Len(uint(len(rates)))) + 2
	sum := new(big.Float).SetPrec(prec).SetFloat64(-r)
	var x big.Float
	for _, v := range rates {
		if sum.Add(sum, x.SetFloat64(v)); sum.Acc() != big.Exact {
			t.Fatalf("oracle: inexact add at precision %d", prec)
		}
	}
	return sum
}

// TestFeasibilityMatrix holds AnalyzeServer and the DeltaAnalyzer's
// refresh to one exact test of Σr_i <= r, the whole of eq. (5) along the
// greedy order, over gpsd-shaped populations (gpsdServer, seed 1):
// palettes 1, 4 and 64 at
//   - n ∈ {16384, 25000, 32768, 100000, 131072, 262144} and at
//     n ∈ {2^k - 1, 2^k, 2^k + 1 : k = 10…14}, each at Σφ/r = 0.25, 0.5,
//     0.75 and 0.95;
//   - every one of those n in the heavy-traffic corner Σφ/r = N/(N+16),
//     where the slack is thinnest.
//
// In every cell AnalyzeServer accepts the population, a math/big sum
// confirms that its rates fit the link, a refresh over the same
// population (one seeded session, the rest admitted) matches it bit for
// bit, and where the plain rates ρ_i + (r - Σρ)/N already fit, the
// analysis serves exactly those.
func TestFeasibilityMatrix(t *testing.T) {
	sizes := []int{16384, 25000, 32768, 100000, 131072, 262144}
	for k := 10; k <= 14; k++ {
		sizes = append(sizes, 1<<k-1, 1<<k, 1<<k+1)
	}
	opts := Options{Independent: true, Xi: XiOptimal}
	cells, oversum := 0, 0
	for _, pal := range []struct {
		name string
		p    []benchType
	}{{"palette1", palette1}, {"palette4", palette4}, {"palette64", palette64}} {
		for _, n := range sizes {
			// Loaded to 1, the population's rate is its Σφ.
			pop, _ := gpsdServer(t, pal.p, n, 1, 1)
			for _, load := range []float64{0.25, 0.5, 0.75, 0.95, float64(n) / float64(n+16)} {
				srv := Server{Rate: pop.Rate / load, Sessions: pop.Sessions}
				tag := fmt.Sprintf("%s/n=%d/load=%.6g", pal.name, n, load)
				cells++
				if feasibilityCell(t, tag, srv, opts) {
					oversum++
				}
			}
		}
	}
	t.Logf("%d cells; in %d the rates rho_i + (r - sum rho)/N sum past r", cells, oversum)
}

// feasibilityCell checks one matrix cell and reports whether the plain
// rates ρ_i + (r - Σρ)/N oversum it.
func feasibilityCell(t *testing.T, tag string, srv Server, opts Options) bool {
	t.Helper()
	fresh, err := AnalyzeServer(srv, opts)
	if err != nil {
		t.Fatalf("%s: AnalyzeServer refused: %v", tag, err)
	}
	if e := bigExcess(t, fresh.Rates, srv.Rate); e.Sign() > 0 {
		t.Fatalf("%s: the rates sum past r by %v", tag, e)
	}
	d, err := NewDeltaAnalyzer(Server{Rate: srv.Rate, Sessions: srv.Sessions[:1]}, opts)
	if err != nil {
		t.Fatalf("%s: seeding the analyzer: %v", tag, err)
	}
	for _, s := range srv.Sessions[1:] {
		if err := d.Admit(s); err != nil {
			t.Fatalf("%s: admit: %v", tag, err)
		}
	}
	an, err := d.Refresh()
	if err != nil {
		t.Fatalf("%s: refresh refused: %v", tag, err)
	}
	compareStructure(t, tag, an, fresh)

	// The analysis may move off the plain rates only where they oversum.
	n := len(srv.Sessions)
	share := (srv.Rate - srv.TotalRho()) / float64(n)
	plain := make([]float64, n)
	moved := -1
	for i, s := range srv.Sessions {
		plain[i] = s.Arrival.Rho + share
		if moved < 0 && !sameBits(fresh.Rates[i], plain[i]) {
			moved = i
		}
	}
	if moved < 0 {
		return false
	}
	if bigExcess(t, plain, srv.Rate).Sign() <= 0 {
		t.Fatalf("%s: rate[%d] = %v, want the plain rate %v: the plain rates fit",
			tag, moved, fresh.Rates[moved], plain[moved])
	}
	return true
}
