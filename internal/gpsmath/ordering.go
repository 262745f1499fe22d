package gpsmath

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"slices"
	"sort"
)

// DecomposedRates returns the dedicated rates r_i = ρ_i + ε of the
// decomposed system (paper §3), every session taking the same share
// ε = (r - Σρ)/N of the slack, lowered only where those float64 rates
// would sum past r: Σr_i <= r holds exactly, so the greedy r_i/φ_i
// order satisfies eq. (5) (FeasibleOrdering).
func (s Server) DecomposedRates() ([]float64, error) {
	sp, err := newSlackSplit(s.Rate, len(s.Sessions), s.TotalRho())
	if err != nil {
		return nil, err
	}
	rates := make([]float64, len(s.Sessions))
	sum := rateSum{s: -s.Rate}
	for i := range s.Sessions {
		rates[i], sum = sp.rate(&s.Sessions[i], sum)
	}
	if err := sp.settle(sum, s.Sessions, rates, nil); err != nil {
		return nil, err
	}
	return rates, nil
}

// slackSplit is one population's slack split: DecomposedRates and the
// DeltaAnalyzer's fused refresh pass both take every r_i from its rate
// method and settle the sum, so both produce the same bits.
type slackSplit struct {
	link  float64 // the server rate r
	share float64 // ε, the slack every session gets
}

// newSlackSplit checks the stability condition from the population's
// Σρ, the left-to-right fold of TotalRho, and starts ε at (r - Σρ)/N.
func newSlackSplit(rate float64, n int, totRho float64) (slackSplit, error) {
	slack := rate - totRho
	// The negated form catches NaN, which satisfies neither comparison.
	if !(slack > 0) {
		return slackSplit{}, ErrOverloaded
	}
	return slackSplit{link: rate, share: slack / float64(n)}, nil
}

// rate is the decomposed rate r = ρ + ε of one session, and sum with r
// folded in. Values, not pointers, keep the fold in registers.
func (sp slackSplit) rate(s *Session, sum rateSum) (float64, rateSum) {
	r := s.Arrival.Rho + sp.share
	return r, sum.plus(r)
}

// settle tests the rates the split handed out for sessions, folded
// into sum, against the link. Where they sum past it (the Σρ fold
// rounded low), it lowers ε by the excess over N plus two ulps of 2r,
// which no rate reaches, so one refill of rates (and of the ordering
// ratios, if ratio is non-nil) fits (DESIGN §8). A share no longer
// positive means no slack: refused.
func (sp *slackSplit) settle(sum rateSum, sessions []Session, rates, ratio []float64) error {
	for {
		excess := sum.excess(rates, sp.link)
		if excess == 0 {
			return nil
		}
		sp.share -= excess/float64(len(rates)) + 2*(math.Nextafter(2*sp.link, math.Inf(1))-2*sp.link)
		if !(sp.share > 0) {
			return ErrOverloaded
		}
		sum = rateSum{s: -sp.link}
		for i := range sessions {
			rates[i], sum = sp.rate(&sessions[i], sum)
			if ratio != nil {
				ratio[i] = rates[i] / sessions[i].Phi
			}
		}
	}
}

// rateSum folds -r and then a population's rates with Sum2 (Ogita, Rump
// and Oishi): a running float sum s, and the exact rounding error of
// each addition (Knuth's TwoSum) folded into c.
type rateSum struct{ s, c float64 }

func (x rateSum) plus(v float64) rateSum {
	t := x.s + v
	z := t - x.s
	return rateSum{t, x.c + (x.s - (t - z)) + (v - z)}
}

// excess returns by how much the rates folded into x exceed r: 0
// exactly when Σrates <= r, else the excess, rounded or overestimated
// by at most the error bound (DESIGN §8). Inside it |T| <= 2·bound, and
// T is a multiple of the smallest summand's last bit 2^(lo-53): where
// that bit is wider, T is 0, and otherwise an exact sum decides.
func (x rateSum) excess(rates []float64, r float64) float64 {
	const u = 0x1p-53
	d := x.s + x.c
	n := float64(len(rates) + 1)
	bound := 4*n*n*u*u*(r+math.Abs(d)) + 2*u*math.Abs(d)
	switch {
	case d > bound:
		return d + bound
	case d < -bound:
		return 0
	}
	_, lo := math.Frexp(min(r, slices.Min(rates)))
	if 2*bound < math.Ldexp(1, lo-53) {
		return 0
	}
	return exactExcess(rates, r, lo)
}

// exactExcess returns Σrates - r, summed without rounding, as a float64
// when positive and 0 when the sum is at most r. For rates summing to
// under 2r, every partial sum lies below 2r, and a significand from
// there down to the last bit of the smallest summand (exponent lo) holds
// it exactly.
func exactExcess(rates []float64, r float64, lo int) float64 {
	_, hi := math.Frexp(r)
	sum := new(big.Float).SetPrec(uint(hi-lo+64) + uint(bits.Len(uint(len(rates))))).SetFloat64(-r)
	var x big.Float
	for _, v := range rates {
		sum.Add(sum, x.SetFloat64(v))
	}
	e, _ := sum.Float64()
	return max(e, 0)
}

// ErrNoFeasibleOrdering is returned by FeasibleOrdering exactly when
// the rates sum past the server rate.
var ErrNoFeasibleOrdering = errors.New("gpsmath: no feasible ordering exists")

// FeasibleOrdering returns a permutation ord of the sessions such that,
// relabeling by ord, paper eq. (5) holds:
//
//	r_{ord[k]} <= φ_{ord[k]} / Σ_{j>=k} φ_{ord[j]} · (r - Σ_{j<k} r_{ord[j]}).
//
// It is the greedy order of increasing r_i/φ_i, which satisfies eq. (5)
// at every position if and only if Σr_i <= r (DESIGN §8 has the proof),
// so the verification is that one inequality, tested exactly.
func (s Server) FeasibleOrdering(rates []float64) ([]int, error) {
	n := len(s.Sessions)
	if len(rates) != n {
		return nil, fmt.Errorf("%w: %d rates for %d sessions", ErrInvalidInput, len(rates), n)
	}
	if !(s.Rate > 0) || math.IsInf(s.Rate, 1) {
		return nil, fmt.Errorf("%w: server rate = %v, want positive finite", ErrInvalidInput, s.Rate)
	}
	sum := rateSum{s: -s.Rate}
	for i, r := range rates {
		// NaN would scramble the sort and the sum alike.
		if !(r > 0) || math.IsInf(r, 1) || math.IsNaN(r) {
			return nil, fmt.Errorf("%w: rate[%d] = %v, want positive finite", ErrInvalidInput, i, r)
		}
		sum = sum.plus(r)
	}
	if excess := sum.excess(rates, s.Rate); excess > 0 {
		return nil, fmt.Errorf("%w: the rates sum past the server rate %v by %v",
			ErrNoFeasibleOrdering, s.Rate, excess)
	}
	return s.greedyOrder(rates), nil
}

// greedyOrder sorts the session indices by (r_i/φ_i, index), over
// ratios divided once rather than in every comparison.
func (s Server) greedyOrder(rates []float64) []int {
	ratio := make([]float64, len(rates))
	idx := make([]int, len(rates))
	for i := range idx {
		idx[i] = i
		ratio[i] = rates[i] / s.Sessions[i].Phi
	}
	sort.Sort(ratioOrder{idx: idx, ratio: ratio})
	return idx
}

// ratioOrder sorts a session index permutation by precomputed r_i/φ_i,
// breaking ties toward the lower session index. The tie-break makes the
// comparator a strict total order, so the sorted permutation is unique:
// any sorting procedure — the fresh sort here, or the DeltaAnalyzer's
// incremental insertion repair — lands on bit-identical orderings, which
// the delta-vs-fresh differential suite relies on (equal-ratio sessions
// are common under the daemon's small type palettes).
type ratioOrder struct {
	idx   []int
	ratio []float64
}

func (o ratioOrder) Len() int { return len(o.idx) }
func (o ratioOrder) Less(a, b int) bool {
	ra, rb := o.ratio[o.idx[a]], o.ratio[o.idx[b]]
	if ra != rb {
		return ra < rb
	}
	return o.idx[a] < o.idx[b]
}
func (o ratioOrder) Swap(a, b int) { o.idx[a], o.idx[b] = o.idx[b], o.idx[a] }

// Partition is the feasible partition H_1, ..., H_L of paper §5: Classes[k]
// holds the original indices of the sessions in H_{k+1}.
type Partition struct {
	Classes [][]int
	// ClassOf[i] is the 0-based class index of session i.
	ClassOf []int
}

// L returns the number of partition classes.
func (p Partition) L() int { return len(p.Classes) }

// FeasiblePartition computes the feasible partition induced by
// {φ_i} and {ρ_i} (paper eqs. 37–39): session i joins the first class
// H_{k+1} with
//
//	ρ_i/φ_i < (r - Σ_{j∈H^k} ρ_j) / Σ_{j∉H^k} φ_j.
//
// Under the stability condition Σρ < r the recursion always terminates
// with every session placed.
//
// The rounds are computed over one global sort of ρ_i/φ_i instead of the
// round-per-rescan recursion the definition suggests (retained as
// feasiblePartitionReference): the membership predicate ρ_i/φ_i <
// threshold is monotone in the ratio, so each class H_{k+1} is a
// contiguous block of the ascending ratio order and each round only has
// to advance a cursor. That makes the whole partition O(N log N) instead
// of O(L·N). Within a block the ρ/φ running sums are accumulated in
// ascending session-index order — exactly the order the reference's
// index scan uses — so the per-round thresholds, and hence the resulting
// partition, are bit-identical to the reference.
func (s Server) FeasiblePartition() (Partition, error) {
	n := len(s.Sessions)
	p := Partition{ClassOf: make([]int, n)}
	ratio := make([]float64, n)
	// idx doubles as the arena backing every class slice: the classes are
	// contiguous blocks of the sorted order, re-sorted by session index in
	// place.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
		p.ClassOf[i] = -1
		ratio[i] = s.Sessions[i].Arrival.Rho / s.Sessions[i].Phi
	}
	sort.Sort(ratioOrder{idx: idx, ratio: ratio})
	placedRho := 0.0
	remPhi := s.TotalPhi()
	start := 0
	for start < n {
		threshold := (s.Rate - placedRho) / remPhi
		end := start
		for end < n && ratio[idx[end]] < threshold {
			end++
		}
		if end == start {
			return Partition{}, fmt.Errorf("gpsmath: feasible partition stalled with %d sessions left (sum rho >= rate?)", n-start)
		}
		class := idx[start:end:end]
		sort.Ints(class)
		k := len(p.Classes)
		for _, i := range class {
			p.ClassOf[i] = k
			placedRho += s.Sessions[i].Arrival.Rho
			remPhi -= s.Sessions[i].Phi
		}
		p.Classes = append(p.Classes, class)
		start = end
	}
	return p, nil
}

// AggregateClass lumps the sessions of partition class k into the paper's
// aggregate session: ρ̃ = Σρ_i, φ̃ = Σφ_i, and the E.B.B. prefactor at a
// given θ is exp(θ·Σσ̂_i(θ)) (paper §5). It returns ρ̃, φ̃ and the list of
// member arrival processes for downstream MGF computations.
func (s Server) AggregateClass(p Partition, k int) (rho, phi float64, members []int) {
	for _, i := range p.Classes[k] {
		rho += s.Sessions[i].Arrival.Rho
		phi += s.Sessions[i].Phi
	}
	return rho, phi, p.Classes[k]
}
