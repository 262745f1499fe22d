package gpsmath

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// EpsilonSplit selects how the rate slack r - Σρ is distributed among the
// sessions as ε_i when forming the dedicated rates r_i = ρ_i + ε_i of the
// decomposed system (paper §3).
type EpsilonSplit int

const (
	// SplitEqual gives every session ε_i = slack/N.
	SplitEqual EpsilonSplit = iota
	// SplitProportional gives ε_i = slack·ρ_i/Σρ_j, preserving the
	// relative loading of the sessions.
	SplitProportional
	// SplitByPhi gives ε_i = slack·φ_i/Σφ_j, mirroring the GPS weights.
	SplitByPhi
)

// String implements fmt.Stringer.
func (e EpsilonSplit) String() string {
	switch e {
	case SplitEqual:
		return "equal"
	case SplitProportional:
		return "proportional"
	case SplitByPhi:
		return "by-phi"
	default:
		return fmt.Sprintf("EpsilonSplit(%d)", int(e))
	}
}

// DecomposedRates returns r_i = ρ_i + ε_i with the slack distributed
// according to split, scaled by frac in (0, 1] of the available slack
// (using slightly less than the full slack keeps strict inequalities
// strict in the presence of rounding).
func (s Server) DecomposedRates(split EpsilonSplit, frac float64) ([]float64, error) {
	totRho, totPhi := s.TotalRho(), 0.0
	if split == SplitByPhi {
		totPhi = s.TotalPhi()
	}
	sp, err := newSlackSplit(split, frac, s.Rate, len(s.Sessions), totRho, totPhi)
	if err != nil {
		return nil, err
	}
	rates := make([]float64, len(s.Sessions))
	for i := range s.Sessions {
		rates[i] = sp.rate(&s.Sessions[i])
	}
	return rates, nil
}

// slackSplit is one population's slack distribution: DecomposedRates
// and the DeltaAnalyzer's fused refresh pass both take every r_i from
// its rate method, so both produce the same bits.
type slackSplit struct {
	split          EpsilonSplit
	slack, share   float64 // share = slack/N, the SplitEqual ε
	totRho, totPhi float64
}

// newSlackSplit checks frac and the stability condition, in that order,
// from the population's Σρ (and Σφ under SplitByPhi), each the
// left-to-right fold of TotalRho and TotalPhi.
func newSlackSplit(split EpsilonSplit, frac, rate float64, n int, totRho, totPhi float64) (slackSplit, error) {
	// The negated form catches NaN, which satisfies neither comparison.
	if !(frac > 0 && frac <= 1) {
		return slackSplit{}, fmt.Errorf("%w: slack fraction = %v, want in (0,1]", ErrInvalidInput, frac)
	}
	slack := (rate - totRho) * frac
	if slack <= 0 {
		return slackSplit{}, ErrOverloaded
	}
	if split != SplitEqual && split != SplitProportional && split != SplitByPhi {
		return slackSplit{}, fmt.Errorf("gpsmath: unknown epsilon split %v", split)
	}
	return slackSplit{split: split, slack: slack, share: slack / float64(n), totRho: totRho, totPhi: totPhi}, nil
}

// rate is the decomposed rate r = ρ + ε of one session.
func (sp *slackSplit) rate(s *Session) float64 {
	switch sp.split {
	case SplitEqual:
		return s.Arrival.Rho + sp.share
	case SplitProportional:
		return s.Arrival.Rho + sp.slack*s.Arrival.Rho/sp.totRho
	default:
		return s.Arrival.Rho + sp.slack*s.Phi/sp.totPhi
	}
}

// ErrNoFeasibleOrdering is returned when no ordering satisfies eq. (5);
// with Σr_i <= r this cannot happen, so seeing it indicates inconsistent
// inputs.
var ErrNoFeasibleOrdering = errors.New("gpsmath: no feasible ordering exists")

// FeasibleOrdering returns a permutation ord of the sessions such that,
// relabeling by ord, paper eq. (5) holds:
//
//	r_{ord[k]} <= φ_{ord[k]} / Σ_{j>=k} φ_{ord[j]} · (r - Σ_{j<k} r_{ord[j]}).
//
// It uses the greedy rule of picking, at each step, the remaining session
// with the smallest r_i/φ_i; if that session violates the inequality no
// feasible ordering exists.
func (s Server) FeasibleOrdering(rates []float64) ([]int, error) {
	n := len(s.Sessions)
	if len(rates) != n {
		return nil, fmt.Errorf("%w: %d rates for %d sessions", ErrInvalidInput, len(rates), n)
	}
	for i, r := range rates {
		// NaN would both scramble the sort and slip past the eq. (5)
		// check below (every comparison with NaN is false).
		if !(r > 0) || math.IsInf(r, 1) || math.IsNaN(r) {
			return nil, fmt.Errorf("%w: rate[%d] = %v, want positive finite", ErrInvalidInput, i, r)
		}
	}
	// Precompute r_i/φ_i once: a closure comparator would otherwise redo
	// two divisions per comparison (O(n log n) of them). The concrete
	// sort.Interface type sidesteps sort.Slice's reflection-based swapper.
	ratio := make([]float64, n)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
		ratio[i] = rates[i] / s.Sessions[i].Phi
	}
	sort.Sort(ratioOrder{idx: idx, ratio: ratio})
	// Verify eq. (5) along the sorted order. At large N this check is
	// numerically delicate: with the full slack distributed (frac = 1 in
	// DecomposedRates) the last position satisfies eq. (5) with exact
	// equality, and near-equal ratios make earlier positions almost tight
	// too, so the margin can sit below the rounding error of the running
	// sums. Suffix φ sums (fresh backward accumulation, no cancellation
	// from repeated subtraction) and a Neumaier-compensated Σr keep the
	// sums themselves at O(ulp) error, and the tolerance is relative at
	// 1e-9 — wide enough to absorb the O(n·ulp) error already baked into
	// the rates by DecomposedRates at n ~ 10^5, narrow enough to reject
	// genuinely infeasible inputs (callers derive rates from Σρ < r, for
	// which eq. (5) holds exactly).
	tailPhi := make([]float64, n+1)
	for k := n - 1; k >= 0; k-- {
		tailPhi[k] = tailPhi[k+1] + s.Sessions[idx[k]].Phi
	}
	used, usedComp := 0.0, 0.0
	const tol = 1e-9
	for k, i := range idx {
		limit := s.Sessions[i].Phi / tailPhi[k] * (s.Rate - (used + usedComp))
		if rates[i] > limit+tol*math.Abs(limit) {
			return nil, fmt.Errorf("%w: session %d needs rate %v > limit %v",
				ErrNoFeasibleOrdering, i, rates[i], limit)
		}
		t := used + rates[i]
		if math.Abs(used) >= math.Abs(rates[i]) {
			usedComp += (used - t) + rates[i]
		} else {
			usedComp += (rates[i] - t) + used
		}
		used = t
	}
	return idx, nil
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
