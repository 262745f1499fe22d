package gpsmath

import (
	"fmt"
	"math"

	"repro/internal/ebb"
	"repro/internal/numeric"
)

// SessionBounds packages every statistical bound the paper yields for one
// session at one GPS server. Bounds come in two shapes:
//
//   - a θ-family: for each admissible Chernoff parameter θ ∈ (0, ThetaMax),
//     Pr{Q_i(t) >= q} <= Λ(θ)·e^{-θq},
//     Pr{D_i(t) >= d} <= Λ(θ)·e^{-θ·g_i·d},
//     and the departure process is a (ρ_i, Λ(θ), θ)-E.B.B. process
//     (Theorems 7, 8, 11, 12); and
//   - fixed tails with a pinned decay rate (Theorem 10 for sessions in
//     H_1, whose backlog tail decays at the full source rate α_i).
//
// The evaluation methods take the best bound available at each abscissa.
type SessionBounds struct {
	Name    string
	Index   int     // index of the session in the server's Sessions slice
	G       float64 // guaranteed backlog clearing rate g_i
	Rho     float64 // long-term arrival rate ρ_i
	Theorem string  // provenance, e.g. "thm7", "thm10+thm11"

	// ThetaMax is the exclusive supremum of admissible θ for Prefactor.
	ThetaMax float64
	// Prefactor evaluates Λ(θ); it returns +Inf outside (0, ThetaMax).
	// Nil when only fixed tails are available.
	Prefactor func(theta float64) float64
	// Fixed holds additional single-exponential backlog tails valid for
	// this session (evaluated at q; the delay version divides by g).
	Fixed []numeric.ExpTail

	// floor lower-bounds log Λ(θ) over every θ from the family's Lemma 6
	// terms (DESIGN §16). The Theorem 7/8 constructors set it; the zero
	// value knows no floor.
	floor lemma6Floor
}

// thetaGrid is the scan resolution used when optimizing over θ.
const thetaGrid = 192

// PrefactorAt evaluates Λ(θ), or +Inf if no θ-family is available.
func (b *SessionBounds) PrefactorAt(theta float64) float64 {
	if b.Prefactor == nil {
		return math.Inf(1)
	}
	return b.Prefactor(theta)
}

// BacklogTailAt returns the θ-family backlog bound at a specific θ as an
// exponential tail.
func (b *SessionBounds) BacklogTailAt(theta float64) numeric.ExpTail {
	return numeric.ExpTail{Prefactor: b.PrefactorAt(theta), Rate: theta}
}

// familyBest minimizes Λ(θ)e^{-θq} over admissible θ, returning the
// achieving tail. The second result is false when no family is available.
func (b *SessionBounds) familyBest(q float64) (numeric.ExpTail, bool) {
	if b.Prefactor == nil || !(b.ThetaMax > 0) {
		return numeric.ExpTail{}, false
	}
	obj := func(th float64) float64 {
		lam := b.Prefactor(th)
		if math.IsInf(lam, 1) {
			return math.Inf(1)
		}
		// Work in log domain: small q with huge Λ must not underflow.
		return math.Log(lam) - th*q
	}
	th, _ := numeric.MinimizeScan(obj, 0, b.ThetaMax, thetaGrid)
	return numeric.ExpTail{Prefactor: b.Prefactor(th), Rate: th}, true
}

// BestBacklogTail returns the tail (fixed or θ-optimized) with the lowest
// value at backlog level q.
func (b *SessionBounds) BestBacklogTail(q float64) numeric.ExpTail {
	best := numeric.ExpTail{Prefactor: math.Inf(1), Rate: 1e-300}
	bestV := math.Inf(1)
	for _, f := range b.Fixed {
		if v := f.EvalRaw(q); v < bestV {
			best, bestV = f, v
		}
	}
	if t, ok := b.familyBest(q); ok {
		if v := t.EvalRaw(q); v < bestV {
			best = t
		}
	}
	return best
}

// BacklogTail evaluates the best available bound on Pr{Q_i(t) >= q},
// clipped to [0, 1]. A NaN level gets the trivial bound 1 rather than
// letting NaN propagate into downstream admission decisions.
func (b *SessionBounds) BacklogTail(q float64) float64 {
	if math.IsNaN(q) {
		return 1
	}
	return b.BestBacklogTail(q).Eval(q)
}

// cannotBeat reports, without evaluating the family, that BacklogTail(q)
// is no lower than p, a probability in [0, 1]. Either p is 0, which no
// clipped bound undercuts, or the Lemma 6 floor clears 2p at q. With
// Λ(θ) >= e^S at every θ, and Λ finite only for θ in (0, ThetaMax), the
// family's clipped bound is at least min(1, e^{S-ThetaMax·max(q,0)}); so
// S >= ln(2p) + ThetaMax·max(q,0) puts it at or above p, with a factor-2
// margin that swamps rounding (DESIGN §16). A NaN level or p is never
// cleared.
func (b *SessionBounds) cannotBeat(q, p float64) bool {
	if p == 0 {
		return true
	}
	if !(p <= 1) || math.IsNaN(q) {
		return false
	}
	return b.floor.reaches(math.Log(2*p) + b.ThetaMax*math.Max(q, 0))
}

// minWith returns BacklogTail(q) when it is strictly below p, else p:
// the best-of-routes min behind every Best* value and admission verdict,
// with p the partition route's value and b the ordering route's family.
// The family is evaluated only when cannotBeat fails; a skipped
// evaluation could only have returned a value the strict < discards, so
// the result is the unpruned min bit for bit.
func (b *SessionBounds) minWith(p, q float64) float64 {
	if b.cannotBeat(q, p) {
		return p
	}
	if w := b.BacklogTail(q); w < p {
		return w
	}
	return p
}

// DelayTail evaluates the best available bound on Pr{D_i(t) >= d}. Since
// every backlog bound converts to a delay bound through the guaranteed
// clearing rate (D <= Q/g on a busy period), this is BacklogTail(g_i·d).
func (b *SessionBounds) DelayTail(d float64) float64 {
	return b.BacklogTail(b.G * d)
}

// BacklogQuantile returns the smallest backlog level q whose bound drops
// to eps, optimizing θ (and the fixed tails) per level.
func (b *SessionBounds) BacklogQuantile(eps float64) float64 {
	// The negated form also sends NaN to +Inf (no finite level is
	// known to reach an ill-defined probability).
	if !(eps > 0) {
		return math.Inf(1)
	}
	best := math.Inf(1)
	for _, f := range b.Fixed {
		if x := f.Invert(eps); x < best {
			best = x
		}
	}
	if b.Prefactor != nil && b.ThetaMax > 0 {
		obj := func(th float64) float64 {
			lam := b.Prefactor(th)
			if math.IsInf(lam, 1) || lam <= 0 {
				if lam == 0 {
					return 0
				}
				return math.Inf(1)
			}
			x := math.Log(lam/eps) / th
			if x < 0 {
				x = 0
			}
			return x
		}
		_, q := numeric.MinimizeScan(obj, 0, b.ThetaMax, thetaGrid)
		if q < best {
			best = q
		}
	}
	return best
}

// DelayQuantile returns the smallest delay d whose bound drops to eps.
func (b *SessionBounds) DelayQuantile(eps float64) float64 {
	return b.BacklogQuantile(eps) / b.G
}

// OutputEBB returns the E.B.B. characterization of the session's
// departure process at Chernoff parameter θ (paper eqs. 25/35/53/58):
// a (ρ_i, Λ(θ), θ)-E.B.B. process.
func (b *SessionBounds) OutputEBB(theta float64) (ebb.Process, error) {
	if math.IsNaN(theta) {
		return ebb.Process{}, fmt.Errorf("%w: theta = NaN for session %s", ErrInvalidInput, b.Name)
	}
	lam := b.PrefactorAt(theta)
	if math.IsInf(lam, 1) {
		return ebb.Process{}, fmt.Errorf("gpsmath: theta = %v outside (0, %v) for session %s", theta, b.ThetaMax, b.Name)
	}
	return ebb.Process{Rho: b.Rho, Lambda: lam, Alpha: theta}, nil
}

// BestOutputEBB picks the output characterization whose Lemma-5 backlog
// prefactor at a downstream queue of rate downstreamRate is smallest —
// a pragmatic recipe for propagating characterizations through a network
// when the next hop's service rate is known. When downstreamRate <= ρ_i
// it falls back to minimizing Λ(θ) at θ = ThetaMax/2.
func (b *SessionBounds) BestOutputEBB(downstreamRate float64) (ebb.Process, error) {
	if math.IsNaN(downstreamRate) || math.IsInf(downstreamRate, -1) {
		return ebb.Process{}, fmt.Errorf("%w: downstream rate = %v for session %s", ErrInvalidInput, downstreamRate, b.Name)
	}
	if b.Prefactor == nil || !(b.ThetaMax > 0) {
		return ebb.Process{}, fmt.Errorf("gpsmath: session %s has no θ-family for output characterization", b.Name)
	}
	obj := func(th float64) float64 {
		lam := b.Prefactor(th)
		if math.IsInf(lam, 1) {
			return math.Inf(1)
		}
		out := ebb.Process{Rho: b.Rho, Lambda: lam, Alpha: th}
		if downstreamRate > b.Rho {
			tail, err := out.DeltaTail(downstreamRate)
			if err != nil {
				return math.Inf(1)
			}
			// Compare tails at a reference excess level: the tail value
			// at x = 1/θ-ish scale. Use log(prefactor) - rate as a scale-
			// free score (tail value at x = 1).
			return math.Log(tail.Prefactor) - tail.Rate
		}
		return math.Log(lam)
	}
	th, _ := numeric.MinimizeScan(obj, 0, b.ThetaMax, thetaGrid)
	return b.OutputEBB(th)
}
