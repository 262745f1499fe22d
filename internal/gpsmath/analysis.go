package gpsmath

import (
	"fmt"
	"math"

	"repro/internal/numeric"
)

// Options steers AnalyzeServer.
type Options struct {
	// Independent declares the session arrival processes mutually
	// independent, enabling Theorems 7 and 11; otherwise the Hölder
	// variants (Theorems 8 and 12) are used.
	Independent bool
	// Xi selects the ξ handling inside the Lemma 6 terms.
	Xi XiMode
}

// Analysis is the full single-node result: the feasible partition, the
// global feasible ordering, and the memos every per-session bound is
// built from. Bound objects are constructed on demand — an O(1)
// construction per session — so an analysis never pays for N bound
// objects nobody reads; PartitionBound and OrderingBound (or the Best*
// evaluators and AdmissionDecision, which go through them) are the
// only way to a session's bounds.
type Analysis struct {
	Server    Server
	Partition Partition
	// Ordering is the global feasible ordering (the greedy min r/φ order)
	// behind OrderingBound.
	Ordering []int
	// Rates are the decomposed rates r_i behind OrderingBound.
	Rates []float64

	opts Options
	pm   *partitionMemo
	om   *orderingMemo
	// posOf[i] is session i's position in Ordering (the inverse
	// permutation).
	posOf []int
	// gen holds the arrays above; nil once its DeltaAnalyzer recycled it.
	gen *generation
}

// AnalyzeServer validates the server, derives its feasible partition
// (eqs. 37–39) and its feasible ordering with the eq. (5) test, and
// returns the analysis from which PartitionBound and OrderingBound build
// every per-session bound the paper's single-node theory offers under
// the given options. It is the one verified constructor: the
// DeltaAnalyzer calls it wherever it has no previous ordering to repair.
func AnalyzeServer(srv Server, opts Options) (*Analysis, error) {
	if err := srv.Validate(); err != nil {
		return nil, err
	}
	part, err := srv.FeasiblePartition()
	if err != nil {
		return nil, err
	}
	rates, err := srv.DecomposedRates()
	if err != nil {
		return nil, err
	}
	g := &generation{rates: rates, ord: srv.greedyOrder(rates)}
	g.pm.addPartition(srv, part)
	return newAnalysis(srv, opts, srv.TotalPhi(), part, g)
}

// generation holds the arrays one analysis reads besides its session
// slice: the decomposed rates, the ordering and its inverse, the
// partition's class map and class arena, the ordering memo's float
// block, and both memos. AnalyzeServer allocates a fresh one per
// analysis; a DeltaAnalyzer refills the generations its analyses
// returned through Recycle, so a steady refresh allocates none of them.
type generation struct {
	// owner is the DeltaAnalyzer the generation belongs to (nil outside
	// one), and pop the backing of the analysis's session slice, on
	// which the generation holds one of the owner's references.
	owner *DeltaAnalyzer
	pop   *population

	rates   []float64
	ord     []int
	posOf   []int
	classOf []int
	arena   []int // backs Partition.Classes
	classes [][]int
	floats  []float64 // backs the ordering memo's per-position arrays
	pm      partitionMemo
	om      orderingMemo
}

// newAnalysis assembles srv's analysis from its partition part, whose
// class aggregates g.pm has folded, and the ordering and decomposed
// rates in g, none of which is mutated afterwards; totalPhi is srv's
// Σφ fold, shared by both memos. It refuses the analysis unless every
// session's partition-route bounds are constructible, naming the lowest
// session index that is not; the ordering route's constructors cannot
// fail for a position of the ordering.
func newAnalysis(srv Server, opts Options, totalPhi float64, part Partition, g *generation) (*Analysis, error) {
	n := len(srv.Sessions)
	g.posOf = resize(g.posOf, n, 0)
	g.floats = resize(g.floats, orderingFloats(n), 0)
	g.pm.finish(srv, part, totalPhi)
	if i := g.pm.firstRefused(); i < n {
		return nil, g.pm.slackErr(i)
	}
	a := &Analysis{
		Server:    srv,
		Partition: part,
		Ordering:  g.ord[:n],
		Rates:     g.rates[:n],
		opts:      opts,
		pm:        &g.pm,
		om:        &g.om,
		posOf:     g.posOf,
		gen:       g,
	}
	g.om.fill(srv, a.Ordering, a.Rates, totalPhi, g.floats, g.posOf)
	return a, nil
}

// PartitionBound returns session i's partition-route bound (Theorem 11
// or 12, plus the Theorem 10 fixed tail for H_1 sessions), constructed
// on demand. Constructions are not cached: they are O(1), and a shared
// cache would race the many readers an epoch snapshot serves
// concurrently. Never nil for an index of a returned analysis:
// newAnalysis refused every analysis one of these constructions could
// fail on.
func (a *Analysis) PartitionBound(i int) *SessionBounds {
	// One allocation carries the bound and an H_1 session's Theorem 10
	// tail.
	b := new(struct {
		sb    SessionBounds
		fixed [1]numeric.ExpTail
	})
	sb := &b.sb
	var err error
	if a.opts.Independent {
		err = a.pm.theorem11Into(sb, i, a.opts.Xi)
	} else {
		err = a.pm.theorem12Into(sb, i, nil, a.opts.Xi)
	}
	if err != nil {
		return nil
	}
	if a.Partition.ClassOf[i] != 0 {
		return sb
	}
	ft, err := a.pm.theorem10(i)
	if err != nil {
		return nil
	}
	b.fixed[0] = ft
	sb.Fixed = b.fixed[:]
	// Constant strings for the common cases keep the construction path
	// free of concat allocations.
	switch sb.Theorem {
	case "thm11":
		sb.Theorem = "thm11+thm10"
	case "thm12":
		sb.Theorem = "thm12+thm10"
	default:
		sb.Theorem += "+thm10"
	}
	return sb
}

// OrderingBound returns session i's Theorem 7/8 bound with respect to
// the analysis's global feasible ordering, constructed on demand.
func (a *Analysis) OrderingBound(i int) *SessionBounds {
	sb := new(SessionBounds)
	var err error
	if a.opts.Independent {
		err = a.om.theorem7Into(sb, a.posOf[i], a.opts.Xi)
	} else {
		err = a.om.theorem8Into(sb, a.posOf[i], nil, a.opts.Xi)
	}
	if err != nil {
		return nil
	}
	return sb
}

// SessionG returns session i's guaranteed rate g_i = φ_i/Σφ·r exactly
// as the bound constructors compute it (the G field of PartitionBound).
func (a *Analysis) SessionG(i int) float64 { return a.pm.gOf(i) }

// EffectiveRate returns session i's effective service rate within its
// partition class (the eq. 38 geometry): ψ_i·(r - Σ_{earlier classes} ρ̃).
func (a *Analysis) EffectiveRate(i int) float64 { return a.pm.geometry(i).gEff }

// BestBacklogTailValue returns, for session i, the smallest bound on
// Pr{Q_i >= q} across the partition and ordering routes.
func (a *Analysis) BestBacklogTailValue(i int, q float64) float64 {
	v := math.Inf(1)
	if b := a.PartitionBound(i); b != nil {
		v = b.BacklogTail(q)
	}
	if b := a.OrderingBound(i); b != nil {
		v = b.minWith(v, q)
	}
	return v
}

// BestDelayTailValue returns, for session i, the smallest bound on
// Pr{D_i >= d} across the partition and ordering routes.
func (a *Analysis) BestDelayTailValue(i int, d float64) float64 {
	v := math.Inf(1)
	if b := a.PartitionBound(i); b != nil {
		v = b.DelayTail(d)
	}
	return a.BestDelayTailFrom(i, d, v)
}

// BestDelayTailFrom is BestDelayTailValue for a caller that already
// holds p, session i's partition-route bound at delay d (gpsd evaluates
// it once per session type): the ordering route's bound replaces p only when
// strictly lower, bit for bit as in BestDelayTailValue.
func (a *Analysis) BestDelayTailFrom(i int, d, p float64) float64 {
	if b := a.OrderingBound(i); b != nil {
		return b.minWith(p, b.G*d)
	}
	return p
}

// DimensionError reports per-session target slices whose lengths do not
// match the analyzed session count. It wraps ErrInvalidInput, so both
// errors.As with *DimensionError and errors.Is with ErrInvalidInput
// match.
type DimensionError struct {
	Sessions int // sessions in the analysis
	Dmax     int // len(dmax) supplied
	Eps      int // len(eps) supplied
}

// Error implements error.
func (e *DimensionError) Error() string {
	return fmt.Sprintf("gpsmath: admission targets for %d sessions: %d delay targets, %d eps targets",
		e.Sessions, e.Dmax, e.Eps)
}

// Unwrap ties the typed error into the package's ErrInvalidInput family.
func (e *DimensionError) Unwrap() error { return ErrInvalidInput }

// AdmissionDecision reports whether every session meets a per-session
// delay target: Pr{D_i >= dmax_i} <= eps_i. Sessions with dmax_i == +Inf
// are unconstrained. It is the paper's motivating soft-QOS admission
// test. A dmax or eps slice whose length differs from the session count
// is rejected with a *DimensionError instead of a silent misdecision.
//
// probs[i] is the bound that justified session i's verdict: the
// partition-route value when it alone meets eps_i, otherwise the best of
// the partition and ordering routes (BestDelayTailValue). The decision
// is identical either way — any valid bound at or below eps_i proves the
// target — but the ordering route's Theorem 7/8 prefactor costs Θ(i) per
// evaluation, so consulting it only on a partition-route miss keeps a
// large decision (the gpsd epoch rebuild) linear instead of quadratic in
// the session count. A miss goes through the same floor-aware min as
// BestDelayTailValue, which skips the evaluation whenever the route
// provably cannot win.
func (a *Analysis) AdmissionDecision(dmax, eps []float64) (bool, []float64, error) {
	n := len(a.Server.Sessions)
	if len(dmax) != n || len(eps) != n {
		return false, nil, &DimensionError{Sessions: n, Dmax: len(dmax), Eps: len(eps)}
	}
	probs := make([]float64, n)
	ok := true
	for i := 0; i < n; i++ {
		if math.IsInf(dmax[i], 1) {
			probs[i] = 0
			continue
		}
		p := math.Inf(1)
		if b := a.PartitionBound(i); b != nil {
			p = b.DelayTail(dmax[i])
		}
		if p > eps[i] {
			p = a.BestDelayTailFrom(i, dmax[i], p)
		}
		probs[i] = p
		if p > eps[i] {
			ok = false
		}
	}
	return ok, probs, nil
}
