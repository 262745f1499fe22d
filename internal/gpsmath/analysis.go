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
	// Split selects how slack is distributed when a global feasible
	// ordering is needed (Theorem 7/8 paths).
	Split EpsilonSplit
	// SlackFraction in (0, 1] scales down the distributed slack to keep
	// the feasible-ordering inequalities strictly satisfiable; the default
	// 0 means 1 (use all slack).
	SlackFraction float64
}

// Analysis is the full single-node result: the feasible partition and,
// per session, the best bound object the selected theorems provide.
//
// An Analysis comes in two builds. AnalyzeServer materializes every
// bound eagerly into Bounds/OrderingBounds. The DeltaAnalyzer produces
// lazy analyses: Bounds and OrderingBounds stay nil and the bound
// objects are constructed on demand from the retained memos — an O(1)
// construction per session, so a per-op epoch never pays for N bound
// objects nobody reads. Use PartitionBound/OrderingBound (or the Best*
// evaluators and AdmissionDecision, which go through them) to stay
// agnostic of the build; both produce bit-identical bound families.
type Analysis struct {
	Server    Server
	Partition Partition
	// Bounds[i] corresponds to Server.Sessions[i]. Each aggregates the
	// partition-based family (Theorem 11/12), the Theorem 10 fixed tail
	// for H_1 sessions, and is independent of any global ordering. Nil
	// for lazily built analyses — use PartitionBound.
	Bounds []*SessionBounds
	// OrderingBounds[i] is the Theorem 7/8 bound for session i with
	// respect to one global feasible ordering (the greedy min r/φ order);
	// kept separately so the two routes can be compared (ablation). Nil
	// for lazily built analyses — use OrderingBound.
	OrderingBounds []*SessionBounds
	// Ordering is the global feasible ordering used for OrderingBounds.
	Ordering []int
	// Rates are the decomposed rates r_i used for OrderingBounds.
	Rates []float64

	opts Options
	pm   *partitionMemo
	om   *orderingMemo
	// posOf[i] is session i's position in Ordering (the inverse
	// permutation); set on lazy builds, where OrderingBounds cannot be
	// indexed to recover it.
	posOf []int
}

// AnalyzeServer validates the server and computes every per-session bound
// the paper's single-node theory offers under the given options.
func AnalyzeServer(srv Server, opts Options) (*Analysis, error) {
	if err := srv.Validate(); err != nil {
		return nil, err
	}
	if opts.SlackFraction == 0 {
		opts.SlackFraction = 1
	}
	part, err := srv.FeasiblePartition()
	if err != nil {
		return nil, err
	}
	a := &Analysis{Server: srv, Partition: part, opts: opts}

	// Partition-route bounds (Theorems 10/11/12). One memo carries the
	// class geometry and per-class aggregates shared by every session.
	a.pm = srv.newPartitionMemo(part)
	a.Bounds = make([]*SessionBounds, len(srv.Sessions))
	// Arena allocations: one block for all SessionBounds and one for
	// every H_1 session's Theorem 10 tail, instead of a heap object per
	// session.
	boundsArena := make([]SessionBounds, len(srv.Sessions))
	fixedArena := make([]numeric.ExpTail, len(part.Classes[0]))
	nFixed := 0
	for i := range srv.Sessions {
		sb := &boundsArena[i]
		var slot []numeric.ExpTail
		if part.ClassOf[i] == 0 {
			slot = fixedArena[nFixed : nFixed+1 : nFixed+1]
			nFixed++
		}
		if err := a.partitionBoundInto(sb, i, slot); err != nil {
			return nil, fmt.Errorf("gpsmath: session %d: %w", i, err)
		}
		a.Bounds[i] = sb
	}

	// Ordering-route bounds (Theorems 7/8), again via one shared memo.
	rates, err := srv.DecomposedRates(opts.Split, opts.SlackFraction)
	if err != nil {
		return nil, err
	}
	ord, err := srv.FeasibleOrdering(rates)
	if err != nil {
		return nil, err
	}
	a.Ordering = ord
	a.Rates = rates
	a.om = srv.newOrderingMemoOwned(ord, rates)
	a.OrderingBounds = make([]*SessionBounds, len(srv.Sessions))
	ordArena := make([]SessionBounds, len(ord))
	for pos := range ord {
		sb := &ordArena[pos]
		if err := a.orderingBoundInto(sb, pos); err != nil {
			return nil, fmt.Errorf("gpsmath: ordering position %d: %w", pos, err)
		}
		a.OrderingBounds[sb.Index] = sb
	}
	return a, nil
}

// partitionBoundInto builds session i's partition-route bound (Theorem
// 11 or 12, plus the Theorem 10 fixed tail for H_1 sessions) into sb.
// fixed, when non-nil, is a caller-provided one-element arena slot for
// the Theorem 10 tail; nil allocates one. Both the eager AnalyzeServer
// loop and the lazy accessors funnel through here, so the two builds
// cannot drift.
func (a *Analysis) partitionBoundInto(sb *SessionBounds, i int, fixed []numeric.ExpTail) error {
	var err error
	if a.opts.Independent {
		err = a.pm.theorem11Into(sb, i, a.opts.Xi)
	} else {
		err = a.pm.theorem12Into(sb, i, nil, a.opts.Xi)
	}
	if err != nil {
		return err
	}
	if a.Partition.ClassOf[i] != 0 {
		return nil
	}
	ft, err := a.pm.theorem10(i)
	if err != nil {
		return err
	}
	if fixed == nil {
		fixed = make([]numeric.ExpTail, 1)
	}
	fixed[0] = ft
	sb.Fixed = fixed[:1:1]
	// Constant strings for the common cases keep the hot construction
	// path free of concat allocations.
	switch sb.Theorem {
	case "thm11":
		sb.Theorem = "thm11+thm10"
	case "thm12":
		sb.Theorem = "thm12+thm10"
	default:
		sb.Theorem += "+thm10"
	}
	return nil
}

// orderingBoundInto builds the Theorem 7/8 bound for the session at
// ordering position pos into sb.
func (a *Analysis) orderingBoundInto(sb *SessionBounds, pos int) error {
	if a.opts.Independent {
		return a.om.theorem7Into(sb, pos, a.opts.Xi)
	}
	return a.om.theorem8Into(sb, pos, nil, a.opts.Xi)
}

// PartitionBound returns session i's partition-route bound object,
// constructing it on demand when the analysis was built lazily. Lazy
// constructions are not cached: they are O(1), and a shared cache would
// race the many readers an epoch snapshot serves concurrently. Returns
// nil only if construction fails, which checkFeasible excludes for any
// analysis the DeltaAnalyzer publishes.
func (a *Analysis) PartitionBound(i int) *SessionBounds {
	if a.Bounds != nil {
		return a.Bounds[i]
	}
	sb := new(SessionBounds)
	if err := a.partitionBoundInto(sb, i, nil); err != nil {
		return nil
	}
	return sb
}

// OrderingBound returns session i's Theorem 7/8 bound with respect to
// the analysis's global feasible ordering, constructing it on demand
// for lazy builds.
func (a *Analysis) OrderingBound(i int) *SessionBounds {
	if a.OrderingBounds != nil {
		return a.OrderingBounds[i]
	}
	sb := new(SessionBounds)
	if err := a.orderingBoundInto(sb, a.posOf[i]); err != nil {
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

// checkFeasible verifies that every session's bound family is
// constructible — the same per-session guard the eager AnalyzeServer
// loop applies (a session with no rate slack inside its class aborts the
// analysis). The DeltaAnalyzer runs it before publishing a lazy
// analysis, so the lazy accessors cannot fail afterwards.
func (a *Analysis) checkFeasible() error {
	for i := range a.Server.Sessions {
		if geo := a.pm.geometry(i); !(geo.epsBudget > 0) {
			return fmt.Errorf("gpsmath: session %d has no rate slack in its class (gEff = %v, rho = %v)",
				i, geo.gEff, a.Server.Sessions[i].Arrival.Rho)
		}
	}
	return nil
}

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
// holds p, session i's partition-route bound at delay d (gpsd memoizes
// it per session type): the ordering route's bound replaces p only when
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
