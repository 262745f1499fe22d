package gpsmath

import (
	"fmt"
	"math"

	"repro/internal/ebb"
	"repro/internal/numeric"
)

// This file holds the memoized analysis machinery behind AnalyzeServer
// and the public theorem constructors. The paper's bounds share a large
// amount of structure — every Theorem 7/8 position needs the suffix
// weight sums of one ordering, every Theorem 10/11/12 session needs the
// class geometry and per-class aggregates of one partition, and every
// prefactor is a product of Lemma 6 terms exp(u(σ̂+ρξ))/(1-e^{-uεξ})
// whose ξ-optimizing logarithm ln((ρ+ε)/ρ) is a pure function of the
// term. Building each of these once per (server, ordering/partition)
// and sharing them across sessions turns AnalyzeServer from O(N²)
// rebuild-per-session into compute-once-and-combine (see DESIGN.md,
// "Performance architecture").

// mgfTerm is one cached Lemma 6 term: the δ-queue MGF bound for a flow
// with log-MGF excess σ̂, long-term rate rho, and service slack eps.
// Terms are built once per memo and shared — in particular the σ̂
// closure of an aggregate class, which the pre-memo code rebuilt for
// every session of every later class. Single-flow terms embed the
// three-float E.B.B. process by value: binding its SigmaHat as a method
// value would allocate a closure per term. The ξ0 logarithm stays in
// eval: bound construction never evaluates a prefactor, so computing it
// eagerly would tax construction for work only evaluation needs.
type mgfTerm struct {
	proc     ebb.Process           // single-flow σ̂ when agg == nil
	agg      func(float64) float64 // aggregate σ̂ (Σ member σ̂)
	rho, eps float64
}

func singleTerm(p ebb.Process, eps float64) mgfTerm {
	return mgfTerm{proc: p, rho: p.Rho, eps: eps}
}

func aggTerm(sumSH func(float64) float64, rho, eps float64) mgfTerm {
	return mgfTerm{agg: sumSH, rho: rho, eps: eps}
}

// eval bounds E e^{u·δ} for the term's queue (Lemma 6). It matches the
// historical deltaMGF function value-for-value.
func (t mgfTerm) eval(u float64, mode XiMode) float64 {
	if u <= 0 || t.eps <= 0 {
		return math.Inf(1)
	}
	var sh float64
	if t.agg != nil {
		sh = t.agg(u)
	} else {
		sh = t.proc.SigmaHat(u)
	}
	if math.IsInf(sh, 1) {
		return math.Inf(1)
	}
	xi := 1.0
	if mode == XiOptimal {
		xi = math.Log((t.rho+t.eps)/t.rho) / (t.eps * u)
	}
	return math.Exp(u*(sh+t.rho*xi)) / (-math.Expm1(-u * t.eps * xi))
}

// logFloor returns ln K(ρ, ε), the floor of a single-flow term: at ξ0,
// eval(u) = e^{u·σ̂(u)}·K with K = ((ρ+ε)/ρ)^{ρ/ε}·(ρ+ε)/ε >= 1, and ξ0
// minimizes the Lemma 6 bound over ξ, so for an E.B.B. triple (σ̂ >= 0)
// eval(u) >= K at every u in either XiMode (DESIGN §16). A term without
// slack evaluates to +Inf, and so does its floor.
func (t mgfTerm) logFloor() float64 {
	if t.eps <= 0 {
		return math.Inf(1)
	}
	return t.rho/t.eps*math.Log1p(t.eps/t.rho) + math.Log1p(t.rho/t.eps)
}

// orderingMemo caches everything the Theorem 7/8 constructors need about
// one (ordering, rates) pair: suffix weight sums ("tail φ"), the prefix
// minimum of the predecessors' decay rates, and the total weight behind
// the guaranteed rates. All positions share the same backing arrays —
// the per-position constructors only read them. The per-session Lemma 6
// terms are built inline by the prefactor closures (a mgfTerm is a plain
// value, so this costs no allocation and reproduces the retired terms
// array bit for bit) — materializing them was an O(N) block the per-op
// DeltaAnalyzer path would pay on every epoch.
type orderingMemo struct {
	s        Server
	ord      []int
	rates    []float64
	totalPhi float64 // Σφ, the left-to-right fold of Server.TotalPhi
	// tailPhi[pos] = Σ_{k >= pos} φ_{ord[k]} (tailPhi[len] = 0).
	tailPhi []float64
	// preMinA[pos] = min_{k < pos} α_{ord[k]} (+Inf at pos 0).
	preMinA []float64
	// preInvA[pos] = Σ_{k < pos} 1/α_{ord[k]}, accumulated left to right
	// in ordering order — the same op sequence ebb.HolderExponents uses —
	// so the Theorem 8 auto-exponent path reproduces its partial sums
	// bit for bit from a prefix lookup instead of an O(pos) rebuild.
	preInvA []float64
}

// newOrderingMemo builds the memo behind the public Theorem 7/8
// constructors over copies of ord and rates, because caller-owned
// slices may be reused.
func (s Server) newOrderingMemo(ord []int, rates []float64) *orderingMemo {
	m := new(orderingMemo)
	n := len(ord)
	m.fill(s, append([]int(nil), ord...), append([]float64(nil), rates...), s.TotalPhi(),
		make([]float64, orderingFloats(n)), nil)
	return m
}

// orderingFloats is the length of the float block behind an ordering
// memo over n positions: tailPhi, preMinA and preInvA.
func orderingFloats(n int) int { return (n + 1) + n + (n + 1) }

// fill (re)builds the memo over ord and rates, which it keeps without
// copying, in two passes over the ordering with every per-position
// array carved from floats (orderingFloats(len(ord)) long; stale
// contents are overwritten). totalPhi is the population's Σφ fold. The
// backward tailPhi pass also fills posOf, the inverse permutation, when
// it is non-nil, so an analysis does not walk its ordering a third time.
func (m *orderingMemo) fill(s Server, ord []int, rates []float64, totalPhi float64, floats []float64, posOf []int) {
	n := len(ord)
	*m = orderingMemo{
		s:        s,
		ord:      ord,
		rates:    rates,
		totalPhi: totalPhi,
		tailPhi:  floats[: n+1 : n+1],
		preMinA:  floats[n+1 : 2*n+1 : 2*n+1],
		preInvA:  floats[2*n+1 : 3*n+2 : 3*n+2],
	}
	sessions := s.Sessions
	m.tailPhi[n] = 0
	for pos := n - 1; pos >= 0; pos-- {
		j := ord[pos]
		m.tailPhi[pos] = m.tailPhi[pos+1] + sessions[j].Phi
		if posOf != nil {
			posOf[j] = pos
		}
	}
	minA := math.Inf(1)
	invA := 0.0
	for pos, j := range ord {
		m.preMinA[pos] = minA
		m.preInvA[pos] = invA
		a := sessions[j].Arrival.Alpha
		if a < minA {
			minA = a
		}
		invA += 1 / a
	}
	m.preInvA[n] = invA
}

// gOf is the guaranteed rate g_i = φ_i/Σφ·r, computed on demand from the
// cached total weight — the same expression (hence the same bits) the
// retired per-session g array held.
func (m *orderingMemo) gOf(i int) float64 {
	return m.s.Sessions[i].Phi / m.totalPhi * m.s.Rate
}

// termOf is session j's Lemma 6 term at its decomposed rate.
func (m *orderingMemo) termOf(j int) mgfTerm {
	arr := m.s.Sessions[j].Arrival
	return singleTerm(arr, m.rates[j]-arr.Rho)
}

// lemma6Floor locates an ordering-route family's Lemma 6 terms: the
// session at position pos of m's ordering and its predecessors, each
// raised to the Hölder power p_j the prefactor applies — 1 for Theorem
// 7 (inv 0), α_j·inv on the Theorem 8 auto-exponent path. It is a
// three-word value inside SessionBounds, so attaching it adds no
// allocation to the on-demand construction every read pays. The zero
// value (m nil) knows no floor; explicit Hölder exponents, a public-API
// escape hatch no Analysis uses, get the zero value and always
// evaluate.
type lemma6Floor struct {
	m   *orderingMemo
	pos int
	inv float64
}

// reaches reports whether Σ ln K_j / p_j over the family's terms
// reaches need. Every factor is at least K_j^{1/p_j}, so a sum that
// reaches need proves log Λ(θ) >= need at every θ. The walk takes the
// session's own term, then its predecessors nearest first, and stops as
// soon as the sum clears: a few logarithms per call, however deep pos
// is, whenever the floor is decisive.
func (f *lemma6Floor) reaches(need float64) bool {
	if f.m == nil {
		return false
	}
	sum := 0.0
	for idx := f.pos; idx >= 0 && !(sum >= need); idx-- {
		j := f.m.ord[idx]
		lk := f.m.termOf(j).logFloor()
		if f.inv != 0 {
			lk /= f.m.s.Sessions[j].Arrival.Alpha * f.inv
		}
		sum += lk
	}
	return sum >= need
}

// theorem7 is the memoized body of Server.Theorem7.
func (m *orderingMemo) theorem7(pos int, mode XiMode) (*SessionBounds, error) {
	sb := new(SessionBounds)
	if err := m.theorem7Into(sb, pos, mode); err != nil {
		return nil, err
	}
	return sb, nil
}

// theorem7Into fills a caller-provided SessionBounds.
func (m *orderingMemo) theorem7Into(sb *SessionBounds, pos int, mode XiMode) error {
	if pos < 0 || pos >= len(m.ord) {
		return fmt.Errorf("gpsmath: position %d outside ordering of length %d", pos, len(m.ord))
	}
	i := m.ord[pos]
	sess := &m.s.Sessions[i]
	psi := sess.Phi / m.tailPhi[pos]

	// Admissible θ: θ < α_i and ψθ < α_j for each predecessor.
	thetaMax := sess.Arrival.Alpha
	if lim := m.preMinA[pos] / psi; lim < thetaMax {
		thetaMax = lim
	}

	ahead := m.ord[:pos]
	self := m.termOf(i)
	prefactor := func(theta float64) float64 {
		if theta <= 0 || theta >= thetaMax {
			return math.Inf(1)
		}
		lam := self.eval(theta, mode)
		for _, j := range ahead {
			lam *= m.termOf(j).eval(psi*theta, mode)
			if math.IsInf(lam, 1) {
				return math.Inf(1)
			}
		}
		return lam
	}
	*sb = SessionBounds{
		Name:      sess.Name,
		Index:     i,
		G:         m.gOf(i),
		Rho:       sess.Arrival.Rho,
		Theorem:   "thm7",
		ThetaMax:  thetaMax,
		Prefactor: prefactor,
		floor:     lemma6Floor{m: m, pos: pos},
	}
	return nil
}

// theorem8 is the memoized body of Server.Theorem8.
func (m *orderingMemo) theorem8(pos int, ps []float64, mode XiMode) (*SessionBounds, error) {
	sb := new(SessionBounds)
	if err := m.theorem8Into(sb, pos, ps, mode); err != nil {
		return nil, err
	}
	return sb, nil
}

func (m *orderingMemo) theorem8Into(sb *SessionBounds, pos int, ps []float64, mode XiMode) error {
	if pos < 0 || pos >= len(m.ord) {
		return fmt.Errorf("gpsmath: position %d outside ordering of length %d", pos, len(m.ord))
	}
	i := m.ord[pos]
	sess := &m.s.Sessions[i]
	psi := sess.Phi / m.tailPhi[pos]

	k := pos + 1 // number of Hölder terms: predecessors plus the session
	ahead := m.ord[:pos]
	self := m.termOf(i)
	if ps == nil {
		// Auto-exponent fast path: the conjugate exponents p_j = α_j·inv
		// with inv = Σ 1/α are recovered from the preInvA prefix sums
		// instead of materializing the O(pos) alphas/ps/exps slices, so
		// construction is O(1) per position (O(N) across an ordering,
		// instead of O(N²) time and memory). Exponent validity (p_j > 1
		// for k ≥ 2, reciprocals summing to 1) holds by construction.
		// The θ ceiling uses lim = 1/(inv·ψ) for the predecessor block,
		// which equals every α_j/(p_j·ψ) exactly in real arithmetic and
		// to within an ulp or two in floats — an overshoot is harmless
		// because σ̂ itself returns +Inf past any term's true ceiling.
		inv := m.preInvA[pos] + 1/sess.Arrival.Alpha
		pSelf := sess.Arrival.Alpha * inv
		thetaMax := sess.Arrival.Alpha / pSelf
		if pos > 0 {
			if lim := 1 / (inv * psi); lim < thetaMax {
				thetaMax = lim
			}
		}
		sessions := m.s.Sessions
		prefactor := func(theta float64) float64 {
			if theta <= 0 || theta >= thetaMax {
				return math.Inf(1)
			}
			lam := math.Pow(self.eval(pSelf*theta, mode), 1/pSelf)
			for _, j := range ahead {
				pj := sessions[j].Arrival.Alpha * inv
				mj := m.termOf(j).eval(pj*psi*theta, mode)
				lam *= math.Pow(mj, 1/pj)
				if math.IsInf(lam, 1) {
					return math.Inf(1)
				}
			}
			return lam
		}
		*sb = SessionBounds{
			Name:      sess.Name,
			Index:     i,
			G:         m.gOf(i),
			Rho:       sess.Arrival.Rho,
			Theorem:   "thm8",
			ThetaMax:  thetaMax,
			Prefactor: prefactor,
			floor:     lemma6Floor{m: m, pos: pos, inv: inv},
		}
		return nil
	}
	if len(ps) != k {
		return fmt.Errorf("gpsmath: %d Hölder exponents for %d terms", len(ps), k)
	}
	sum := 0.0
	for _, p := range ps {
		if !(p > 1) && k > 1 {
			return fmt.Errorf("gpsmath: Hölder exponent %v, want > 1", p)
		}
		sum += 1 / p
	}
	if math.Abs(sum-1) > 1e-9 {
		return fmt.Errorf("gpsmath: Hölder exponents sum of reciprocals = %v, want 1", sum)
	}

	// Admissible θ: p_i·θ < α_i and p_j·ψ·θ < α_j.
	thetaMax := sess.Arrival.Alpha / ps[k-1]
	for idx, j := range m.ord[:pos] {
		if lim := m.s.Sessions[j].Arrival.Alpha / (ps[idx] * psi); lim < thetaMax {
			thetaMax = lim
		}
	}

	exps := append([]float64(nil), ps...)
	prefactor := func(theta float64) float64 {
		if theta <= 0 || theta >= thetaMax {
			return math.Inf(1)
		}
		pi := exps[k-1]
		lam := math.Pow(self.eval(pi*theta, mode), 1/pi)
		for idx, j := range ahead {
			mj := m.termOf(j).eval(exps[idx]*psi*theta, mode)
			lam *= math.Pow(mj, 1/exps[idx])
			if math.IsInf(lam, 1) {
				return math.Inf(1)
			}
		}
		return lam
	}
	*sb = SessionBounds{
		Name:      sess.Name,
		Index:     i,
		G:         m.gOf(i),
		Rho:       sess.Arrival.Rho,
		Theorem:   "thm8",
		ThetaMax:  thetaMax,
		Prefactor: prefactor,
	}
	return nil
}

// partitionMemo caches everything the Theorem 10/11/12 constructors need
// about one feasible partition: per-class aggregates (member processes,
// aggregate rate ρ̃, smallest decay rate, the summed σ̂), the ρ/φ prefix
// geometry, and the guaranteed rates. Every session shares the same
// backing arrays; the cached aggregate σ̂ closures stay valid across
// sessions and partition passes because they depend only on the class
// membership — never on the session's ε budget or the evaluation point,
// which enter each Lemma 6 term separately.
type partitionMemo struct {
	s        Server
	p        Partition
	totalPhi float64 // Σφ, the left-to-right fold of Server.TotalPhi
	// Per class l: aggregate rate ρ̃_l and weight φ̃_l, the smallest
	// member decay rate, and the aggregate σ̂ (Σ member σ̂, iterated in
	// class/index order).
	classRho   []float64
	classPhi   []float64
	classMinA  []float64
	classSumSH []func(float64) float64
	// Per class c: earlierRho[c] = Σ_{l < c} ρ̃_l and laterPhi[c] =
	// Σ_{sessions in classes >= c} φ — the eq. (37–39) geometry that
	// classGeometry recomputed per session.
	earlierRho []float64
	laterPhi   []float64
	// preMinClassA[c] = min_{l < c} classMinA[l] (+Inf at c = 0) and
	// preInvClassA[c] = Σ_{l < c} 1/classMinA[l], accumulated left to
	// right — the same op sequence ebb.HolderExponents applies to the
	// ceiling list — so the Theorem 11/12 θ ceilings and auto Hölder
	// exponents come from O(1) lookups instead of per-session scans over
	// the earlier classes.
	preMinClassA []float64
	preInvClassA []float64
}

func (s Server) newPartitionMemo(p Partition) *partitionMemo {
	m := new(partitionMemo)
	m.addPartition(s, p)
	m.finish(s, p, s.TotalPhi())
	return m
}

// The memo is built in two steps, so that a caller that discovers the
// classes one member at a time (the DeltaAnalyzer's partition scan)
// folds the per-class aggregates as it goes instead of walking the
// classes again: reset, then openClass and addMember for every class
// and its members in class order, then finish. addPartition does the
// middle step for a finished partition.

// reset empties the per-class aggregates, keeping their arrays, with
// room for L classes in one block when they have less.
func (m *partitionMemo) reset(L int) {
	if cap(m.classRho) < L || cap(m.classPhi) < L || cap(m.classMinA) < L {
		floats := make([]float64, 7*L)
		m.classRho = floats[:0:L]
		m.classPhi = floats[L : L : 2*L]
		m.classMinA = floats[2*L : 2*L : 3*L]
		m.earlierRho = floats[3*L : 3*L : 4*L]
		m.laterPhi = floats[4*L : 4*L : 5*L]
		m.preMinClassA = floats[5*L : 5*L : 6*L]
		m.preInvClassA = floats[6*L : 6*L : 7*L]
	}
	m.classRho, m.classPhi, m.classMinA = m.classRho[:0], m.classPhi[:0], m.classMinA[:0]
}

// openClass starts the aggregates of the next class.
func (m *partitionMemo) openClass() {
	m.classRho = append(m.classRho, 0)
	m.classPhi = append(m.classPhi, 0)
	m.classMinA = append(m.classMinA, math.Inf(1))
}

// addMember folds one member of class l into its aggregates. Members
// arrive in class order, which is index order.
func (m *partitionMemo) addMember(l int, s *Session) {
	m.classRho[l] += s.Arrival.Rho
	m.classPhi[l] += s.Phi
	if a := s.Arrival.Alpha; a < m.classMinA[l] {
		m.classMinA[l] = a
	}
}

// addPartition resets the memo and folds every class of p.
func (m *partitionMemo) addPartition(s Server, p Partition) {
	m.reset(len(p.Classes))
	for l, class := range p.Classes {
		m.openClass()
		for _, j := range class {
			m.addMember(l, &s.Sessions[j])
		}
	}
}

// finish derives the memo's cross-class prefix and suffix arrays from
// the folded aggregates of partition p of s, whose Σφ fold is totalPhi.
func (m *partitionMemo) finish(s Server, p Partition, totalPhi float64) {
	L := len(p.Classes)
	m.s, m.p, m.totalPhi = s, p, totalPhi
	m.classSumSH = m.classSumSH[:0]
	for _, class := range p.Classes {
		m.classSumSH = append(m.classSumSH, classSumSigmaHat(s.Sessions, class))
	}
	m.earlierRho = resize(m.earlierRho, L, 0)
	m.laterPhi = resize(m.laterPhi, L, 0)
	m.preMinClassA = resize(m.preMinClassA, L, 0)
	m.preInvClassA = resize(m.preInvClassA, L, 0)
	for c := 0; c < L; c++ {
		if c == 0 {
			m.earlierRho[c] = 0
		} else {
			m.earlierRho[c] = m.earlierRho[c-1] + m.classRho[c-1]
		}
	}
	for c := L - 1; c >= 0; c-- {
		m.laterPhi[c] = m.classPhi[c]
		if c+1 < L {
			m.laterPhi[c] += m.laterPhi[c+1]
		}
	}
	minA := math.Inf(1)
	invA := 0.0
	for c := 0; c < L; c++ {
		m.preMinClassA[c] = minA
		m.preInvClassA[c] = invA
		if a := m.classMinA[c]; a < minA {
			minA = a
		}
		invA += 1 / m.classMinA[c]
	}
}

// resize returns s at length n, reallocating with room for spare more
// only when its capacity is short; the contents are stale either way.
// Buffers reused across refreshes of a population whose size drifts
// take spare room, so the drift does not reallocate them.
func resize[T any](s []T, n, spare int) []T {
	if cap(s) < n {
		return make([]T, n, n+spare)
	}
	return s[:n]
}

// slackErr reports why session i's partition-route bound cannot be
// constructed, or nil when it can. Theorems 11/12 need rate slack inside
// the session's class (gEff > ρ). An H_1 session's Theorem 10 tail runs
// Lemma 5 at g = φ/Σφ·r instead, and g folds Σφ over the session slice
// where gEff folds it class by class, so the two can straddle ρ by an
// ulp: its slack is checked on its own, exactly as
// ebb.Process.DeltaTail refuses it.
func (m *partitionMemo) slackErr(i int) error {
	rho := m.s.Sessions[i].Arrival.Rho
	geo := m.geometry(i)
	if !(geo.epsBudget > 0) {
		return fmt.Errorf("gpsmath: session %d has no rate slack in its class (gEff = %v, rho = %v)", i, geo.gEff, rho)
	}
	if geo.class == 0 && m.gOf(i)-rho <= 0 {
		return fmt.Errorf("gpsmath: session %d: Theorem 10 at g = %v: %w", i, m.gOf(i), ebb.ErrRateTooSmall)
	}
	return nil
}

// firstRefused returns the lowest session index whose partition-route
// bounds slackErr refuses, or the session count when it refuses none.
// The test is a pure function of a session's φ, ρ and class, so a
// one-entry memo of the last verdict spares a run of like sessions (a
// single-type population's, say) the divisions.
func (m *partitionMemo) firstRefused() int {
	last := struct {
		phi, rho uint64
		class    int
		ok       bool
	}{class: -1}
	for i := range m.s.Sessions {
		s := &m.s.Sessions[i]
		phi, rho, c := math.Float64bits(s.Phi), math.Float64bits(s.Arrival.Rho), m.p.ClassOf[i]
		if c != last.class || phi != last.phi || rho != last.rho {
			last.phi, last.rho, last.class = phi, rho, c
			last.ok = m.slackErr(i) == nil
		}
		if !last.ok {
			return i
		}
	}
	return len(m.s.Sessions)
}

// classSumSigmaHat is the σ̂ of one partition class's aggregate flow:
// Σσ̂_j(u) over the members in class (hence index) order — the same
// iteration order, and therefore the same floating-point sum, the
// retired per-class member arena produced. Capturing the session slice
// and the class index slice keeps the memo free of the O(N) process
// copy the arena required per build.
func classSumSigmaHat(sessions []Session, class []int) func(float64) float64 {
	return func(u float64) float64 {
		s := 0.0
		for _, j := range class {
			v := sessions[j].Arrival.SigmaHat(u)
			if math.IsInf(v, 1) {
				return math.Inf(1)
			}
			s += v
		}
		return s
	}
}

// gOf is the guaranteed rate g_i = φ_i/Σφ·r, on demand (same bits as
// the retired per-session g array).
func (m *partitionMemo) gOf(i int) float64 {
	return m.s.Sessions[i].Phi / m.totalPhi * m.s.Rate
}

// geometry returns session i's class geometry from the cached prefix
// sums (the memoized equivalent of Server.classGeometry).
func (m *partitionMemo) geometry(i int) classGeometry {
	c := m.p.ClassOf[i]
	psi := m.s.Sessions[i].Phi / m.laterPhi[c]
	gEff := psi * (m.s.Rate - m.earlierRho[c])
	return classGeometry{class: c, psi: psi, gEff: gEff, epsBudget: gEff - m.s.Sessions[i].Arrival.Rho}
}

func (m *partitionMemo) checkIndex(i int) error {
	if i < 0 || i >= len(m.s.Sessions) || i >= len(m.p.ClassOf) {
		return fmt.Errorf("%w: session index %d with %d sessions", ErrInvalidInput, i, len(m.s.Sessions))
	}
	return nil
}

// theorem10 is the memoized body of Server.Theorem10.
func (m *partitionMemo) theorem10(i int) (numeric.ExpTail, error) {
	if err := m.checkIndex(i); err != nil {
		return numeric.ExpTail{}, err
	}
	if m.p.ClassOf[i] != 0 {
		return numeric.ExpTail{}, fmt.Errorf("gpsmath: session %d is in class H_%d, Theorem 10 needs H_1", i, m.p.ClassOf[i]+1)
	}
	return m.s.Sessions[i].Arrival.DeltaTail(m.gOf(i))
}

// theorem11 is the memoized body of Server.Theorem11.
func (m *partitionMemo) theorem11(i int, mode XiMode) (*SessionBounds, error) {
	sb := new(SessionBounds)
	if err := m.theorem11Into(sb, i, mode); err != nil {
		return nil, err
	}
	return sb, nil
}

func (m *partitionMemo) theorem11Into(sb *SessionBounds, i int, mode XiMode) error {
	if err := m.checkIndex(i); err != nil {
		return err
	}
	geo := m.geometry(i)
	if geo.epsBudget <= 0 {
		return fmt.Errorf("gpsmath: session %d has no rate slack in its class (gEff = %v, rho = %v)", i, geo.gEff, m.s.Sessions[i].Arrival.Rho)
	}
	c := geo.class
	k := float64(c + 1)
	sess := &m.s.Sessions[i]

	epsI := geo.epsBudget / k
	epsAgg := geo.epsBudget / (k * geo.psi)

	// min_l (α_l/ψ) = (min_l α_l)/ψ bit for bit (division by a positive
	// constant never reorders floats), so the prefix minimum replaces the
	// per-session scan over earlier classes.
	thetaMax := sess.Arrival.Alpha
	if c > 0 {
		if lim := m.preMinClassA[c] / geo.psi; lim < thetaMax {
			thetaMax = lim
		}
	}

	selfTerm := singleTerm(sess.Arrival, epsI)
	psi := geo.psi
	// The aggregate Lemma 6 terms differ per session only through epsAgg;
	// building the three-field term values inside the closure instead of
	// materializing an O(L) slice per session keeps construction O(1).
	prefactor := func(theta float64) float64 {
		if theta <= 0 || theta >= thetaMax {
			return math.Inf(1)
		}
		lam := selfTerm.eval(theta, mode)
		for l := 0; l < c; l++ {
			lam *= aggTerm(m.classSumSH[l], m.classRho[l], epsAgg).eval(psi*theta, mode)
			if math.IsInf(lam, 1) {
				return math.Inf(1)
			}
		}
		return lam
	}
	*sb = SessionBounds{
		Name:      sess.Name,
		Index:     i,
		G:         m.gOf(i),
		Rho:       sess.Arrival.Rho,
		Theorem:   "thm11",
		ThetaMax:  thetaMax,
		Prefactor: prefactor,
	}
	return nil
}

// theorem12 is the memoized body of Server.Theorem12.
func (m *partitionMemo) theorem12(i int, ps []float64, mode XiMode) (*SessionBounds, error) {
	sb := new(SessionBounds)
	if err := m.theorem12Into(sb, i, ps, mode); err != nil {
		return nil, err
	}
	return sb, nil
}

func (m *partitionMemo) theorem12Into(sb *SessionBounds, i int, ps []float64, mode XiMode) error {
	if err := m.checkIndex(i); err != nil {
		return err
	}
	geo := m.geometry(i)
	if geo.epsBudget <= 0 {
		return fmt.Errorf("gpsmath: session %d has no rate slack in its class", i)
	}
	c := geo.class
	k := c + 1
	sess := &m.s.Sessions[i]

	if ps == nil {
		// Auto-exponent fast path, mirroring theorem8Into: the conjugate
		// exponents over the ceiling list [minα_{H_1}, ..., α_i] are
		// p = ceiling·inv with inv from the preInvClassA prefix sums, so
		// nothing O(L) is materialized per session. The predecessor θ
		// ceiling collapses to 1/(inv·ψ) (exact in real arithmetic,
		// within ulps in floats; σ̂ guards the true per-term ceilings).
		inv := m.preInvClassA[c] + 1/sess.Arrival.Alpha
		pSelf := sess.Arrival.Alpha * inv
		thetaMax := sess.Arrival.Alpha / pSelf
		if c > 0 {
			if lim := 1 / (inv * geo.psi); lim < thetaMax {
				thetaMax = lim
			}
		}
		epsI := geo.epsBudget / float64(k)
		epsAgg := geo.epsBudget / (float64(k) * geo.psi)
		selfTerm := singleTerm(sess.Arrival, epsI)
		psi := geo.psi
		prefactor := func(theta float64) float64 {
			if theta <= 0 || theta >= thetaMax {
				return math.Inf(1)
			}
			lam := math.Pow(selfTerm.eval(pSelf*theta, mode), 1/pSelf)
			for l := 0; l < c; l++ {
				pl := m.classMinA[l] * inv
				ml := aggTerm(m.classSumSH[l], m.classRho[l], epsAgg).eval(pl*psi*theta, mode)
				lam *= math.Pow(ml, 1/pl)
				if math.IsInf(lam, 1) {
					return math.Inf(1)
				}
			}
			return lam
		}
		*sb = SessionBounds{
			Name:      sess.Name,
			Index:     i,
			G:         m.gOf(i),
			Rho:       sess.Arrival.Rho,
			Theorem:   "thm12",
			ThetaMax:  thetaMax,
			Prefactor: prefactor,
		}
		return nil
	}
	if len(ps) != k {
		return fmt.Errorf("gpsmath: %d Hölder exponents for %d terms", len(ps), k)
	}
	sum := 0.0
	for _, v := range ps {
		// Negated form: NaN fails every comparison, so `v < 1-1e-12`
		// alone would wave a NaN exponent through.
		if !(v >= 1-1e-12) || math.IsInf(v, 1) {
			return fmt.Errorf("%w: Hölder exponent %v, want finite >= 1", ErrInvalidInput, v)
		}
		sum += 1 / v
	}
	if !(math.Abs(sum-1) <= 1e-9) {
		return fmt.Errorf("%w: Hölder exponents sum of reciprocals = %v, want 1", ErrInvalidInput, sum)
	}

	epsI := geo.epsBudget / float64(k)
	epsAgg := geo.epsBudget / (float64(k) * geo.psi)

	thetaMax := sess.Arrival.Alpha / ps[k-1]
	for l, a := range m.classMinA[:c] {
		if lim := a / (ps[l] * geo.psi); lim < thetaMax {
			thetaMax = lim
		}
	}

	// Explicit exponents are a public-API escape hatch used at small k;
	// materializing the terms here (O(k)) is fine.
	selfTerm := singleTerm(sess.Arrival, epsI)
	aggTerms := make([]mgfTerm, c)
	for l := 0; l < c; l++ {
		aggTerms[l] = aggTerm(m.classSumSH[l], m.classRho[l], epsAgg)
	}
	psi := geo.psi
	exps := append([]float64(nil), ps...)
	prefactor := func(theta float64) float64 {
		if theta <= 0 || theta >= thetaMax {
			return math.Inf(1)
		}
		pk := exps[k-1]
		lam := math.Pow(selfTerm.eval(pk*theta, mode), 1/pk)
		for l := range aggTerms {
			ml := aggTerms[l].eval(exps[l]*psi*theta, mode)
			lam *= math.Pow(ml, 1/exps[l])
			if math.IsInf(lam, 1) {
				return math.Inf(1)
			}
		}
		return lam
	}
	*sb = SessionBounds{
		Name:      sess.Name,
		Index:     i,
		G:         m.gOf(i),
		Rho:       sess.Arrival.Rho,
		Theorem:   "thm12",
		ThetaMax:  thetaMax,
		Prefactor: prefactor,
	}
	return nil
}
