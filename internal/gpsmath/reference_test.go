package gpsmath

import (
	"fmt"
	"math"

	"repro/internal/ebb"
)

// This file retains the pre-scaling implementations of the feasible
// partition (eqs. 37-39) and the per-session Theorem 8/11/12
// constructions as references. The production paths in ordering.go and
// memo.go were restructured around one global sort plus prefix/suffix
// running sums so a full AnalyzeServer pass is O(N log N); these bodies
// keep the original per-session rescans, whose cost is O(N·L) (and
// O(N²) for the Hölder exponent assembly) but whose arithmetic is the
// ground truth. Differential tests at small N pin the fast paths to
// them (see scaling_test.go). The unpruned best-of-routes min at the
// end of the file plays the same role for the Lemma 6 floor
// (floor_test.go). They are not exported and carry no performance
// expectations.

// feasiblePartitionReference is the original round-based recursion: every
// round rescans all unplaced sessions against a fresh threshold.
func (s Server) feasiblePartitionReference() (Partition, error) {
	n := len(s.Sessions)
	p := Partition{ClassOf: make([]int, n)}
	ratio := make([]float64, n)
	for i := range p.ClassOf {
		p.ClassOf[i] = -1
		ratio[i] = s.Sessions[i].Arrival.Rho / s.Sessions[i].Phi
	}
	placedRho := 0.0
	remPhi := s.TotalPhi()
	remaining := n
	arena := make([]int, 0, n)
	for remaining > 0 {
		threshold := (s.Rate - placedRho) / remPhi
		start := len(arena)
		for i := range s.Sessions {
			if p.ClassOf[i] >= 0 {
				continue
			}
			if ratio[i] < threshold {
				arena = append(arena, i)
			}
		}
		class := arena[start:len(arena):len(arena)]
		if len(class) == 0 {
			return Partition{}, fmt.Errorf("gpsmath: feasible partition stalled with %d sessions left (sum rho >= rate?)", remaining)
		}
		k := len(p.Classes)
		for _, i := range class {
			p.ClassOf[i] = k
			placedRho += s.Sessions[i].Arrival.Rho
			remPhi -= s.Sessions[i].Phi
		}
		p.Classes = append(p.Classes, class)
		remaining -= len(class)
	}
	return p, nil
}

// theorem8RefInto is the original Theorem 8 construction: it materializes
// the predecessors' decay rates and Hölder exponents per session, which
// is O(pos) work and memory each (O(N²) across a full ordering).
func (m *orderingMemo) theorem8RefInto(sb *SessionBounds, pos int, ps []float64, mode XiMode) error {
	if pos < 0 || pos >= len(m.ord) {
		return fmt.Errorf("gpsmath: position %d outside ordering of length %d", pos, len(m.ord))
	}
	i := m.ord[pos]
	sess := &m.s.Sessions[i]
	psi := sess.Phi / m.tailPhi[pos]

	k := pos + 1
	if ps == nil {
		alphas := make([]float64, 0, k)
		for _, j := range m.ord[:pos] {
			alphas = append(alphas, m.s.Sessions[j].Arrival.Alpha)
		}
		alphas = append(alphas, sess.Arrival.Alpha)
		ps, _ = ebb.HolderExponents(alphas)
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

	thetaMax := sess.Arrival.Alpha / ps[k-1]
	for idx, j := range m.ord[:pos] {
		if lim := m.s.Sessions[j].Arrival.Alpha / (ps[idx] * psi); lim < thetaMax {
			thetaMax = lim
		}
	}

	ahead := m.ord[:pos]
	self := m.termOf(i)
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

// theorem11RefInto is the original Theorem 11 construction: the θ ceiling
// rescans every earlier class and the aggregate Lemma 6 terms are
// materialized per session (O(L) work and memory each).
func (m *partitionMemo) theorem11RefInto(sb *SessionBounds, i int, mode XiMode) error {
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

	thetaMax := sess.Arrival.Alpha
	for _, a := range m.classMinA[:c] {
		if lim := a / geo.psi; lim < thetaMax {
			thetaMax = lim
		}
	}

	selfTerm := singleTerm(sess.Arrival, epsI)
	aggTerms := make([]mgfTerm, c)
	for l := 0; l < c; l++ {
		aggTerms[l] = aggTerm(m.classSumSH[l], m.classRho[l], epsAgg)
	}
	psi := geo.psi
	prefactor := func(theta float64) float64 {
		if theta <= 0 || theta >= thetaMax {
			return math.Inf(1)
		}
		lam := selfTerm.eval(theta, mode)
		for l := range aggTerms {
			lam *= aggTerms[l].eval(psi*theta, mode)
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

// theorem12RefInto is the original Theorem 12 construction, materializing
// the per-session ceiling list and Hölder exponents (O(L) each).
func (m *partitionMemo) theorem12RefInto(sb *SessionBounds, i int, ps []float64, mode XiMode) error {
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
		ceilings := append(append(make([]float64, 0, k), m.classMinA[:c]...), sess.Arrival.Alpha)
		ps, _ = ebb.HolderExponents(ceilings)
	}
	if len(ps) != k {
		return fmt.Errorf("gpsmath: %d Hölder exponents for %d terms", len(ps), k)
	}
	sum := 0.0
	for _, v := range ps {
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

// bestBacklogTailRef, bestDelayTailRef and admissionDecisionRef are the
// best-of-routes min as it stood before the Lemma 6 floor: the ordering
// route is evaluated at every point, whatever the partition route
// returned. The pruned production path (SessionBounds.minWith) must
// match them bit for bit.
func (a *Analysis) bestBacklogTailRef(i int, q float64) float64 {
	v := math.Inf(1)
	if b := a.PartitionBound(i); b != nil {
		v = b.BacklogTail(q)
	}
	if b := a.OrderingBound(i); b != nil {
		if w := b.BacklogTail(q); w < v {
			v = w
		}
	}
	return v
}

func (a *Analysis) bestDelayTailRef(i int, d float64) float64 {
	v := math.Inf(1)
	if b := a.PartitionBound(i); b != nil {
		v = b.DelayTail(d)
	}
	if b := a.OrderingBound(i); b != nil {
		if w := b.DelayTail(d); w < v {
			v = w
		}
	}
	return v
}

func (a *Analysis) admissionDecisionRef(dmax, eps []float64) (bool, []float64) {
	probs := make([]float64, len(dmax))
	ok := true
	for i := range dmax {
		if math.IsInf(dmax[i], 1) {
			continue
		}
		p := math.Inf(1)
		if b := a.PartitionBound(i); b != nil {
			p = b.DelayTail(dmax[i])
		}
		if p > eps[i] {
			if b := a.OrderingBound(i); b != nil {
				if w := b.DelayTail(dmax[i]); w < p {
					p = w
				}
			}
		}
		probs[i] = p
		if p > eps[i] {
			ok = false
		}
	}
	return ok, probs
}
