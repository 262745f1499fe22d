package gpsmath

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
)

// This file implements incremental (delta) analysis: a DeltaAnalyzer
// holds the session population and the structures AnalyzeServer would
// rebuild from scratch — the ρ/φ ratios behind the feasible partition
// (eqs. 37–39) and the feasible ordering of eq. (5) — and patches them
// under batches of admits, releases and rate moves instead of
// re-deriving them.
//
// The contract is bit-identity: every Analysis a DeltaAnalyzer produces
// evaluates every bound to the same Float64bits as a fresh
// AnalyzeServer over the same session slice. That falls out of three
// invariants, each pinned by the delta-vs-fresh differential suite:
//
//  1. The session slice itself is maintained exactly as a caller
//     (the gpsd daemon) maintains its population: admits append,
//     releases swap-remove (last session moves into the freed slot).
//     Every left-to-right fold AnalyzeServer performs — TotalPhi,
//     TotalRho, per-class ρ/φ accumulations — is a fold over this
//     slice, so identical slices give identical sums.
//  2. The ordering comparator (ratioOrder) is a strict total order, so
//     the sorted permutation is unique: insertion-repairing the
//     previous epoch's ordering lands on the same permutation a fresh
//     sort would, element for element. The seed a batch hands the
//     repair — the previous ordering with the batch's changed sessions
//     merged in — changes its cost, never its result.
//  3. Both refresh paths end in the one assembly helper AnalyzeServer
//     uses (newAnalysis): the same memos, the same feasibility guard,
//     the same on-demand bound constructors — there is no second
//     implementation to drift.
//
// What stays O(N): the decomposed rates r_i = ρ_i + slack/N change for
// every session on every refresh (slack and N both move), so a refresh
// makes lean linear float passes (~a few ms at 131k sessions), paid
// once per batch however many ops it holds. They are fused: one
// index-order fold of Σρ and Σφ (the folds TotalRho and TotalPhi take,
// computed once and shared by the slack, the partition and both memos),
// one pass that fills the rates, the ordering ratios and the first
// partition round, the feasibility test's index-order sweep, and the
// ordering memo's two passes, which also fill the inverse permutation.
// What the delta path eliminates is everything superlinear or
// heavyweight: the O(N log N) sorts (the ordering repaired in
// O(N + moves), the partition scanned over the maintained ρ/φ ratios)
// and the eq. (5) verification pass.
//
// Nor does a steady refresh allocate. Its arrays live in generations
// the owner hands back through Recycle once no reader can see them, and
// the staged population lives in refcounted backings: a batch's first
// release into the last refreshed population copies it into a recycled
// backing, and admit-only batches append-share one backing across
// several analyses, which returns to the free list only when the last
// of them is recycled. An analysis that is never recycled keeps its
// arrays and its backing until the collector frees them.

// DeltaStats counts how the analyzer's refreshes fixed the ordering.
type DeltaStats struct {
	// OrderRepairs counts refreshes where the bounded insertion repair
	// fixed the feasible ordering; OrderSorts counts the fallbacks to a
	// full sort (repair budget exhausted — ratios moved too much).
	OrderRepairs, OrderSorts uint64
}

// population is one backing of the staged session slice and its ρ/φ
// ratios (equal capacities). refs counts the analyzer's staging and
// rollback references plus one per unrecycled generation reading it; at
// zero the backing goes onto the analyzer's free list.
type population struct {
	sess   []Session
	pRatio []float64
	refs   int
}

// freeMax bounds each of the analyzer's free lists. A publisher keeps
// its current analysis and the few a reader still pins in flight, so a
// handful of spare generations covers steady churn.
const freeMax = 4

// DeltaAnalyzer maintains an Analysis across session admits, releases
// and rate moves. Admit, Release and SetRate only stage a change, in
// O(1) (a batch's first release into the refreshed population copies it
// once); Refresh turns everything staged since the last refresh into
// one analysis. It is not goroutine-safe; the intended owner is a
// single writer (the gpsd shard writer) that publishes the refreshed
// analyses to readers via epoch snapshots. Returned analyses are
// immutable and remain valid after further operations — admits extend
// the session slice append-share style (old epochs see the old length),
// and releases into it copy it fresh — until the owner hands one back
// through Recycle.
type DeltaAnalyzer struct {
	opts Options
	// rate, sess and pRatio are the staged population the next Refresh
	// analyzes; sess and pRatio alias pop's arrays. pRatio[i] = ρ_i/φ_i
	// is maintained alongside sess (same append/swap-remove moves) and
	// feeds the partition rounds without a per-refresh division pass.
	rate   float64
	sess   []Session
	pRatio []float64
	pop    *population
	owned  bool // no analysis reads pop: this batch may write any slot
	// origin carries the batch's swap-removes into the ordering seed
	// while carry is set: origin[i] is the index session i had at the
	// last refresh; one at or past the last refreshed population marks a
	// session admitted since. Started at the batch's first release.
	origin []int
	carry  bool
	// an analyzes last, the population of the last successful refresh,
	// whose backing is lastPop; a refused Refresh restores it.
	an        *Analysis
	last      Server
	lastRatio []float64
	lastPop   *population
	stats     DeltaStats
	// Writer-private scratch, reused across refreshes: nothing
	// epoch-visible retains it. ratio backs the r_i/φ_i ordering ratios;
	// moved lists the sessions the seed merges in.
	ratio []float64
	moved []int
	// Free lists of recycled generations and population backings.
	freeGens []*generation
	freePops []*population
}

// NewDeltaAnalyzer seeds an analyzer with the server's sessions and
// computes the initial analysis with the verified constructor,
// AnalyzeServer. An empty session slice is permitted — Analysis returns
// nil until a refresh over a nonempty population.
func NewDeltaAnalyzer(srv Server, opts Options) (*DeltaAnalyzer, error) {
	if opts.SlackFraction == 0 {
		opts.SlackFraction = 1
	}
	if !(srv.Rate > 0) || math.IsInf(srv.Rate, 1) || math.IsNaN(srv.Rate) {
		return nil, fmt.Errorf("%w: server rate = %v, want positive finite", ErrInvalidInput, srv.Rate)
	}
	n := len(srv.Sessions)
	d := &DeltaAnalyzer{opts: opts, rate: srv.Rate}
	d.pop = d.takePop(n, n)
	d.sess = append(d.pop.sess[:0], srv.Sessions...)
	d.pRatio = d.pop.pRatio[:n]
	for i := range d.sess {
		d.pRatio[i] = d.sess[i].Arrival.Rho / d.sess[i].Phi
	}
	d.lastPop = d.pop
	d.pop.refs++
	d.last, d.lastRatio = Server{Rate: srv.Rate, Sessions: d.sess[:0]}, d.pRatio[:0]
	// With no last ordering to seed it, the refresh runs AnalyzeServer.
	if _, err := d.Refresh(); err != nil {
		return nil, err
	}
	return d, nil
}

// Analysis returns the last refreshed analysis (nil when that
// population was empty). The returned value is immutable; later
// refreshes produce new analyses without disturbing it.
func (d *DeltaAnalyzer) Analysis() *Analysis { return d.an }

// Len returns the staged session count.
func (d *DeltaAnalyzer) Len() int { return len(d.sess) }

// Server returns the server the last refresh analyzed. The session
// slice is shared with the analyzer under the append-share discipline.
func (d *DeltaAnalyzer) Server() Server { return d.last }

// Stats returns the refresh counters.
func (d *DeltaAnalyzer) Stats() DeltaStats { return d.stats }

// Admit stages one appended session. The session is validated like
// Server.Validate would (positive finite φ, valid E.B.B. triple);
// stability (Σρ < r) is the next Refresh's to enforce. On error nothing
// is staged.
func (d *DeltaAnalyzer) Admit(s Session) error {
	if !(s.Phi > 0) || math.IsInf(s.Phi, 1) || math.IsNaN(s.Phi) {
		return fmt.Errorf("%w: session %s: phi = %v, want positive finite", ErrInvalidInput, s.Name, s.Phi)
	}
	if err := s.Arrival.Validate(); err != nil {
		return fmt.Errorf("gpsmath: session %s: %w", s.Name, err)
	}
	if n := len(d.sess); n == cap(d.sess) {
		// Re-seat a full backing explicitly: letting append reallocate
		// would move the population off its refcounted backing. Asking
		// for an eighth more room keeps these copies amortized O(1) per
		// admit, as append's growth would.
		d.moveTo(n+n/8+1, n+n/4+64)
	}
	// Append-share: published analyses hold shorter slice headers, so
	// extending the backing arrays past their length never perturbs them.
	d.sess = append(d.sess, s)
	d.pRatio = append(d.pRatio, s.Arrival.Rho/s.Phi)
	if d.carry {
		d.origin = append(d.origin, len(d.last.Sessions))
	}
	return nil
}

// Release stages the removal of the session at index pos by
// swap-remove — the last session moves into slot pos, matching the
// daemon's shadow-array discipline. On error nothing is staged.
func (d *DeltaAnalyzer) Release(pos int) error {
	n := len(d.sess)
	if pos < 0 || pos >= n {
		return fmt.Errorf("%w: release position %d with %d sessions", ErrInvalidInput, pos, n)
	}
	if !d.owned && pos < len(d.last.Sessions) {
		// Published analyses and a refused refresh's rollback read slot
		// pos: copy the arrays once per batch, with spare capacity that
		// keeps the admits that follow on the append path. A release at or
		// past the last refreshed population leaves every slot an
		// analysis reads alone, the vacated one included: no older
		// analysis on this backing is longer, since a release below a
		// refreshed length always copies first.
		d.moveTo(n+64, n+n/8+64)
	}
	if !d.carry && d.an != nil {
		// The batch's first release starts the carry as the identity over
		// the population so far.
		d.origin = resize(d.origin, n, n/8+64)
		for i := range d.origin {
			d.origin[i] = i
		}
		d.carry = true
	}
	last := n - 1
	d.sess[pos], d.pRatio[pos] = d.sess[last], d.pRatio[last]
	d.sess, d.pRatio = d.sess[:last], d.pRatio[:last]
	if d.carry {
		d.origin[pos], d.origin = d.origin[last], d.origin[:last]
	}
	return nil
}

// moveTo copies the staged population onto a backing no analysis
// reads — recycled when one holds at least need slots, else allocated
// with capacity alloc — and moves the staging reference there.
func (d *DeltaAnalyzer) moveTo(need, alloc int) {
	p := d.takePop(need, alloc)
	n := len(d.sess)
	copy(p.sess, d.sess)
	copy(p.pRatio, d.pRatio)
	d.sess, d.pRatio = p.sess[:n], p.pRatio[:n]
	d.dropPop(d.pop)
	d.pop = p
	d.owned = true
}

// takePop returns a backing with at least need slots and one reference
// taken, from the free list when one there is large enough. A free list
// none of whose backings fits belongs to a smaller population: it is
// dropped for the collector.
func (d *DeltaAnalyzer) takePop(need, alloc int) *population {
	for k, p := range d.freePops {
		if cap(p.sess) >= need {
			last := len(d.freePops) - 1
			d.freePops[k], d.freePops[last] = d.freePops[last], nil
			d.freePops = d.freePops[:last]
			p.sess, p.pRatio = p.sess[:cap(p.sess)], p.pRatio[:cap(p.pRatio)]
			p.refs = 1
			return p
		}
	}
	clear(d.freePops)
	d.freePops = d.freePops[:0]
	alloc = max(alloc, need)
	return &population{sess: make([]Session, alloc), pRatio: make([]float64, alloc), refs: 1}
}

// dropPop releases one reference on p, freeing it at the last.
func (d *DeltaAnalyzer) dropPop(p *population) {
	if p.refs--; p.refs == 0 && len(d.freePops) < freeMax {
		d.freePops = append(d.freePops, p)
	}
}

// takeGen returns a generation whose arrays hold n sessions, from the
// free list when it has one.
func (d *DeltaAnalyzer) takeGen(n int) *generation {
	var g *generation
	if k := len(d.freeGens) - 1; k >= 0 {
		g, d.freeGens[k] = d.freeGens[k], nil
		d.freeGens = d.freeGens[:k]
	} else {
		g = &generation{owner: d}
	}
	spare := n/8 + 64
	g.rates = resize(g.rates, n, spare)
	g.ord = resize(g.ord, n, spare)
	g.posOf = resize(g.posOf, n, spare)
	g.classOf = resize(g.classOf, n, spare)
	g.arena = resize(g.arena, n, spare)
	g.floats = resize(g.floats, orderingFloats(n), 3*spare)
	return g
}

// putGen returns an unpublished or recycled generation to the free
// list, dropping what it still references.
func (d *DeltaAnalyzer) putGen(g *generation) {
	g.pm.s, g.pm.p, g.om.s, g.om.ord = Server{}, Partition{}, Server{}, nil
	clear(g.pm.classSumSH)
	clear(g.classes)
	if len(d.freeGens) < freeMax {
		d.freeGens = append(d.freeGens, g)
	}
}

// Recycle hands back an analysis this analyzer produced once nothing
// reads it anymore: its arrays are refilled by a later refresh, and its
// session backing is reused once no other analysis reads it either.
// Analyses from elsewhere, the current analysis and one already
// recycled are ignored. The analysis must not be read afterwards.
func (d *DeltaAnalyzer) Recycle(an *Analysis) {
	if an == nil || an == d.an || an.gen == nil || an.gen.owner != d {
		return
	}
	g := an.gen
	an.gen = nil
	d.dropPop(g.pop)
	g.pop = nil
	d.putGen(g)
}

// SetRate stages a new service rate. Every rate-dependent structure —
// decomposed rates, ordering ratios, the partition thresholds, the memo
// prefix/suffix passes — is recomputed by the next Refresh, so its
// analysis is bit-identical to a fresh AnalyzeServer over the same
// sessions at the new rate (the differential test pins this). The
// daemon's sharded writer uses it when the cross-shard ledger grows or
// shrinks a shard's capacity slice: a capacity move rides the batch's
// one refresh, not a full rebuild. An invalid rate is refused here and
// stages nothing; an infeasible one is refused by Refresh.
func (d *DeltaAnalyzer) SetRate(rate float64) error {
	if !(rate > 0) || math.IsInf(rate, 1) || math.IsNaN(rate) {
		return fmt.Errorf("%w: server rate = %v, want positive finite", ErrInvalidInput, rate)
	}
	d.rate = rate
	return nil
}

// Refresh analyzes the staged population — everything staged since the
// last refresh, in one pass — and returns the analysis (nil for an
// empty population). A refused refresh — the staged population is not
// stable at the staged rate — returns the analyzer to its last
// refreshed state, discarding the batch.
func (d *DeltaAnalyzer) Refresh() (*Analysis, error) {
	var err error
	switch {
	case len(d.sess) == 0:
		d.an = nil
	case d.an == nil:
		err = d.analyze()
	default:
		err = d.refresh()
	}
	d.carry, d.owned = false, false
	if err != nil {
		d.rate, d.sess, d.pRatio = d.last.Rate, d.last.Sessions, d.lastRatio
		d.lastPop.refs++
		d.dropPop(d.pop)
		d.pop = d.lastPop
		return nil, err
	}
	d.pop.refs++
	d.dropPop(d.lastPop)
	d.lastPop = d.pop
	d.last, d.lastRatio = Server{Rate: d.rate, Sessions: d.sess}, d.pRatio
	return d.an, nil
}

// adopt makes an, analyzed over the staged population in generation g,
// the current analysis.
func (d *DeltaAnalyzer) adopt(an *Analysis, g *generation) {
	g.owner, g.pop = d, d.pop
	d.pop.refs++
	d.an = an
}

// analyze runs the verified constructor over the staged population,
// for want of a last ordering to repair.
func (d *DeltaAnalyzer) analyze() error {
	an, err := AnalyzeServer(Server{Rate: d.rate, Sessions: d.sess}, d.opts)
	if err != nil {
		return err
	}
	d.adopt(an, an.gen)
	return nil
}

// seed writes the ordering repair's starting permutation into ord,
// given the refreshed ordering ratios. Every session still at the index
// it had at the last refresh is carried in its last order; every
// session whose index changed in the batch — admitted since, or moved
// by a swap-remove — is merged in by (ratio, index). A moved session
// must be merged, not carried: its index tie-break changed, so at its
// old place it could sit a whole run of equal ratios away from its new
// one. The repair is then left with the flips the slack nudge causes
// among the carried sessions.
func (d *DeltaAnalyzer) seed(ord []int, ratio []float64) {
	last := d.an.Ordering
	// A session is carried when it sits at an index of the last
	// population and, if the batch released any, came from there.
	stays := func(i int) bool { return i < len(last) && (!d.carry || d.origin[i] == i) }
	moved := d.moved[:0]
	for i := range ord {
		if !stays(i) {
			moved = append(moved, i)
		}
	}
	slices.SortFunc(moved, func(a, b int) int {
		if c := cmp.Compare(ratio[a], ratio[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	// The carried sessions fill ord behind room for the moved ones; the
	// merge then writes from the front and never overtakes its read.
	w := len(moved)
	for _, j := range last {
		if j < len(ord) && stays(j) {
			ord[w] = j
			w++
		}
	}
	r, w := len(moved), 0
	for _, v := range moved {
		for r < len(ord) && ratioBefore(ratio, ord[r], v) {
			ord[w] = ord[r]
			r, w = r+1, w+1
		}
		ord[w] = v
		w++
	}
	d.moved = moved
}

// refresh repairs the last analysis into one of the staged population,
// filling a recycled generation: the ratios are refreshed first, and the
// seed built from them becomes the ordering in place.
//
// The repair path skips the eq. (5) verification: the greedy min r/φ
// order satisfies eq. (5) whenever Σr_i <= r (paper §3), and the slack
// split guarantees exactly that by construction — it refuses with
// ErrOverloaded before producing rates otherwise. The daemon's periodic
// self-check re-runs the verified constructor against the same
// population, so a violation could not persist silently even if the
// rates were somehow inconsistent.
//
// The partition is the reference round algorithm — scan all unplaced
// sessions in index order against the round threshold — whose
// arithmetic FeasiblePartition is pinned to bit for bit, over the
// maintained ρ/φ ratios. O(L·N) scans, but L is the class count (small)
// and a round is a single float compare per session. Each round's
// members arrive in index order, which is class order, so the round
// folds the class aggregates of the partition memo as it places them,
// in the order newPartitionMemo folds them.
func (d *DeltaAnalyzer) refresh() error {
	n := len(d.sess)
	srv := Server{Rate: d.rate, Sessions: d.sess}
	// One index-order fold: Σρ and Σφ, bit for bit TotalRho and TotalPhi.
	totRho, totPhi := 0.0, 0.0
	for i := range d.sess {
		totRho += d.sess[i].Arrival.Rho
		totPhi += d.sess[i].Phi
	}
	sp, err := newSlackSplit(d.opts.Split, d.opts.SlackFraction, d.rate, n, totRho, totPhi)
	if err != nil {
		return err
	}
	g := d.takeGen(n)
	d.ratio = resize(d.ratio, n, n/8+64)
	rates, ratio, classOf := g.rates, d.ratio, g.classOf
	arena := g.arena[:0]
	pm := &g.pm
	pm.reset(0)
	// One pass fills the rates, the ordering ratios (the slack moved, so
	// every ratio is recomputed, with FeasibleOrdering's expression) and
	// the first partition round.
	placedRho, remPhi := 0.0, totPhi
	threshold := (d.rate - placedRho) / remPhi
	pm.openClass()
	for i := range d.sess {
		s := &d.sess[i]
		r := sp.rate(s)
		rates[i] = r
		ratio[i] = r / s.Phi
		if d.pRatio[i] < threshold {
			classOf[i] = 0
			arena = append(arena, i)
			placedRho += s.Arrival.Rho
			remPhi -= s.Phi
			pm.addMember(0, s)
		} else {
			classOf[i] = -1
		}
	}
	d.seed(g.ord, ratio)
	if repairOrder(g.ord, ratio) {
		d.stats.OrderRepairs++
	} else {
		sort.Sort(ratioOrder{idx: g.ord, ratio: ratio})
		d.stats.OrderSorts++
	}
	part := Partition{ClassOf: classOf, Classes: g.classes[:0]}
	for start := 0; ; {
		if len(arena) == start {
			d.putGen(g)
			return fmt.Errorf("gpsmath: feasible partition stalled with %d sessions left (sum rho >= rate?)", n-start)
		}
		part.Classes = append(part.Classes, arena[start:len(arena):len(arena)])
		start = len(arena)
		if start == n {
			break
		}
		k := len(part.Classes)
		threshold := (d.rate - placedRho) / remPhi
		pm.openClass()
		for i, r := range d.pRatio {
			if classOf[i] >= 0 || !(r < threshold) {
				continue
			}
			s := &d.sess[i]
			classOf[i] = k
			arena = append(arena, i)
			placedRho += s.Arrival.Rho
			remPhi -= s.Phi
			pm.addMember(k, s)
		}
	}
	g.arena, g.classes = arena, part.Classes
	an, err := newAnalysis(srv, d.opts, totPhi, part, g)
	if err != nil {
		d.putGen(g)
		return err
	}
	d.adopt(an, g)
	return nil
}

// ratioBefore reports whether session a precedes session b in the
// (ratio, index) order ratioOrder sorts by.
func ratioBefore(ratio []float64, a, b int) bool {
	return ratio[a] < ratio[b] || (ratio[a] == ratio[b] && a < b)
}

// repairOrder insertion-sorts ord by (ratio, index) in place, assuming
// it is already nearly sorted, and reports whether it finished within
// its move budget. The seed places every session the batch changed, but
// the slack shift also nudges every ratio, occasionally flipping
// near-equal neighbors — hence a budget of a few N rather than none. On
// a bust the caller falls back to a full sort, the safety net; either
// way the result is the unique (ratio, index)-sorted permutation, so
// the fallback changes cost, never bits.
func repairOrder(ord []int, ratio []float64) bool {
	budget := 4*len(ord) + 64
	moves := 0
	for i := 1; i < len(ord); i++ {
		v := ord[i]
		j := i - 1
		for j >= 0 && ratioBefore(ratio, v, ord[j]) {
			ord[j+1] = ord[j]
			j--
			moves++
		}
		ord[j+1] = v
		if moves > budget {
			return false
		}
	}
	return true
}
