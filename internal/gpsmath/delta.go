package gpsmath

import (
	"fmt"
	"math"
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
//     repair changes its cost, never its result.
//  3. Both refresh paths end in the one assembly helper AnalyzeServer
//     uses (newAnalysis): the same memos, the same feasibility guard,
//     the same on-demand bound constructors — there is no second
//     implementation to drift.
//
// What stays O(N): the decomposed rates r_i = ρ_i + slack/N change for
// every session on every refresh (slack and N both move), so the rate
// and ratio fills, the memo prefix/suffix passes, and the feasibility
// sweep remain lean linear float passes (~a few ms at 131k sessions),
// paid once per batch however many ops it holds. What the delta path
// eliminates is everything superlinear or heavyweight: the O(N log N)
// sorts (the ordering repaired in O(N + moves), the partition scanned
// over the maintained ρ/φ ratios) and the eq. (5) verification pass.

// DeltaStats counts how the analyzer's refreshes fixed the ordering.
type DeltaStats struct {
	// OrderRepairs counts refreshes where the bounded insertion repair
	// fixed the feasible ordering; OrderSorts counts the fallbacks to a
	// full sort (repair budget exhausted — ratios moved too much).
	OrderRepairs, OrderSorts uint64
}

// DeltaAnalyzer maintains an Analysis across session admits, releases
// and rate moves. Admit, Release and SetRate only stage a change, in
// O(1) (a batch's first release into the refreshed population copies it
// once); Refresh turns everything staged since the last refresh into
// one analysis. It
// is not goroutine-safe; the intended owner is a single writer (the
// gpsd shard writer) that publishes the refreshed analyses to readers
// via epoch snapshots. Returned analyses are immutable and remain valid
// after further operations: admits extend the session slice
// append-share style (old epochs see the old length), and releases
// into it copy it fresh.
type DeltaAnalyzer struct {
	opts Options
	// rate, sess and pRatio are the staged population the next Refresh
	// analyzes. pRatio[i] = ρ_i/φ_i is maintained alongside sess (same
	// append/swap-remove moves) and feeds the partition rounds without a
	// per-refresh division pass.
	rate   float64
	sess   []Session
	pRatio []float64
	// origin carries the batch's swap-removes into the ordering seed:
	// origin[i] is the index session i had at the last refresh; one at
	// or past the last refreshed population marks a session admitted
	// since. Built at the batch's first release.
	origin []int
	owned  bool // sess and pRatio are this batch's private copy
	// an analyzes last, the population of the last successful refresh;
	// a refused Refresh restores it.
	an        *Analysis
	last      Server
	lastRatio []float64
	stats     DeltaStats
	// ratioScratch backs the r_i/φ_i ordering ratios during a refresh;
	// nothing epoch-visible retains it, so it is reused across batches.
	ratioScratch []float64
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
	d := &DeltaAnalyzer{
		opts:   opts,
		rate:   srv.Rate,
		sess:   append(make([]Session, 0, n), srv.Sessions...),
		pRatio: make([]float64, n),
	}
	for i := range d.sess {
		d.pRatio[i] = d.sess[i].Arrival.Rho / d.sess[i].Phi
	}
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
	// Append-share: published analyses hold shorter slice headers, so
	// extending the backing arrays past their length never perturbs them.
	d.sess = append(d.sess, s)
	d.pRatio = append(d.pRatio, s.Arrival.Rho/s.Phi)
	if d.origin != nil {
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
		d.sess = append(make([]Session, 0, n+64), d.sess...)
		d.pRatio = append(make([]float64, 0, n+64), d.pRatio...)
		d.owned = true
	}
	if d.origin == nil && d.an != nil {
		// The batch's first release starts the carry as the identity over
		// the last refreshed population.
		d.origin = make([]int, n, n+64)
		for i := range d.origin {
			d.origin[i] = i
		}
	}
	last := n - 1
	d.sess[pos], d.pRatio[pos] = d.sess[last], d.pRatio[last]
	d.sess, d.pRatio = d.sess[:last], d.pRatio[:last]
	if d.origin != nil {
		d.origin[pos], d.origin = d.origin[last], d.origin[:last]
	}
	return nil
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
	if len(d.sess) == 0 {
		d.an = nil
	} else {
		err = d.refresh(d.seed())
	}
	d.origin, d.owned = nil, false
	if err != nil {
		d.rate, d.sess, d.pRatio = d.last.Rate, d.last.Sessions, d.lastRatio
		return nil, err
	}
	d.last, d.lastRatio = Server{Rate: d.rate, Sessions: d.sess}, d.pRatio
	return d.an, nil
}

// seed is the ordering repair's starting permutation: the last
// refreshed ordering carried through the batch's swap-removes, with the
// sessions admitted since appended at the end. nil — the verified
// constructor — when there is no last ordering.
func (d *DeltaAnalyzer) seed() []int {
	if d.an == nil {
		return nil
	}
	seed := make([]int, 0, len(d.sess))
	if d.origin == nil {
		seed = append(seed, d.an.Ordering...)
		for i := len(d.an.Ordering); i < len(d.sess); i++ {
			seed = append(seed, i)
		}
		return seed
	}
	// now[j] is one past the index last-refresh session j holds today,
	// or 0 once released.
	now := make([]int, len(d.an.Ordering))
	var fresh []int
	for i, j := range d.origin {
		if j >= len(now) {
			fresh = append(fresh, i)
		} else {
			now[j] = i + 1
		}
	}
	for _, j := range d.an.Ordering {
		if now[j] > 0 {
			seed = append(seed, now[j]-1)
		}
	}
	return append(seed, fresh...)
}

// refresh rebuilds the analysis for the current session slice. A nil
// seed runs the verified constructor, AnalyzeServer; a non-nil seed is
// a near-sorted candidate permutation covering [0, len(sess)) that is
// repaired in place.
//
// The repair path skips the eq. (5) verification: the greedy min r/φ
// order satisfies eq. (5) whenever Σr_i <= r (paper §3), and
// DecomposedRates guarantees exactly that by construction — it errors
// with ErrOverloaded before producing rates otherwise. The daemon's
// periodic self-check re-runs the verified constructor against the same
// population, so a violation could not persist silently even if the
// rates were somehow inconsistent.
func (d *DeltaAnalyzer) refresh(seed []int) error {
	srv := Server{Rate: d.rate, Sessions: d.sess}
	if seed == nil {
		an, err := AnalyzeServer(srv, d.opts)
		if err != nil {
			return err
		}
		d.an = an
		return nil
	}
	rates, err := srv.DecomposedRates(d.opts.Split, d.opts.SlackFraction)
	if err != nil {
		return err
	}
	n := len(seed)
	if cap(d.ratioScratch) < n {
		d.ratioScratch = make([]float64, n, n+n/2+8)
	}
	// Same expression as FeasibleOrdering's ratio fill: the slack moved,
	// so every ratio is recomputed (bit-identically).
	ratio := d.ratioScratch[:n]
	for i := range ratio {
		ratio[i] = rates[i] / d.sess[i].Phi
	}
	if repairOrder(seed, ratio) {
		d.stats.OrderRepairs++
	} else {
		sort.Sort(ratioOrder{idx: seed, ratio: ratio})
		d.stats.OrderSorts++
	}
	part, err := d.partition(srv)
	if err != nil {
		return err
	}
	an, err := newAnalysis(srv, d.opts, part, seed, rates)
	if err != nil {
		return err
	}
	d.an = an
	return nil
}

// partition runs the feasible-partition recursion (eqs. 37–39) over the
// maintained ρ/φ ratios. It is the reference round algorithm — scan all
// unplaced sessions in index order against the round threshold — whose
// arithmetic FeasiblePartition is pinned to bit for bit, with the
// per-session ratio divisions already done. O(L·N) scans, but L is the
// class count (small) and a round is a single float compare per
// session, so this is one of the lean linear passes.
func (d *DeltaAnalyzer) partition(srv Server) (Partition, error) {
	n := len(srv.Sessions)
	p := Partition{ClassOf: make([]int, n)}
	for i := range p.ClassOf {
		p.ClassOf[i] = -1
	}
	placedRho := 0.0
	remPhi := srv.TotalPhi()
	remaining := n
	// The arena backs the epoch-visible class slices: allocated fresh
	// per refresh (old epochs keep their own).
	arena := make([]int, 0, n)
	for remaining > 0 {
		threshold := (srv.Rate - placedRho) / remPhi
		start := len(arena)
		for i, r := range d.pRatio {
			if p.ClassOf[i] >= 0 {
				continue
			}
			if r < threshold {
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
			placedRho += srv.Sessions[i].Arrival.Rho
			remPhi -= srv.Sessions[i].Phi
		}
		p.Classes = append(p.Classes, class)
		remaining -= len(class)
	}
	return p, nil
}

// repairOrder insertion-sorts ord by (ratio, index) in place, assuming
// it is already nearly sorted, and reports whether it finished within
// its move budget. A single admit/release displaces O(1) elements, but
// the slack shift also nudges every ratio, occasionally flipping
// near-equal neighbors — hence a budget of a few N rather than exactly
// the seeded displacement. On a bust the caller falls back to a full
// sort; either way the result is the unique (ratio, index)-sorted
// permutation, so the fallback changes cost, never bits.
func repairOrder(ord []int, ratio []float64) bool {
	budget := 4*len(ord) + 64
	moves := 0
	for i := 1; i < len(ord); i++ {
		v := ord[i]
		j := i - 1
		for j >= 0 && (ratio[v] < ratio[ord[j]] || (ratio[v] == ratio[ord[j]] && v < ord[j])) {
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
