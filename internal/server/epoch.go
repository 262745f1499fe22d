package server

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	"repro/internal/gpsmath"
)

// Epoch is one immutable published snapshot: the session set as a
// gpsmath.Server, its full memoized analysis, and the admission
// bookkeeping derived from both. Nothing in an epoch is mutated after
// publish. Its scalar fields may be read at any time; its arrays only
// by a reader that pinned the epoch (Daemon.pinEpoch), or through one
// CurrentEpoch handed out, since the writer recycles the arrays of a
// retired epoch once no pin holds it (see Daemon.reclaim).
type Epoch struct {
	Seq     uint64
	BuiltAt time.Time

	// Server is the session set the epoch was computed over; Sessions[i]
	// carries φ_i = the session's required rate.
	Server gpsmath.Server
	// Analysis is the memoized analysis of Server under cfg.Opts
	// (bit-identical to AnalyzeServer whether the epoch was built
	// incrementally or from scratch); nil when the epoch is empty.
	Analysis *gpsmath.Analysis
	// IDs[i] is the daemon id of Server.Sessions[i]; IndexOf inverts it.
	IDs []uint64
	// Targets[i] is session i's declared soft-QoS target.
	Targets []admission.Target
	// idsSorted/posSorted back IndexOf: idsSorted is ascending,
	// posSorted[k] is idsSorted[k]'s index into IDs. Sorted arrays
	// instead of a map because the map rebuild was an O(N) hash pass per
	// epoch (~20ms at 131k sessions) that the O(affected) delta path
	// cannot afford; the arrays maintain incrementally (ids are assigned
	// monotonically, so admits append in sorted position).
	idsSorted []uint64
	posSorted []int
	// backing is the refcounted array generation behind IDs/Targets and
	// the sorted index; the epoch holds a reference until it is
	// reclaimed.
	backing *shadowBacking
	// readers counts the pins held on the epoch; escaped marks an epoch
	// CurrentEpoch handed out, which is never recycled.
	readers atomic.Int32
	escaped atomic.Bool

	Used float64 // Σ required rates at build time
	// TargetsMet counts sessions whose epoch-analysis delay bound meets
	// their declared target (the Analysis.AdmissionDecision predicate,
	// evaluated per declared session type — see countTargets).
	TargetsMet int
	// tails[k] is the partition-route delay tail at its declared delay
	// shared by every session of type k, one entry per type with
	// members: the value each default-point read starts from (see
	// BoundsFor).
	tails map[typeKey]float64
	// Guaranteed/Degraded/Infeasible is the ClassifyUnderRate
	// revalidation of the published set at the nominal link rate. The
	// admission invariant (weights = required rates, Σφ <= r) makes
	// every session Guaranteed; a nonzero Degraded or Infeasible count
	// means the invariant broke and is surfaced through /metrics.
	Guaranteed, Degraded, Infeasible int
	// Delta reports whether this epoch was built by an analyzer refresh
	// (false: by the verified constructor).
	Delta bool
}

// Sessions returns the number of sessions in the epoch.
func (ep *Epoch) Sessions() int { return len(ep.IDs) }

// IndexOf returns the position of session id in the epoch's arrays
// (IDs, Targets, Server.Sessions), or false if the id is not in this
// epoch. Binary search over the sorted id array.
func (ep *Epoch) IndexOf(id uint64) (int, bool) {
	k := searchID(ep.idsSorted, id)
	if k < len(ep.idsSorted) && ep.idsSorted[k] == id {
		return ep.posSorted[k], true
	}
	return 0, false
}

func validateRate(rate float64) error {
	if !(rate > 0) || math.IsInf(rate, 1) || math.IsNaN(rate) {
		return fmt.Errorf("%w: link rate = %v, want positive finite", gpsmath.ErrInvalidInput, rate)
	}
	return nil
}

// rebuild publishes a fresh epoch from the writer's live state: one
// analyzer refresh over everything decided since the last publish, or
// the verified constructor where there is no analyzer. Either path
// publishes bit-identical analyses; the periodic self-check enforces
// that at runtime. A refused analysis keeps the previous epoch
// published and comes back wrapped in ErrPublish.
func (d *Daemon) rebuild() error {
	start := time.Now()
	if d.capDirty {
		// The ledger moved this shard's capacity slice since the last
		// publish. SetRate stages it into the batch's one refresh
		// (bit-identical to a fresh analyzer at the new capacity); a rate
		// it refuses — a zero-capacity shard — drops the analyzer.
		d.capDirty = false
		if d.delta != nil && d.delta.SetRate(d.capacity) != nil {
			d.delta = nil
		}
	}
	ep, err := d.buildEpoch(d.epoch.Load().Seq + 1)
	d.lastRebuild = time.Now()
	d.opsSince = 0
	if err != nil {
		// Keep serving the previous epoch rather than publish a snapshot
		// with no bounds; the writer stays dirty, so the next tick
		// retries through the verified constructor.
		d.met.RebuildFailures.Add(1)
		d.degraded.Store(true)
		return fmt.Errorf("%w: shard %d: %w", ErrPublish, d.slot.id, err)
	}
	d.degraded.Store(false)
	if ep.Delta {
		d.deltaBuilds++
		if d.cfg.SelfCheckEvery > 0 && d.deltaBuilds%d.cfg.SelfCheckEvery == 0 {
			d.selfCheck(ep)
		}
		d.met.DeltaRebuilds.Add(1)
	} else {
		d.met.FullRebuilds.Add(1)
	}
	d.publish(ep)
	d.met.Rebuilds.Add(1)
	dur := time.Since(start)
	d.met.RebuildNanos.Add(dur.Nanoseconds())
	d.met.ObserveRebuild(dur)
	d.dirty = false
	return nil
}

// buildEpoch brings the sorted id index up to the writer's population
// and analyzes it: one Refresh of the analyzer over the batch, or —
// where there is no analyzer (boot and recovery, a refused refresh, a
// self-check mismatch, a zero-capacity shard) — the verified
// constructor over the shadow arrays.
func (d *Daemon) buildEpoch(seq uint64) (*Epoch, error) {
	d.indexBatch()
	if d.delta != nil {
		before := d.delta.Stats()
		_, err := d.delta.Refresh()
		after := d.delta.Stats()
		d.met.OrderRepairs.Add(int64(after.OrderRepairs - before.OrderRepairs))
		d.met.OrderSorts.Add(int64(after.OrderSorts - before.OrderSorts))
		if err == nil {
			return d.finishEpoch(seq, true), nil
		}
		d.delta = nil
		d.met.DeltaFallbacks.Add(1)
	}
	if len(d.shIDs) == 0 && !(d.capacity > 0) {
		// A zero-capacity shard (the ledger's budget is fully booked
		// elsewhere) holding no sessions has nothing to analyze; publish
		// an empty epoch and leave the analyzer unset until a refill
		// grants capacity.
		return &Epoch{Seq: seq, BuiltAt: time.Now()}, nil
	}
	sessions := make([]gpsmath.Session, len(d.shIDs))
	for i, id := range d.shIDs {
		rec := d.sessions[id]
		sessions[i] = gpsmath.Session{Name: rec.Name, Phi: rec.G, Arrival: rec.Arrival}
	}
	da, err := gpsmath.NewDeltaAnalyzer(gpsmath.Server{Rate: d.capacity, Sessions: sessions}, *d.cfg.Opts)
	if err != nil {
		return nil, err
	}
	d.delta = da
	return d.finishEpoch(seq, false), nil
}

// indexBatch updates the sorted id index (shIDsSorted/shPosSorted) to
// the writer's population, once per publish. Indexed records released
// since the last update leave it and indexed records a release moved
// get their new slot (both listed in touched); the sessions admitted
// since append, since ids are assigned monotonically. Those sit at or
// above idxLow, or were moved below it and are listed in touched too.
// The index arrays take interior writes only for indexed records, which
// sit below the published length, so their release already moved the
// writer onto a backing no epoch shares.
func (d *Daemon) indexBatch() {
	ids, pos := d.shIDsSorted, d.shPosSorted
	lo := len(ids) // lowest index entry a release vacated
	var add []uint64
	for _, rec := range d.touched {
		if !d.indexed(rec.ID) {
			if rec.pos >= 0 {
				add = append(add, rec.ID)
			}
			continue
		}
		k := searchID(ids, rec.ID)
		pos[k] = rec.pos // -1 marks a released id
		if rec.pos < 0 {
			lo = min(lo, k)
		}
	}
	w := lo
	for r := lo; r < len(ids); r++ {
		if pos[r] >= 0 {
			ids[w], pos[w] = ids[r], pos[r]
			w++
		}
	}
	ids, pos = ids[:w], pos[:w]
	add = append(add, d.shIDs[d.idxLow:]...)
	// A session moved twice below idxLow is listed twice.
	slices.Sort(add)
	for _, id := range slices.Compact(add) {
		ids, pos = append(ids, id), append(pos, d.sessions[id].pos)
	}
	d.shIDsSorted, d.shPosSorted = ids, pos
	d.touched = d.touched[:0]
	d.idxLow = len(d.shIDs)
}

// indexed reports whether id was in the population at the last index
// update: ids are assigned monotonically, so that is exactly the ids up
// to the index's last.
func (d *Daemon) indexed(id uint64) bool {
	n := len(d.shIDsSorted)
	return n > 0 && id <= d.shIDsSorted[n-1]
}

// searchID returns id's position in the ascending ids.
func searchID(ids []uint64, id uint64) int {
	return sort.Search(len(ids), func(j int) bool { return ids[j] >= id })
}

// finishEpoch assembles the publishable epoch from the analyzer state
// and the shadow arrays, then derives the admission bookkeeping
// (targets met, revalidation counts) per declared session type.
func (d *Daemon) finishEpoch(seq uint64, delta bool) *Epoch {
	ep := &Epoch{
		Seq:       seq,
		BuiltAt:   time.Now(),
		Server:    d.delta.Server(),
		Analysis:  d.delta.Analysis(),
		IDs:       d.shIDs,
		Targets:   d.shTargets,
		idsSorted: d.shIDsSorted,
		posSorted: d.shPosSorted,
		backing:   d.shadow,
		Used:      d.used,
		Delta:     delta,
	}
	d.countTargets(ep)
	d.countClassify(ep)
	return ep
}

// countTargets fills Epoch.tails and computes Epoch.TargetsMet: the
// AdmissionDecision predicate (partition-route delay bound at the
// declared target, ordering route consulted only on a miss) evaluated
// once per declared session type and publish instead of once per
// session. There is no memo across publishes: a type's value moves with
// g and gEff, and both move whenever Σφ or the shard capacity does,
// which under churn is every publish. Sessions of one type share every
// determinant of the partition-route bound — same arrival, same φ,
// hence the same ρ/φ ratio, the same partition class, and the same
// ψ/gEff geometry — so the per-type value is bit-identical to the
// per-session one (the regression tests pin this against
// AdmissionDecision and a fresh analysis under churn). Only a type
// whose partition bound misses its target pays a per-member
// BestDelayTailFrom, which evaluates the ordering route only where its
// floor cannot rule it out. No type has a non-finite delay: admit and
// prepare refuse one.
func (d *Daemon) countTargets(ep *Epoch) {
	an := ep.Analysis
	if an == nil {
		return
	}
	ep.tails = make(map[typeKey]float64, len(d.types))
	for key, te := range d.types {
		i, ok := ep.IndexOf(te.any())
		if !ok {
			continue
		}
		p := an.PartitionBound(i).DelayTail(key.delay)
		ep.tails[key] = p
		if p <= key.eps {
			ep.TargetsMet += te.count()
			continue
		}
		for _, mr := range te.recs {
			mi, ok := ep.IndexOf(mr.ID)
			if !ok {
				continue
			}
			if an.BestDelayTailFrom(mi, key.delay, p) <= key.eps {
				ep.TargetsMet++
			}
		}
	}
}

// countClassify computes the ClassifyUnderRate revalidation counts on
// its no-shed fast path: the analysis succeeding implies Σρ < rate, so
// nothing is shed, the survivor partition IS the epoch partition, and
// the survivor guaranteed rate φ_i/Σφ·rate is SessionG bit for bit.
// The Guaranteed predicate (H_1 membership and g covering the required
// rate, which equals φ in this daemon) is then shared by every session
// of a type, so the counts fold per type.
func (d *Daemon) countClassify(ep *Epoch) {
	an := ep.Analysis
	if an == nil {
		return
	}
	for _, te := range d.types {
		i, ok := ep.IndexOf(te.any())
		if !ok {
			continue
		}
		phi := ep.Server.Sessions[i].Phi
		if an.Partition.ClassOf[i] == 0 && an.SessionG(i) >= phi*(1-1e-12) {
			ep.Guaranteed += te.count()
		} else {
			ep.Degraded += te.count()
		}
	}
}

// selfCheck compares a delta-built epoch's analysis against a
// from-scratch AnalyzeServer over the same session slice. A mismatch
// is surfaced as a metric, the fresh analysis is adopted into the
// epoch (with its bookkeeping recomputed), and the incremental
// analyzer is dropped so the next rebuild reseeds it. The replaced
// analysis, never published, goes with the analyzer: there is none
// left to recycle it into.
func (d *Daemon) selfCheck(ep *Epoch) {
	d.met.SelfChecks.Add(1)
	if ep.Analysis == nil {
		return
	}
	fresh, err := gpsmath.AnalyzeServer(ep.Server, *d.cfg.Opts)
	if err != nil || !analysesEquivalent(ep.Analysis, fresh, int(ep.Seq)) {
		d.met.SelfCheckFailures.Add(1)
		d.delta = nil
		if err != nil {
			return
		}
		ep.Analysis = fresh
		ep.TargetsMet, ep.Guaranteed, ep.Degraded, ep.Infeasible = 0, 0, 0, 0
		d.countTargets(ep)
		d.countClassify(ep)
	}
}

// analysesEquivalent checks structural identity (rates, ordering,
// partition) plus sampled bound bit-identity between two analyses of
// the same server. probe seeds which sessions get sampled so the sweep
// rotates across epochs.
func analysesEquivalent(got, want *gpsmath.Analysis, probe int) bool {
	n := len(want.Rates)
	if len(got.Rates) != n || len(got.Ordering) != len(want.Ordering) {
		return false
	}
	for i := range got.Rates {
		if math.Float64bits(got.Rates[i]) != math.Float64bits(want.Rates[i]) {
			return false
		}
		if got.Ordering[i] != want.Ordering[i] {
			return false
		}
	}
	if !reflect.DeepEqual(got.Partition, want.Partition) {
		return false
	}
	for k := 0; k < 3 && n > 0; k++ {
		i := ((probe % n) + n + k*7919) % n
		gb, wb := got.PartitionBound(i), want.PartitionBound(i)
		if gb == nil || wb == nil {
			return gb == nil && wb == nil
		}
		if math.Float64bits(gb.G) != math.Float64bits(wb.G) ||
			math.Float64bits(gb.ThetaMax) != math.Float64bits(wb.ThetaMax) {
			return false
		}
		for _, dl := range []float64{1, 25} {
			if math.Float64bits(got.BestDelayTailValue(i, dl)) != math.Float64bits(want.BestDelayTailValue(i, dl)) {
				return false
			}
		}
	}
	return true
}

// BoundsReport is the per-session tail-bound view served from an epoch.
type BoundsReport struct {
	ID      uint64
	Name    string
	Epoch   uint64
	G       float64 // guaranteed backlog clearing rate
	Rho     float64
	Theorem string

	Q           float64 // backlog evaluation point
	BacklogProb float64 // best bound on Pr{Q >= q}
	Delay       float64 // delay evaluation point
	DelayProb   float64 // best bound on Pr{D >= delay}

	TargetDelay float64
	TargetEps   float64
	// AchievedEps is the bound at the declared target delay; MeetsTarget
	// reports AchievedEps <= TargetEps.
	AchievedEps float64
	MeetsTarget bool
}

// BoundsFor evaluates session id's tail bounds at backlog level q and
// delay level dly (zero selects defaults: the declared target delay and
// the backlog the guaranteed rate clears over it). The second return is
// false when the id is not in this epoch.
//
// At the default points all three reported probabilities are one
// quantity: DelayTail(d) is BacklogTail(G·d) on both routes, and both
// routes' G are the same expression over the same server. So the
// achieved bound is evaluated once and reused for every point that
// coincides with it bit for bit; only an explicit point that differs
// pays its own evaluation. The achieved bound's partition-route half is
// the session type's value, computed once per publish (Epoch.tails);
// BestDelayTailFrom checks the ordering route against it per session,
// so the result is BestDelayTailValue bit for bit.
func (ep *Epoch) BoundsFor(id uint64, q, dly float64) (BoundsReport, bool) {
	i, ok := ep.IndexOf(id)
	if !ok || ep.Analysis == nil {
		return BoundsReport{}, false
	}
	b := ep.Analysis.PartitionBound(i)
	if b == nil {
		return BoundsReport{}, false
	}
	t := ep.Targets[i]
	if dly <= 0 {
		dly = t.Delay
	}
	if q <= 0 {
		q = b.G * dly
	}
	s := &ep.Server.Sessions[i]
	p, ok := ep.tails[sessionType(s.Arrival, s.Phi, t)]
	if !ok {
		p = b.DelayTail(t.Delay)
	}
	achieved := ep.Analysis.BestDelayTailFrom(i, t.Delay, p)
	delayProb, backlogProb := achieved, achieved
	if math.Float64bits(dly) != math.Float64bits(t.Delay) {
		delayProb = ep.Analysis.BestDelayTailValue(i, dly)
	}
	if math.Float64bits(q) != math.Float64bits(b.G*t.Delay) {
		backlogProb = ep.Analysis.BestBacklogTailValue(i, q)
	}
	return BoundsReport{
		ID:          id,
		Name:        b.Name,
		Epoch:       ep.Seq,
		G:           b.G,
		Rho:         b.Rho,
		Theorem:     b.Theorem,
		Q:           q,
		BacklogProb: backlogProb,
		Delay:       dly,
		DelayProb:   delayProb,
		TargetDelay: t.Delay,
		TargetEps:   t.Eps,
		AchievedEps: achieved,
		MeetsTarget: achieved <= t.Eps,
	}, true
}
