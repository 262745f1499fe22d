package server

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"time"

	"repro/internal/admission"
	"repro/internal/gpsmath"
)

// Epoch is one immutable published snapshot: the session set as a
// gpsmath.Server, its full memoized analysis, and the admission
// bookkeeping derived from both. Readers share epochs freely; nothing
// in an epoch is ever mutated after Store.
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
	// backing is the pooled array generation behind IDs/Targets and the
	// sorted index; the epoch holds a reference until it is finalized.
	backing *shadowBacking

	Used float64 // Σ required rates at build time
	// TargetsMet counts sessions whose epoch-analysis delay bound meets
	// their declared target (the Analysis.AdmissionDecision predicate,
	// evaluated per declared session type — see countTargets).
	TargetsMet int
	// Guaranteed/Degraded/Infeasible is the ClassifyUnderRate
	// revalidation of the published set at the nominal link rate. The
	// admission invariant (weights = required rates, Σφ <= r) makes
	// every session Guaranteed; a nonzero Degraded or Infeasible count
	// means the invariant broke and is surfaced through /metrics.
	Guaranteed, Degraded, Infeasible int
	// Delta reports whether this epoch was built by the incremental
	// path (false: full rebuild from the writer's session map).
	Delta bool
}

// Sessions returns the number of sessions in the epoch.
func (ep *Epoch) Sessions() int { return len(ep.IDs) }

// IndexOf returns the position of session id in the epoch's arrays
// (IDs, Targets, Server.Sessions), or false if the id is not in this
// epoch. Binary search over the sorted id array.
func (ep *Epoch) IndexOf(id uint64) (int, bool) {
	k := sort.Search(len(ep.idsSorted), func(j int) bool { return ep.idsSorted[j] >= id })
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

// rebuild publishes a fresh epoch from the writer's live state. The
// pending ops since the last publish are replayed through the
// incremental analyzer when there are few of them relative to the
// population (O(affected) work per op); otherwise — or when the delta
// path desyncs — the epoch is rebuilt from scratch and the analyzer
// reseeded. Either path publishes bit-identical analyses; the periodic
// self-check enforces that at runtime.
func (d *Daemon) rebuild() {
	start := time.Now()
	seq := d.epoch.Load().Seq + 1
	if d.capDirty {
		// The ledger moved this shard's capacity slice since the last
		// publish. SetRate refreshes every rate-dependent structure in
		// place (bit-identical to a fresh analyzer at the new capacity);
		// on failure the analyzer is dropped and the full path reseeds.
		// The cross-epoch eval memo keys on per-session geometry that the
		// capacity shift invalidates wholesale, so it is flushed.
		d.capDirty = false
		if d.delta != nil {
			if err := d.delta.SetRate(d.capacity); err != nil {
				d.delta = nil
			}
		}
		d.evalCache = nil
	}
	var ep *Epoch
	if d.deltaEligible() {
		ep = d.buildEpochDelta(seq)
		if ep == nil {
			d.met.DeltaFallbacks.Add(1)
		}
	}
	if ep == nil {
		ep = d.buildEpochFull(seq)
	}
	if ep == nil {
		// Analysis failed; keep serving the previous epoch rather than
		// publish a snapshot with no bounds. The analyzer is dropped
		// with the pending ops: replaying only future ops onto it would
		// desync it from the live population.
		d.delta = nil
		d.met.RebuildFailures.Add(1)
		d.lastRebuild = time.Now()
		d.opsSince = 0
		d.pending = d.pending[:0]
		return
	}
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
	d.pending = d.pending[:0]
	d.lastRebuild = time.Now()
	d.opsSince = 0
	d.dirty = false
}

// deltaEligible decides whether the pending op batch is small enough
// for replay through the incremental analyzer: each replayed op costs
// O(N) lean float passes, so past a fraction of the population a single
// from-scratch build is cheaper.
func (d *Daemon) deltaEligible() bool {
	if d.delta == nil || len(d.pending) == 0 {
		return false
	}
	lim := int(d.cfg.DeltaMaxFraction*float64(len(d.order))) + 1
	if lim < 8 {
		lim = 8
	}
	if lim > d.cfg.DeltaMaxOps {
		lim = d.cfg.DeltaMaxOps
	}
	return len(d.pending) <= lim
}

// buildEpochDelta replays the pending ops through the incremental
// analyzer and the shadow arrays. A nil return means an op was refused
// (cannot happen while the admission invariant holds); the analyzer is
// dropped so the caller's full rebuild reseeds everything
// consistently.
func (d *Daemon) buildEpochDelta(seq uint64) *Epoch {
	for _, po := range d.pending {
		if po.admit {
			rec := po.rec
			if _, err := d.delta.Admit(gpsmath.Session{Name: rec.Name, Phi: rec.G, Arrival: rec.Arrival}); err != nil {
				d.delta = nil
				return nil
			}
			d.shadowAdmit(rec)
		} else {
			if _, err := d.delta.Release(po.pos); err != nil {
				d.delta = nil
				return nil
			}
			d.shadowRelease(po.pos, po.rec.ID)
		}
	}
	return d.finishEpoch(seq, true)
}

// buildEpochFull rebuilds the shadow arrays and the incremental
// analyzer from the writer's session map. A nil return means the
// analysis rejected the set (cannot happen while the admission
// invariant holds, but never publish an unanalyzed epoch).
func (d *Daemon) buildEpochFull(seq uint64) *Epoch {
	n := len(d.order)
	old := d.shadow
	b := acquireShadow(n)
	d.shadow = b
	if old != nil {
		old.release()
	}
	d.shIDs = b.ids[:n]
	d.shTargets = b.targets[:n]
	d.shIDsSorted = b.idsSorted[:n]
	d.shPosSorted = b.posSorted[:n]
	d.shadowOwned = true
	sessions := make([]gpsmath.Session, n)
	for i, id := range d.order {
		rec := d.sessions[id]
		sessions[i] = gpsmath.Session{Name: rec.Name, Phi: rec.G, Arrival: rec.Arrival}
		d.shIDs[i] = id
		d.shTargets[i] = rec.Target
		d.shIDsSorted[i] = id
		d.shPosSorted[i] = i
	}
	sort.Sort(idPosOrder{ids: d.shIDsSorted, pos: d.shPosSorted})
	if n == 0 && !(d.capacity > 0) {
		// A zero-capacity shard (the ledger's budget is fully booked
		// elsewhere) holding no sessions has nothing to analyze; publish
		// an empty epoch and leave the analyzer unset until a refill
		// grants capacity.
		d.delta = nil
		return &Epoch{
			Seq: seq, BuiltAt: time.Now(),
			IDs: d.shIDs, Targets: d.shTargets,
			idsSorted: d.shIDsSorted, posSorted: d.shPosSorted,
			backing: d.shadow,
		}
	}
	da, err := gpsmath.NewDeltaAnalyzer(gpsmath.Server{Rate: d.capacity, Sessions: sessions}, *d.cfg.Opts)
	if err != nil {
		return nil
	}
	d.delta = da
	return d.finishEpoch(seq, false)
}

// idPosOrder sorts the id/position pair arrays by id.
type idPosOrder struct {
	ids []uint64
	pos []int
}

func (o idPosOrder) Len() int           { return len(o.ids) }
func (o idPosOrder) Less(a, b int) bool { return o.ids[a] < o.ids[b] }
func (o idPosOrder) Swap(a, b int) {
	o.ids[a], o.ids[b] = o.ids[b], o.ids[a]
	o.pos[a], o.pos[b] = o.pos[b], o.pos[a]
}

// shadowAdmit extends the shadow arrays for one admitted record.
// Appends are safe against published epochs (they hold shorter
// lengths), and ids are assigned monotonically, so the sorted arrays
// extend by append too. A full backing is re-seated explicitly first:
// letting append reallocate would silently detach the writer from the
// pooled, refcounted arrays.
func (d *Daemon) shadowAdmit(rec *record) {
	if len(d.shIDs)+1 > cap(d.shIDs) {
		d.ownShadow(len(d.shIDs)/8 + 64)
	}
	d.shIDs = append(d.shIDs, rec.ID)
	d.shTargets = append(d.shTargets, rec.Target)
	d.shIDsSorted = append(d.shIDsSorted, rec.ID)
	d.shPosSorted = append(d.shPosSorted, len(d.shIDs)-1)
}

// shadowRelease mirrors the writer's swap-remove into the shadow
// arrays. Interior slots mutate, so the first release after a publish
// copies the arrays (published epochs keep the old backing); later
// releases in the same batch edit the copy in place.
func (d *Daemon) shadowRelease(pos int, id uint64) {
	last := len(d.shIDs) - 1
	if !d.shadowOwned {
		// Copy onto a pooled backing the writer owns; the spare capacity
		// keeps the admits that follow on the cheap append path instead
		// of forcing a second full-array copy.
		d.ownShadow(64)
	}
	movedID := d.shIDs[last]
	d.shIDs[pos] = movedID
	d.shIDs = d.shIDs[:last]
	d.shTargets[pos] = d.shTargets[last]
	d.shTargets = d.shTargets[:last]
	k := sort.Search(len(d.shIDsSorted), func(j int) bool { return d.shIDsSorted[j] >= id })
	copy(d.shIDsSorted[k:], d.shIDsSorted[k+1:])
	copy(d.shPosSorted[k:], d.shPosSorted[k+1:])
	d.shIDsSorted = d.shIDsSorted[:last]
	d.shPosSorted = d.shPosSorted[:last]
	if pos != last {
		mk := sort.Search(len(d.shIDsSorted), func(j int) bool { return d.shIDsSorted[j] >= movedID })
		d.shPosSorted[mk] = pos
	}
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

// evalKey memoizes a session type's achieved eps across epochs. The
// partition-route delay bound of an H_1 session is a pure function of
// its (arrival, target) tuple, its guaranteed rate g and its effective
// rate gEff — H_1 bounds involve no other-class aggregates — so when
// none of those moved between epochs the Θ(θ-grid) tail evaluation is
// skipped entirely. Keying the floats by their bits keeps the lookup a
// pure epoch-to-epoch identity test.
type evalKey struct {
	k             rateKey
	gBits, geBits uint64
}

// evalCacheMax bounds the achieved-eps memo; on overflow the map is
// dropped and rebuilt (entries are two words, the bound is generous).
const evalCacheMax = 8192

// countTargets computes Epoch.TargetsMet: the AdmissionDecision
// predicate (partition-route delay bound at the declared target,
// ordering route consulted only on a miss) evaluated once per declared
// session type instead of once per session. Sessions of one type share
// every determinant of the partition-route bound — same arrival, same
// φ, hence the same ρ/φ ratio, the same partition class, and the same
// ψ/gEff geometry — so the per-type value is bit-identical to the
// per-session one (the regression test pins this against
// AdmissionDecision under churn). Only a type whose partition bound
// misses its target pays a per-member BestDelayTailFrom, which
// evaluates the ordering route only where its floor cannot rule it out.
func (d *Daemon) countTargets(ep *Epoch) {
	an := ep.Analysis
	if an == nil {
		return
	}
	for key, te := range d.types {
		if te.count() == 0 {
			continue
		}
		if math.IsInf(key.delay, 1) {
			ep.TargetsMet += te.count()
			continue
		}
		i, ok := ep.IndexOf(te.any())
		if !ok {
			continue
		}
		var ck evalKey
		cacheable := an.Partition.ClassOf[i] == 0
		p := math.Inf(1)
		hit := false
		if cacheable {
			ck = evalKey{k: key, gBits: math.Float64bits(an.SessionG(i)), geBits: math.Float64bits(an.EffectiveRate(i))}
			if v, ok := d.evalCache[ck]; ok {
				p, hit = v, true
				d.met.TypeEvalHits.Add(1)
			}
		}
		if !hit {
			if b := an.PartitionBound(i); b != nil {
				p = b.DelayTail(key.delay)
			}
			d.met.TypeEvalMisses.Add(1)
			if cacheable {
				if len(d.evalCache) >= evalCacheMax {
					d.evalCache = nil
				}
				if d.evalCache == nil {
					d.evalCache = make(map[evalKey]float64, 64)
				}
				d.evalCache[ck] = p
			}
		}
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
		if te.count() == 0 {
			continue
		}
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

// selfCheck compares a delta-built epoch's analysis against an eager
// from-scratch AnalyzeServer over the same session slice. A mismatch
// is surfaced as a metric, the fresh analysis is adopted into the
// epoch (with its bookkeeping recomputed), and the incremental
// analyzer is dropped so the next rebuild reseeds it.
func (d *Daemon) selfCheck(ep *Epoch) {
	d.met.SelfChecks.Add(1)
	if ep.Analysis == nil {
		return
	}
	fresh, err := gpsmath.AnalyzeServer(ep.Server, *d.cfg.Opts)
	if err != nil || !analysesEquivalent(ep.Analysis, fresh, int(ep.Seq)) {
		d.met.SelfCheckFailures.Add(1)
		d.delta = nil
		d.evalCache = nil
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
// pays its own evaluation.
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
	achieved := ep.Analysis.BestDelayTailValue(i, t.Delay)
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
