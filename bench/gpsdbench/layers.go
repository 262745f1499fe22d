package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// perLayer are the traced run's metrics, each timed from outside its
// layer and reported by every workload. bench/README.md names the
// end-to-end metric and workload each should move.
var perLayer = []metricDef{
	{"http.handler_us.p50", "us", "lower"},
	{"http.handler_us.p99", "us", "lower"},
	{"http.self_us.p50", "us", "lower"},
	{"http.loopback_us.p50", "us", "lower"},
	{"service.decision_us.p50", "us", "lower"},
	{"service.decision_us.p99", "us", "lower"},
	{"writer.self_us.p50", "us", "lower"},
	{"writer.self_us.p99", "us", "lower"},
	{"writer.queue_depth.max", "count", "lower"},
	{"wal.append_us.p50", "us", "lower"},
	{"wal.append_us.p99", "us", "lower"},
	{"wal.appends_per_decision", "count", "lower"},
	{"audit.record_us.p50", "us", "lower"},
	{"audit.record_us.p99", "us", "lower"},
	{"admission.memo_hit_ratio", "ratio", "higher"},
	{"ledger.refills_per_kdecision", "count", "lower"},
	{"ledger.returns_per_kdecision", "count", "lower"},
	{"epoch.publish_ms.mean", "ms", "lower"},
	{"epoch.publishes_per_s", "1/s", "lower"},
	{"epoch.full_share", "ratio", "lower"},
	{"epoch.busy_share", "ratio", "lower"},
	{"epoch.visible_ms.p50", "ms", "lower"},
	{"epoch.visible_ms.p90", "ms", "lower"},
	{"gc.cpu_share", "ratio", "lower"},
	{"gc.pause_us.mean", "us", "lower"},
	{"heap.peak_mb", "MB", "lower"},
	{"trace.admit_accounted_share", "ratio", "higher"},
	{"trace.overhead_share", "ratio", "lower"},
}

// linked is a run's spans joined into request trees.
type linked struct {
	spans    []span
	byID     map[uint64]int
	children map[uint64][]int
	self     map[uint64]int64
}

func contains(p, c *span) bool { return p.start <= c.start && c.end <= p.end }

// link gives every span its parent. Spans that crossed an HTTP hop
// already name it (the span header). A Service call is joined to the
// handler on its node that served the same session or transaction and
// contains it in time; a WAL append or audit record — made on a writer
// goroutine that carries no request — to the Service call (or, on the
// coordinator, the handler) for the same session or transaction that
// contains it; a coordinator-to-hop round trip to the coordinator
// handler of the same transaction, or, for a hop release, of the
// cluster session that owns that hop session.
func link(spans []span, hops map[uint64][]hopRef, coordNode int) *linked {
	l := &linked{spans: spans, byID: map[uint64]int{}, children: map[uint64][]int{}, self: map[uint64]int64{}}
	type keyIdx struct {
		name, op, node uint8
		key            uint64
	}
	type txIdx struct {
		name, op, node uint8
		tx             [16]byte
	}
	byKey := map[keyIdx][]int{}
	byTx := map[txIdx][]int{}
	clusterOf := map[hopRef]uint64{}
	for i := range spans {
		s := &spans[i]
		l.byID[s.id] = i
		switch s.name {
		case spHTTP, spCoord, spService:
			if s.key != 0 {
				k := keyIdx{s.name, s.op, s.node, s.key}
				byKey[k] = append(byKey[k], i)
			}
			if s.tx != ([16]byte{}) {
				k := txIdx{s.name, s.op, s.node, s.tx}
				byTx[k] = append(byTx[k], i)
			}
		}
		if s.name == spCoord && s.op == opAdmit {
			for _, h := range hops[s.id] {
				clusterOf[h] = s.key
			}
		}
	}
	pick := func(c *span, cands []int) uint64 {
		best := -1
		for _, i := range cands {
			p := &spans[i]
			if contains(p, c) && (best < 0 || p.dur() < spans[best].dur()) {
				best = i
			}
		}
		if best < 0 {
			return 0
		}
		return spans[best].id
	}
	for i := range spans {
		s := &spans[i]
		if s.parent != 0 {
			continue
		}
		byTxOp := s.op == opPrepare || s.op == opCommit || s.op == opAbort
		switch s.name {
		case spService:
			if byTxOp {
				s.parent = pick(s, byTx[txIdx{spHTTP, s.op, s.node, s.tx}])
			} else {
				s.parent = pick(s, byKey[keyIdx{spHTTP, s.op, s.node, s.key}])
			}
		case spWAL, spAudit:
			switch {
			case int(s.node) == coordNode:
				s.parent = pick(s, byKey[keyIdx{spCoord, s.op, s.node, s.key}])
			case byTxOp:
				s.parent = pick(s, byTx[txIdx{spService, s.op, s.node, s.tx}])
			default:
				s.parent = pick(s, byKey[keyIdx{spService, s.op, s.node, s.key}])
			}
		case spRPC:
			if byTxOp {
				s.parent = pick(s, byTx[txIdx{spCoord, opAdmit, uint8(coordNode), s.tx}])
			} else if id, ok := clusterOf[hopRef{s.node, s.key}]; ok {
				s.parent = pick(s, byKey[keyIdx{spCoord, opRelease, uint8(coordNode), id}])
			}
		}
	}
	for i := range spans {
		s := &spans[i]
		if _, ok := l.byID[s.parent]; ok {
			l.children[s.parent] = append(l.children[s.parent], i)
		}
	}
	for i := range spans {
		s := &spans[i]
		self := s.dur()
		for _, c := range l.children[s.id] {
			self -= spans[c].dur()
		}
		l.self[s.id] = self
	}
	return l
}

// selfTimes returns the self times of the spans matching keep, in
// microseconds.
func (l *linked) selfTimes(keep func(*span) bool) []float64 {
	var out []float64
	for i := range l.spans {
		if s := &l.spans[i]; keep(s) {
			out = append(out, float64(l.self[s.id])/1e3)
		}
	}
	return out
}

func durations(spans []span, keep func(*span) bool) []float64 {
	var out []float64
	for i := range spans {
		if s := &spans[i]; keep(s) {
			out = append(out, float64(s.dur())/1e3)
		}
	}
	return out
}

// layerOf names the layer a span's self time belongs to in an admit's
// breakdown; hop-side layers are prefixed.
func layerOf(s *span, coordNode int) string {
	switch s.name {
	case spClient:
		return "loopback"
	case spRPC:
		return "hop.net"
	}
	name := spanNames[s.name]
	if coordNode >= 0 && int(s.node) != coordNode {
		return "hop." + name
	}
	return name
}

// admitBreakdown splits a typical admit's latency by layer: for every
// client admit with a complete tree it sums each layer's self time on
// the blocking path, then averages those sums over the admits whose
// latency lies between the 40th and 60th percentile. It returns the
// per-layer means, the median admit latency and the admit count, in
// microseconds. Self times partition each admit, so the layers account
// for the median admit unless spans failed to join their request.
func (l *linked) admitBreakdown(coordNode int) (map[string]float64, float64, int) {
	type admit struct {
		total float64
		per   map[string]float64
	}
	var admits []admit
	for i := range l.spans {
		root := &l.spans[i]
		if root.name != spClient || root.op != opAdmit || len(l.children[root.id]) == 0 {
			continue
		}
		a := admit{total: float64(root.dur()) / 1e3, per: map[string]float64{}}
		var walk func(id uint64)
		walk = func(id uint64) {
			s := &l.spans[l.byID[id]]
			a.per[layerOf(s, coordNode)] += float64(l.self[id]) / 1e3
			for _, c := range l.children[id] {
				walk(l.spans[c].id)
			}
		}
		walk(root.id)
		admits = append(admits, a)
	}
	if len(admits) == 0 {
		return nil, 0, 0
	}
	sort.Slice(admits, func(i, j int) bool { return admits[i].total < admits[j].total })
	lo, hi := len(admits)*2/5, max(len(admits)*3/5, len(admits)*2/5+1)
	mean := map[string]float64{}
	for _, a := range admits[lo:hi] {
		for k, v := range a.per {
			mean[k] += v / float64(hi-lo)
		}
	}
	totals := make([]float64, len(admits))
	for i, a := range admits {
		totals[i] = a.total
	}
	return mean, median(totals), len(admits)
}

// counters is a snapshot of the in-process stack's counters and the
// Go runtime's, taken at the edges of the traced window.
type counters struct {
	at                                  int64
	rebuilds, rebuildNanos, delta, full int64
	admits, releases, refills, returns  int64
	hits, misses                        int64
	writers                             int
	gcCPU, totalCPU                     float64
	pauseNs                             uint64
	numGC                               uint32
}

func (w *epochWatch) counters() counters {
	c := counters{at: w.clk.now()}
	w.mu.Lock()
	for _, n := range w.nodes {
		for _, d := range n.daemons {
			m := d.Metrics()
			c.rebuilds += m.Rebuilds.Load()
			c.rebuildNanos += m.RebuildNanos.Load()
			c.delta += m.DeltaRebuilds.Load()
			c.full += m.FullRebuilds.Load()
			c.admits += m.Admits.Load()
			c.releases += m.Releases.Load()
			c.refills += m.LedgerRefills.Load()
			c.returns += m.LedgerReturns.Load()
			c.writers++
		}
		c.hits += n.memo.CacheHits.Load()
		c.misses += n.memo.CacheMisses.Load()
	}
	w.mu.Unlock()
	samples := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(samples)
	c.gcCPU, c.totalCPU = samples[0].Value.Float64(), samples[1].Value.Float64()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.pauseNs, c.numGC = ms.PauseTotalNs, ms.NumGC
	return c
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// tracedMetrics computes the per-layer metrics: span-based ones from the
// spans-on slices, counter- and watcher-based ones over the whole
// window, and the tracing overhead from the client's admit latency in
// the spans-on against the spans-off slices. It writes trace.jsonl next
// to the results.
func (r *runner) tracedMetrics(res *result, cs []*client, before, after counters, w *epochWatch) error {
	spans := r.tr.all()
	coordNode := -1
	if res.Workload == "cluster-tree" {
		coordNode = int(r.tr.nodeIndex("coord"))
	}
	front := uint8(0)
	if coordNode < 0 {
		front = r.tr.nodeIndex("gpsd")
	}
	l := link(spans, r.tr.hops, coordNode)
	if err := r.tr.writeJSONL(filepath.Join(r.work, "trace.jsonl"), spans, l.self); err != nil {
		return err
	}

	set := func(name string, v float64, n int) {
		mt := &metric{Value: v, N: n, Supported: true}
		for _, d := range perLayer {
			if d.name == name {
				mt.Unit = d.unit
			}
		}
		res.Metrics[name] = mt.finite()
	}
	pct := func(name string, xs []float64, p float64) {
		sort.Float64s(xs)
		set(name, quantile(xs, p), len(xs))
		res.Metrics[name].Supported = supports(len(xs), p)
	}
	isFront := func(s *span) bool {
		if coordNode >= 0 {
			return s.name == spCoord
		}
		return s.name == spHTTP && s.node == front
	}
	decision := func(s *span) bool {
		return s.name == spService && s.op != opBounds && s.op != opOther
	}
	pct("http.handler_us.p50", durations(spans, isFront), 0.5)
	pct("http.handler_us.p99", durations(spans, isFront), 0.99)
	pct("http.self_us.p50", l.selfTimes(isFront), 0.5)
	pct("http.loopback_us.p50", l.selfTimes(func(s *span) bool { return s.name == spClient && len(l.children[s.id]) > 0 }), 0.5)
	pct("service.decision_us.p50", durations(spans, decision), 0.5)
	pct("service.decision_us.p99", durations(spans, decision), 0.99)
	pct("writer.self_us.p50", l.selfTimes(decision), 0.5)
	pct("writer.self_us.p99", l.selfTimes(decision), 0.99)
	walD := durations(spans, func(s *span) bool { return s.name == spWAL })
	pct("wal.append_us.p50", walD, 0.5)
	pct("wal.append_us.p99", walD, 0.99)
	nDecisions := len(durations(spans, decision))
	set("wal.appends_per_decision", ratio(float64(len(walD)), float64(nDecisions)), nDecisions)
	auditD := durations(spans, func(s *span) bool { return s.name == spAudit })
	pct("audit.record_us.p50", auditD, 0.5)
	pct("audit.record_us.p99", auditD, 0.99)

	w.mu.Lock()
	queue, visible, heap := w.queue, append([]int64(nil), w.visible...), w.heap
	w.mu.Unlock()
	set("writer.queue_depth.max", float64(queue), 1)
	lookups := after.hits + after.misses - before.hits - before.misses
	set("admission.memo_hit_ratio", ratio(float64(after.hits-before.hits), float64(lookups)), int(lookups))
	decisions := float64(after.admits + after.releases - before.admits - before.releases)
	set("ledger.refills_per_kdecision", ratio(1000*float64(after.refills-before.refills), decisions), int(decisions))
	set("ledger.returns_per_kdecision", ratio(1000*float64(after.returns-before.returns), decisions), int(decisions))
	publishes := float64(after.rebuilds - before.rebuilds)
	elapsed := float64(after.at - before.at)
	busy := float64(after.rebuildNanos - before.rebuildNanos)
	set("epoch.publish_ms.mean", ratio(busy/1e6, publishes), int(publishes))
	set("epoch.publishes_per_s", ratio(publishes, elapsed/1e9), int(publishes))
	set("epoch.full_share", ratio(float64(after.full-before.full), float64(after.full+after.delta-before.full-before.delta)), int(publishes))
	set("epoch.busy_share", ratio(busy, elapsed*float64(after.writers)), after.writers)
	vis := make([]float64, len(visible))
	for i, v := range visible {
		vis[i] = float64(v) / 1e6
	}
	pct("epoch.visible_ms.p50", vis, 0.5)
	pct("epoch.visible_ms.p90", append([]float64(nil), vis...), 0.9)
	set("gc.cpu_share", ratio(after.gcCPU-before.gcCPU, after.totalCPU-before.totalCPU), 1)
	gcs := after.numGC - before.numGC
	set("gc.pause_us.mean", ratio(float64(after.pauseNs-before.pauseNs)/1e3, float64(gcs)), int(gcs))
	set("heap.peak_mb", float64(heap)/(1<<20), 1)

	med, total, n := l.admitBreakdown(coordNode)
	sum := 0.0
	for _, v := range med {
		sum += v
	}
	set("trace.admit_accounted_share", ratio(sum, total), n)
	for k, v := range med {
		res.Extra["breakdown_us."+k] = &metric{Value: v, Unit: "us", N: n, Supported: true}
	}

	off := merged(cs, phaseA).admit.durations(time.Millisecond)
	on := merged(cs, phaseB).admit.durations(time.Millisecond)
	set("trace.overhead_share", ratio(quantile(on, 0.5)-quantile(off, 0.5), quantile(off, 0.5)), len(on))

	r.layerExtras(res, l, coordNode)
	return nil
}

// layerExtras reports the per-layer numbers that exist only on some
// workloads — the coordinator's round trips, the node's Service calls
// by kind — outside the gated set.
func (r *runner) layerExtras(res *result, l *linked, coordNode int) {
	spans := l.spans
	add := func(name, unit string, xs []float64, p float64) {
		if len(xs) == 0 {
			return
		}
		sort.Float64s(xs)
		res.Extra[name] = (&metric{Value: quantile(xs, p), Unit: unit, N: len(xs), Supported: supports(len(xs), p)}).finite()
	}
	for _, op := range []uint8{opAdmit, opRelease, opBounds} {
		keep := func(s *span) bool { return s.name == spService && s.op == op }
		add(fmt.Sprintf("service.%s_us.p50", opNames[op]), "us", durations(spans, keep), 0.5)
		add(fmt.Sprintf("service.%s_us.p99", opNames[op]), "us", durations(spans, keep), 0.99)
	}
	snaps := durations(spans, func(s *span) bool { return s.name == spSnapshot })
	for i := range snaps {
		snaps[i] /= 1e3 // us to ms
	}
	add("wal.snapshot_ms.max", "ms", snaps, 1)
	if coordNode < 0 {
		return
	}
	coordAdmits, rpcs := 0, 0
	for i := range spans {
		s := &spans[i]
		if s.name == spCoord && s.op == opAdmit {
			coordAdmits++
			for _, c := range l.children[s.id] {
				if spans[c].name == spRPC {
					rpcs++
				}
			}
		}
	}
	res.Extra["coord.rpcs_per_admit"] = &metric{Value: ratio(float64(rpcs), float64(coordAdmits)), Unit: "count", N: coordAdmits, Supported: true}
	for _, op := range []uint8{opPrepare, opCommit, opRelease} {
		name := map[uint8]string{opPrepare: "prepare", opCommit: "commit", opRelease: "hop_release"}[op]
		add("coord."+name+"_rtt_us.p50", "us", durations(spans, func(s *span) bool { return s.name == spRPC && s.op == op }), 0.5)
	}
	hopHTTP := func(s *span) bool { return s.name == spHTTP && int(s.node) != coordNode }
	add("hop.handler_us.p50", "us", durations(spans, hopHTTP), 0.5)
	add("hop.net_us.p50", "us", l.selfTimes(func(s *span) bool { return s.name == spRPC }), 0.5)
	add("coord.self_us.p50", "us", l.selfTimes(func(s *span) bool { return s.name == spCoord && s.op == opAdmit }), 0.5)
}
