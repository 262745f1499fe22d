package server

import (
	"io"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/ledger"
	"repro/internal/prom"
)

// Metrics is the daemon's observability surface: lock-free atomic
// counters on the decision and HTTP paths (the monitor.FaultCounters
// discipline — one shared instance fed from many goroutines without
// serializing them) plus P² latency summaries, rendered in Prometheus
// text format by WriteMetrics. Every counter is also declared in the
// counters table, which drives both the sum across writers and the
// render.
type Metrics struct {
	Admits          atomic.Int64 // accepted admission decisions
	Rejects         atomic.Int64 // rejected admission decisions
	Releases        atomic.Int64 // successful releases
	ReleaseMisses   atomic.Int64 // releases of unknown ids
	Shed            atomic.Int64 // submissions shed by the full queue (429 path)
	Rebuilds        atomic.Int64 // epochs published
	RebuildFailures atomic.Int64 // epoch builds rejected by AnalyzeServer
	RebuildNanos    atomic.Int64 // cumulative time inside rebuilds
	CacheHits       atomic.Int64 // required-rate memo hits
	CacheMisses     atomic.Int64 // required-rate memo misses (bisections run)

	DeltaRebuilds     atomic.Int64 // epochs published by the incremental path
	FullRebuilds      atomic.Int64 // epochs published by the from-scratch path
	DeltaFallbacks    atomic.Int64 // delta attempts that fell back to a full rebuild
	OrderRepairs      atomic.Int64 // analyzer refreshes whose ordering the insertion repair fixed
	OrderSorts        atomic.Int64 // analyzer refreshes whose repair busted its budget and sorted
	SelfChecks        atomic.Int64 // delta epochs compared against a from-scratch analysis
	SelfCheckFailures atomic.Int64 // self-checks that found a difference (fresh adopted)

	LedgerRefills atomic.Int64 // capacity reservations taken from the cross-shard ledger
	LedgerReturns atomic.Int64 // surplus capacity handed back to the ledger

	ClusterPrepares       atomic.Int64 // cluster reservations accepted (two-phase phase one)
	ClusterPrepareRejects atomic.Int64 // cluster reservations refused for headroom
	ClusterCommits        atomic.Int64 // prepares resolved into admitted sessions
	ClusterAborts         atomic.Int64 // prepares rolled back by the coordinator
	ClusterExpires        atomic.Int64 // prepares expired by TTL (sweep, recovery, or late commit)
	ClusterCommitRetries  atomic.Int64 // retried commits answered from the resolved-tx memory (lost ack)
	ClusterCompensations  atomic.Int64 // committed sessions released by abort-after-commit compensation

	WALAppends          atomic.Int64 // mutations made durable in the write-ahead log
	WALAppendFailures   atomic.Int64 // appends the log refused (mutation not applied)
	WALSnapshots        atomic.Int64 // WAL state snapshots written
	WALSnapshotFailures atomic.Int64 // WAL snapshots that failed (log keeps replaying)
	WALRecoveredOps     atomic.Int64 // log-suffix ops replayed at boot

	resp2xx, resp4xx, resp5xx atomic.Int64

	http     *prom.Summary // handler latency (ObserveHTTP)
	rebuild  *prom.Summary // epoch publish duration (ObserveRebuild)
	decision *prom.Summary // queue wait + writer apply, observed per shard by the facade
}

// NewMetrics returns an empty counter set.
func NewMetrics() *Metrics {
	return &Metrics{http: prom.NewSummary(), rebuild: prom.NewSummary(), decision: prom.NewSummary()}
}

// counters declares every Metrics counter once, in render order. A
// scrape sums each row over the node's counter sets; rows sharing a
// name are one labelled family.
var counters = [...]struct {
	name, labels, help string
	of                 func(*Metrics) *atomic.Int64
}{
	{"gpsd_admits_total", "", "accepted admission decisions", func(m *Metrics) *atomic.Int64 { return &m.Admits }},
	{"gpsd_rejects_total", "", "rejected admission decisions", func(m *Metrics) *atomic.Int64 { return &m.Rejects }},
	{"gpsd_releases_total", "", "successful session releases", func(m *Metrics) *atomic.Int64 { return &m.Releases }},
	{"gpsd_release_misses_total", "", "releases of unknown session ids", func(m *Metrics) *atomic.Int64 { return &m.ReleaseMisses }},
	{"gpsd_shed_total", "", "mutations shed by queue backpressure", func(m *Metrics) *atomic.Int64 { return &m.Shed }},
	{"gpsd_epoch_rebuilds_total", "", "epochs published", func(m *Metrics) *atomic.Int64 { return &m.Rebuilds }},
	{"gpsd_epoch_rebuild_failures_total", "", "epoch builds rejected by the analysis", func(m *Metrics) *atomic.Int64 { return &m.RebuildFailures }},
	{"gpsd_epoch_rebuild_seconds_total_nanos", "", "cumulative nanoseconds inside epoch rebuilds", func(m *Metrics) *atomic.Int64 { return &m.RebuildNanos }},
	{"gpsd_epoch_delta_rebuilds_total", "", "epochs published by the incremental path", func(m *Metrics) *atomic.Int64 { return &m.DeltaRebuilds }},
	{"gpsd_epoch_full_rebuilds_total", "", "epochs published by the from-scratch path", func(m *Metrics) *atomic.Int64 { return &m.FullRebuilds }},
	{"gpsd_epoch_delta_fallbacks_total", "", "delta attempts that fell back to a full rebuild", func(m *Metrics) *atomic.Int64 { return &m.DeltaFallbacks }},
	{"gpsd_epoch_orderings_total", `how="repair"`, "analyzer refreshes by how they fixed the eq. (5) ordering: insertion repair, or the full-sort fallback", func(m *Metrics) *atomic.Int64 { return &m.OrderRepairs }},
	{"gpsd_epoch_orderings_total", `how="sort"`, "", func(m *Metrics) *atomic.Int64 { return &m.OrderSorts }},
	{"gpsd_epoch_selfchecks_total", "", "delta epochs compared against a from-scratch analysis", func(m *Metrics) *atomic.Int64 { return &m.SelfChecks }},
	{"gpsd_epoch_selfcheck_failures_total", "", "self-checks that found a difference", func(m *Metrics) *atomic.Int64 { return &m.SelfCheckFailures }},
	{"gpsd_rate_cache_hits_total", "", "required-rate memo hits", func(m *Metrics) *atomic.Int64 { return &m.CacheHits }},
	{"gpsd_rate_cache_misses_total", "", "required-rate memo misses", func(m *Metrics) *atomic.Int64 { return &m.CacheMisses }},
	{"gpsd_ledger_refills_total", "", "capacity reservations taken from the cross-shard ledger", func(m *Metrics) *atomic.Int64 { return &m.LedgerRefills }},
	{"gpsd_ledger_returns_total", "", "surplus capacity handed back to the ledger", func(m *Metrics) *atomic.Int64 { return &m.LedgerReturns }},
	{"gpsd_cluster_prepares_total", "", "cluster two-phase reservations accepted", func(m *Metrics) *atomic.Int64 { return &m.ClusterPrepares }},
	{"gpsd_cluster_prepare_rejects_total", "", "cluster reservations refused for headroom", func(m *Metrics) *atomic.Int64 { return &m.ClusterPrepareRejects }},
	{"gpsd_cluster_commits_total", "", "cluster prepares committed into sessions", func(m *Metrics) *atomic.Int64 { return &m.ClusterCommits }},
	{"gpsd_cluster_aborts_total", "", "cluster prepares rolled back by the coordinator", func(m *Metrics) *atomic.Int64 { return &m.ClusterAborts }},
	{"gpsd_cluster_expires_total", "", "cluster prepares expired by TTL", func(m *Metrics) *atomic.Int64 { return &m.ClusterExpires }},
	{"gpsd_cluster_commit_retries_total", "", "retried commits answered idempotently from the resolved-tx memory", func(m *Metrics) *atomic.Int64 { return &m.ClusterCommitRetries }},
	{"gpsd_cluster_compensations_total", "", "committed sessions released by abort-after-commit compensation", func(m *Metrics) *atomic.Int64 { return &m.ClusterCompensations }},
	{"gpsd_wal_appends_total", "", "mutations made durable in the write-ahead log", func(m *Metrics) *atomic.Int64 { return &m.WALAppends }},
	{"gpsd_wal_append_failures_total", "", "WAL appends refused (mutation not applied)", func(m *Metrics) *atomic.Int64 { return &m.WALAppendFailures }},
	{"gpsd_wal_snapshots_total", "", "WAL state snapshots written", func(m *Metrics) *atomic.Int64 { return &m.WALSnapshots }},
	{"gpsd_wal_snapshot_failures_total", "", "WAL snapshots that failed", func(m *Metrics) *atomic.Int64 { return &m.WALSnapshotFailures }},
	{"gpsd_wal_recovered_ops_total", "", "log-suffix ops replayed at boot", func(m *Metrics) *atomic.Int64 { return &m.WALRecoveredOps }},
	{"gpsd_http_responses_total", `class="2xx"`, "served responses by status class", func(m *Metrics) *atomic.Int64 { return &m.resp2xx }},
	{"gpsd_http_responses_total", `class="4xx"`, "", func(m *Metrics) *atomic.Int64 { return &m.resp4xx }},
	{"gpsd_http_responses_total", `class="5xx"`, "", func(m *Metrics) *atomic.Int64 { return &m.resp5xx }},
}

// shardSeries are the per-writer series the sharded facade renders,
// one sample per shard.
var shardSeries = [...]struct {
	name, typ, help string
	of              func(d *Daemon, ep *Epoch) float64
}{
	{"gpsd_shard_queue_depth", "gauge", "per-shard mutation-queue occupancy",
		func(d *Daemon, _ *Epoch) float64 { return float64(d.QueueDepth()) }},
	{"gpsd_shard_sessions", "gauge", "per-shard sessions in the published epoch",
		func(_ *Daemon, ep *Epoch) float64 { return float64(ep.Sessions()) }},
	{"gpsd_shard_capacity", "gauge", "per-shard ledger-granted capacity slice",
		func(d *Daemon, _ *Epoch) float64 { return d.Capacity() }},
	{"gpsd_shard_epoch_age_seconds", "gauge", "per-shard published epoch age",
		func(_ *Daemon, ep *Epoch) float64 { return epochAge(ep) }},
	{"gpsd_shard_epoch_delta_rebuilds_total", "counter", "per-shard epochs published by the incremental path",
		func(d *Daemon, _ *Epoch) float64 { return float64(d.met.DeltaRebuilds.Load()) }},
	{"gpsd_shard_epoch_full_rebuilds_total", "counter", "per-shard epochs published by the from-scratch path",
		func(d *Daemon, _ *Epoch) float64 { return float64(d.met.FullRebuilds.Load()) }},
	{"gpsd_shard_ledger_refills_total", "counter", "per-shard capacity reservations taken from the ledger",
		func(d *Daemon, _ *Epoch) float64 { return float64(d.met.LedgerRefills.Load()) }},
	{"gpsd_shard_ledger_returns_total", "counter", "per-shard capacity returned to the ledger",
		func(d *Daemon, _ *Epoch) float64 { return float64(d.met.LedgerReturns.Load()) }},
}

// ObserveDecision records one admission/release decision's end-to-end
// latency (submit to reply) in the decision summary.
func (m *Metrics) ObserveDecision(dur time.Duration) { m.decision.Observe(dur.Seconds()) }

// ObserveRebuild records one epoch publish duration (delta or full) in
// the rebuild summary.
func (m *Metrics) ObserveRebuild(dur time.Duration) { m.rebuild.Observe(dur.Seconds()) }

// ObserveHTTP records one served request: its status class and handler
// latency.
func (m *Metrics) ObserveHTTP(status int, dur time.Duration) {
	switch {
	case status >= 500:
		m.resp5xx.Add(1)
	case status >= 400:
		m.resp4xx.Add(1)
	default:
		m.resp2xx.Add(1)
	}
	m.http.Observe(dur.Seconds())
}

// epochAge is how long ago ep was published (0 before the first
// publish).
func epochAge(ep *Epoch) float64 {
	if ep.Seq == 0 {
		return 0
	}
	return time.Since(ep.BuiltAt).Seconds()
}

// WriteMetrics renders a lone writer's metric set: the node renderer
// over a one-writer list.
func (d *Daemon) WriteMetrics(w io.Writer) { writeNode(w, d.met, []*Daemon{d}, d.cfg.Rate, nil) }

// WriteMetrics implements Service: the node renderer over every shard,
// followed by the ledger and per-shard series.
func (s *Sharded) WriteMetrics(w io.Writer) { writeNode(w, s.met, s.shards, s.cfg.Rate, s.led) }

// writeNode renders one node's metric set in Prometheus text format.
// front is the counter set HTTP observations land in, and ds are the
// writers (a lone writer is its own front). Counters sum over front and
// every writer, epoch gauges compose across writers, and rebuild
// quantiles are the worst writer's (quantiles do not sum), so every
// consumer sees the same names whatever the shard count. With a ledger
// — the sharded facade — the ledger and per-shard series follow.
func writeNode(w io.Writer, front *Metrics, ds []*Daemon, rate float64, led *ledger.Ledger) {
	mets := []*Metrics{front}
	eps := make([]*Epoch, len(ds))
	var (
		seq                                                           uint64
		sessions, targetsMet, guaranteed, degraded, infeasible, queue int
		used, age, rebP50, rebP99                                     float64
		rebN                                                          int64
	)
	for i, d := range ds {
		if d.met != front {
			mets = append(mets, d.met)
		}
		ep := d.epoch.Load() // scalar fields only: no pin
		if ep == nil {
			// A scrape that races startup renders zeros, not a panic.
			ep = &Epoch{}
		}
		eps[i] = ep
		seq += ep.Seq
		sessions += ep.Sessions()
		used += ep.Used
		targetsMet += ep.TargetsMet
		guaranteed += ep.Guaranteed
		degraded += ep.Degraded
		infeasible += ep.Infeasible
		queue += d.QueueDepth()
		age = max(age, epochAge(ep))
		p50, p99, n := d.met.rebuild.Snapshot()
		rebP50, rebP99, rebN = max(rebP50, p50), max(rebP99, p99), rebN+n
	}
	for i, c := range counters {
		if i == 0 || counters[i-1].name != c.name {
			prom.Family(w, c.name, "counter", c.help)
		}
		var sum int64
		for _, m := range mets {
			sum += c.of(m).Load()
		}
		prom.Sample(w, c.name, c.labels, float64(sum))
	}
	prom.Gauge(w, "gpsd_epoch_seq", "sequence number of the published epoch", float64(seq))
	prom.Gauge(w, "gpsd_sessions", "sessions in the published epoch", float64(sessions))
	prom.Gauge(w, "gpsd_utilization", "sum of required rates over link rate (published epoch)", used/rate)
	prom.Gauge(w, "gpsd_targets_met", "epoch sessions whose analysis bound meets their declared target", float64(targetsMet))
	prom.Gauge(w, "gpsd_sessions_guaranteed", "epoch sessions Guaranteed under ClassifyUnderRate revalidation", float64(guaranteed))
	prom.Gauge(w, "gpsd_sessions_degraded", "epoch sessions Degraded under revalidation (invariant breach)", float64(degraded))
	prom.Gauge(w, "gpsd_sessions_infeasible", "epoch sessions Infeasible under revalidation (invariant breach)", float64(infeasible))
	prom.Gauge(w, "gpsd_queue_depth", "instantaneous mutation-queue occupancy", float64(queue))
	prom.Gauge(w, "gpsd_epoch_age_seconds", "age of the published epoch at scrape time", age)
	prom.Family(w, "gpsd_handler_latency_seconds", "summary", "handler latency quantiles (P2 estimator)")
	p50, p99, n := front.http.Snapshot()
	prom.Quantiles(w, "gpsd_handler_latency_seconds", "", p50, p99, n)
	prom.Family(w, "gpsd_rebuild_duration_seconds", "summary", "epoch publish duration quantiles (P2 estimator)")
	prom.Quantiles(w, "gpsd_rebuild_duration_seconds", "", rebP50, rebP99, rebN)
	if led == nil {
		return
	}

	prom.Gauge(w, "gpsd_shards", "shard writer count", float64(len(ds)))
	prom.Gauge(w, "gpsd_ledger_budget", "global capacity budget (link rate)", led.Budget())
	prom.Gauge(w, "gpsd_ledger_reserved", "capacity currently reserved by shards", led.Reserved())
	st := led.Stats()
	prom.Counter(w, "gpsd_ledger_cas_retries_total", "ledger CAS loops that had to retry (contention)", float64(st.CASRetries))
	prom.Counter(w, "gpsd_ledger_reserve_rejects_total", "ledger reservations refused for lack of budget", float64(st.Rejects))
	for _, s := range shardSeries {
		prom.Family(w, s.name, s.typ, s.help)
		for i, d := range ds {
			prom.Sample(w, s.name, shardLabel(i), s.of(d, eps[i]))
		}
	}
	prom.Family(w, "gpsd_shard_decision_latency_seconds", "summary", "per-shard admission/release decision latency (P2 estimator)")
	for i, d := range ds {
		p50, p99, n := d.met.decision.Snapshot()
		prom.Quantiles(w, "gpsd_shard_decision_latency_seconds", shardLabel(i), p50, p99, n)
	}
}

func shardLabel(i int) string { return `shard="` + strconv.Itoa(i) + `"` }
