package server

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gpsmath"
	"repro/internal/ledger"
	"repro/internal/wal"
)

// Sharded is gpsd's admission service at every shard count: N
// independent shard Daemons, each the single writer for its slice of
// the session population, composed behind one Service surface. One
// shard is the paper's single GPS server: it owns the whole link, runs
// with no ledger, and assigns exactly a standalone Daemon's ids, so
// every bound it serves is bit-identical to one. Sessions are routed
// to shards by their leaky-bucket class (gpsmath.ShardOf over the ρ/φ
// ratio — the feasible-partition key of eqs. 37–39), and the shard id
// is bit-packed into the low ShardBits of every session id, so reads
// and releases route by mask with no lookup. Capacity lives in a
// cross-shard ledger: each writer admits O(1) against its own slice
// and CASes a batched quantum from the shared budget only when the
// slice runs out, so decisions never take a cross-shard lock. The
// per-shard slices always sum to at most the link rate, which makes
// each shard's epoch — analyzed at its slice — a sound hierarchical
// GPS decomposition of the link, bit-identical to an offline
// AnalyzeServer over that shard's sessions at the same capacity.
type Sharded struct {
	n    int
	bits uint
	mask uint64

	cfg    Config // the template configuration (global Rate etc.)
	led    *ledger.Ledger
	rates  *RateMemo
	met    *Metrics // facade-level counters: HTTP observations, routing rejects
	shards []*Daemon

	closing atomic.Bool
}

// shardBits returns the number of id bits needed for n shards.
func shardBits(n int) uint {
	bits := uint(0)
	for 1<<bits < n {
		bits++
	}
	return bits
}

// NewSharded builds and starts an n-shard service. logs, recs and
// audits are per-shard (each may be nil, or nil-element for shards
// without durability); they line up with WAL stripes opened by
// wal.OpenStriped. The per-shard capacity slices are derived from the
// recovered per-shard Σφ by ledger.BootCapacities — a deterministic
// function, so an offline verifier re-derives the same slices from the
// same stripes. Only n >= 2 shards share a ledger; a lone shard's slice
// is the whole rate.
func NewSharded(cfg Config, n int, logs []AdmissionLog, recs []*wal.Recovered, audits []AuditSink) (*Sharded, error) {
	if n < 1 {
		return nil, fmt.Errorf("%w: shard count %d, want >= 1", gpsmath.ErrInvalidInput, n)
	}
	cfg = cfg.withDefaults()
	if err := validateRate(cfg.Rate); err != nil {
		return nil, err
	}
	if logs != nil && len(logs) != n {
		return nil, fmt.Errorf("server: %d WAL stripes for %d shards", len(logs), n)
	}
	if recs != nil && len(recs) != n {
		return nil, fmt.Errorf("server: %d recovery states for %d shards", len(recs), n)
	}
	if audits != nil && len(audits) != n {
		return nil, fmt.Errorf("server: %d audit sinks for %d shards", len(audits), n)
	}
	quantum := ledger.DefaultQuantum(cfg.Rate, n)
	used := make([]float64, n)
	sts := make([]*wal.State, n)
	for i := 0; i < n; i++ {
		if recs == nil || recs[i] == nil {
			continue
		}
		st, err := recs[i].SessionSet()
		if err != nil {
			return nil, fmt.Errorf("server: shard %d recovery: %w", i, err)
		}
		used[i], sts[i] = st.Used, &st
	}
	caps, err := ledger.BootCapacities(used, cfg.Rate, quantum)
	if err != nil {
		return nil, fmt.Errorf("server: boot capacities: %w", err)
	}
	led, err := ledger.New(cfg.Rate)
	if err != nil {
		return nil, err
	}
	for _, c := range caps {
		led.Grant(c)
	}
	s := &Sharded{
		n:      n,
		bits:   shardBits(n),
		mask:   uint64(1)<<shardBits(n) - 1,
		cfg:    cfg,
		led:    led,
		rates:  NewRateMemo(cfg.RateCacheMax),
		met:    NewMetrics(),
		shards: make([]*Daemon, n),
	}
	for i := 0; i < n; i++ {
		slot := shardSlot{id: uint64(i), bits: s.bits, capacity: caps[i], quantum: quantum, rates: s.rates}
		if n > 1 {
			slot.ledger = led
		}
		scfg := cfg
		scfg.Log = nil
		if logs != nil && logs[i] != nil {
			scfg.Log = logs[i]
		}
		scfg.Recovered = nil
		if recs != nil {
			scfg.Recovered = recs[i]
		}
		scfg.Audit = nil
		if audits != nil && audits[i] != nil {
			scfg.Audit = audits[i]
		}
		d, err := newDaemon(scfg, slot, sts[i])
		if err != nil {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			for j := 0; j < i; j++ {
				_ = s.shards[j].Close(ctx)
			}
			cancel()
			return nil, fmt.Errorf("server: shard %d: %w", i, err)
		}
		s.shards[i] = d
	}
	return s, nil
}

// Shards returns the shard count.
func (s *Sharded) Shards() int { return s.n }

// Shard returns shard i's daemon (tests and the offline verifier).
func (s *Sharded) Shard(i int) *Daemon { return s.shards[i] }

// Ledger returns the shared capacity ledger.
func (s *Sharded) Ledger() *ledger.Ledger { return s.led }

// Rate returns the configured global link rate.
func (s *Sharded) Rate() float64 { return s.cfg.Rate }

// Metrics returns the facade's counter set (HTTP observations and
// routing-level decisions; per-shard counters live on each shard).
func (s *Sharded) Metrics() *Metrics { return s.met }

// HTTPMetrics implements Service.
func (s *Sharded) HTTPMetrics() *Metrics { return s.met }

// RetryAfter implements Service.
func (s *Sharded) RetryAfter() time.Duration { return s.cfg.RetryAfter }

// EpochAgeBound implements Service.
func (s *Sharded) EpochAgeBound() time.Duration { return s.cfg.MaxEpochAge }

// shardOf returns the shard index an id routes to, or -1 for ids no
// shard could have assigned.
func (s *Sharded) shardOf(id uint64) int {
	k := int(id & s.mask)
	if k >= s.n {
		return -1
	}
	return k
}

// Admit implements Service: validate and size the request once (shared
// memo, counted here), route by the session's ρ/φ class, and hand the
// owning shard writer the sized request to decide. Decision latency is
// observed per shard, so a hot or contended shard is visible in
// /metrics before it is slow.
func (s *Sharded) Admit(req AdmitRequest) (AdmitResult, error) {
	if s.closing.Load() {
		return AdmitResult{}, ErrDraining
	}
	g, rej, ok, err := sizeAdmit(s.rates, s.met, req)
	if !ok {
		return rej, err
	}
	d := s.shards[gpsmath.ShardOf(req.Arrival.Rho, g, s.n)]
	start := time.Now()
	res, err := d.admitSized(req, g)
	d.met.ObserveDecision(time.Since(start))
	return res, err
}

// Prepare implements Service: validate once, route by the session's
// ρ/φ class exactly like Admit (φ is the coordinator-assigned weight,
// so it is the routing rate), and let the owning shard writer reserve.
// The result carries that shard's index; the coordinator echoes it on
// commit/abort so resolution reaches the same single writer with no
// cross-shard transaction table.
func (s *Sharded) Prepare(req PrepareRequest) (PrepareResult, error) {
	if s.closing.Load() {
		return PrepareResult{}, ErrDraining
	}
	if err := req.Validate(); err != nil {
		return PrepareResult{}, err
	}
	d := s.shards[gpsmath.ShardOf(req.Arrival.Rho, req.Phi, s.n)]
	start := time.Now()
	res, err := d.Prepare(req)
	d.met.ObserveDecision(time.Since(start))
	return res, err
}

// CommitPrepared implements Service, routing by the echoed shard.
func (s *Sharded) CommitPrepared(txid string, shard int) (CommitResult, error) {
	if s.closing.Load() {
		return CommitResult{}, ErrDraining
	}
	if shard < 0 || shard >= s.n {
		return CommitResult{Reason: "unknown shard"}, nil
	}
	d := s.shards[shard]
	start := time.Now()
	res, err := d.CommitPrepared(txid, shard)
	d.met.ObserveDecision(time.Since(start))
	return res, err
}

// AbortPrepared implements Service, routing by the echoed shard.
func (s *Sharded) AbortPrepared(txid string, shard int) (bool, error) {
	if s.closing.Load() {
		return false, ErrDraining
	}
	if shard < 0 || shard >= s.n {
		return false, nil
	}
	d := s.shards[shard]
	start := time.Now()
	ok, err := d.AbortPrepared(txid, shard)
	d.met.ObserveDecision(time.Since(start))
	return ok, err
}

// ClusterSessions implements Service: every shard's listing
// concatenated in shard index order (each shard's slice is already
// id-sorted, so the composed view is deterministic too).
func (s *Sharded) ClusterSessions() ([]ClusterSessionInfo, error) {
	if s.closing.Load() {
		return nil, ErrDraining
	}
	var out []ClusterSessionInfo
	for i, d := range s.shards {
		infos, err := d.ClusterSessions()
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		out = append(out, infos...)
	}
	return out, nil
}

// Release implements Service, routing by the shard id packed in the
// session id's low bits.
func (s *Sharded) Release(id uint64) (bool, error) {
	if s.closing.Load() {
		return false, ErrDraining
	}
	k := s.shardOf(id)
	if k < 0 {
		s.met.ReleaseMisses.Add(1)
		return false, nil
	}
	d := s.shards[k]
	start := time.Now()
	ok, err := d.Release(id)
	d.met.ObserveDecision(time.Since(start))
	return ok, err
}

// Pending implements Service.
func (s *Sharded) Pending(id uint64) bool {
	k := s.shardOf(id)
	return k >= 0 && s.shards[k].Pending(id)
}

// Bounds implements Service: the owning shard's epoch answers.
func (s *Sharded) Bounds(id uint64, q, dly float64) (BoundsReport, bool) {
	k := s.shardOf(id)
	if k < 0 {
		return BoundsReport{}, false
	}
	return s.shards[k].Bounds(id, q, dly)
}

// Partition implements Service. shard >= 0 selects one shard's epoch;
// shard < 0 concatenates every shard's classes in shard order (the
// composed global view: each shard's classes are the eqs. 37–39
// partition of its own epoch at its own capacity).
func (s *Sharded) Partition(shard int) (PartitionView, error) {
	if shard >= 0 {
		if shard >= s.n {
			return PartitionView{}, errNoShard
		}
		return partitionView(s.shards[shard].CurrentEpoch()), nil
	}
	out := PartitionView{Classes: [][]uint64{}}
	for _, d := range s.shards {
		v := partitionView(d.CurrentEpoch())
		out.Epoch += v.Epoch
		out.Sessions += v.Sessions
		out.Classes = append(out.Classes, v.Classes...)
	}
	return out, nil
}

// Health implements Service: sums over shards, with Used accumulated
// in shard index order so the composed value is reproducible bit for
// bit by an offline fold over the WAL stripes in the same order.
func (s *Sharded) Health() HealthView {
	h := HealthView{Rate: s.cfg.Rate, Shards: s.n, Draining: s.closing.Load()}
	for _, d := range s.shards {
		ep := d.CurrentEpoch()
		h.EpochSeq += ep.Seq
		h.Sessions += ep.Sessions()
		h.Used += ep.Used
		h.Reserved += d.Reserved()
		h.Prepares += d.PrepareCount()
	}
	return h
}

// Epochs returns every shard's current epoch in shard order.
func (s *Sharded) Epochs() []*Epoch {
	eps := make([]*Epoch, s.n)
	for i, d := range s.shards {
		eps[i] = d.CurrentEpoch()
	}
	return eps
}

// Rebuild forces an epoch publish on every shard writer (tests and
// benchmarks).
func (s *Sharded) Rebuild() error {
	for _, d := range s.shards {
		if err := d.Rebuild(); err != nil {
			return err
		}
	}
	return nil
}

// Close drains every shard writer concurrently: each decides what it
// already queued, publishes a final epoch, snapshots and closes its
// WAL stripe.
func (s *Sharded) Close(ctx context.Context) error {
	s.closing.Store(true)
	var wg sync.WaitGroup
	errs := make([]error, s.n)
	for i, d := range s.shards {
		wg.Add(1)
		go func(i int, d *Daemon) {
			defer wg.Done()
			errs[i] = d.Close(ctx)
		}(i, d)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// WriteMetrics implements Service: the aggregate frame (summed
// counters, composed gauges — identical names to the standalone
// daemon, so every existing consumer keeps working) followed by the
// per-shard and ledger series.
func (s *Sharded) WriteMetrics(w io.Writer) {
	var f metricsFrame
	f.addCounters(s.met)
	f.latP50, f.latP99, f.latN = s.met.LatencySummary()
	oldest := time.Time{}
	for _, d := range s.shards {
		f.addCounters(d.met)
		r50, r99, rn := d.met.RebuildSummary()
		// Quantiles do not sum; report the worst shard's rebuild
		// quantiles with the summed count.
		if r50 > f.rebP50 {
			f.rebP50 = r50
		}
		if r99 > f.rebP99 {
			f.rebP99 = r99
		}
		f.rebN += rn
		ep := d.CurrentEpoch()
		if ep == nil {
			continue
		}
		f.epochSeq += ep.Seq
		f.sessions += ep.Sessions()
		f.utilization += ep.Used
		f.targetsMet += ep.TargetsMet
		f.guaranteed += ep.Guaranteed
		f.degraded += ep.Degraded
		f.infeasible += ep.Infeasible
		f.queueDepth += d.QueueDepth()
		if ep.Seq > 0 && (oldest.IsZero() || ep.BuiltAt.Before(oldest)) {
			oldest = ep.BuiltAt
		}
	}
	f.utilization /= s.cfg.Rate
	if !oldest.IsZero() {
		f.epochAge = time.Since(oldest).Seconds()
	}
	f.render(w)

	gauge := func(name, help string, format string, v any) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s "+format+"\n", name, help, name, name, v)
	}
	gauge("gpsd_shards", "shard writer count", "%d", s.n)
	st := s.led.Stats()
	gauge("gpsd_ledger_budget", "global capacity budget (link rate)", "%g", s.led.Budget())
	gauge("gpsd_ledger_reserved", "capacity currently reserved by shards", "%g", s.led.Reserved())
	fmt.Fprintf(w, "# HELP gpsd_ledger_cas_retries_total ledger CAS loops that had to retry (contention)\n# TYPE gpsd_ledger_cas_retries_total counter\ngpsd_ledger_cas_retries_total %d\n", st.CASRetries)
	fmt.Fprintf(w, "# HELP gpsd_ledger_reserve_rejects_total ledger reservations refused for lack of budget\n# TYPE gpsd_ledger_reserve_rejects_total counter\ngpsd_ledger_reserve_rejects_total %d\n", st.Rejects)

	series := func(name, help, typ string) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	}
	series("gpsd_shard_queue_depth", "per-shard mutation-queue occupancy", "gauge")
	for i, d := range s.shards {
		fmt.Fprintf(w, "gpsd_shard_queue_depth{shard=\"%d\"} %d\n", i, d.QueueDepth())
	}
	series("gpsd_shard_sessions", "per-shard sessions in the published epoch", "gauge")
	for i, d := range s.shards {
		fmt.Fprintf(w, "gpsd_shard_sessions{shard=\"%d\"} %d\n", i, d.CurrentEpoch().Sessions())
	}
	series("gpsd_shard_capacity", "per-shard ledger-granted capacity slice", "gauge")
	for i, d := range s.shards {
		fmt.Fprintf(w, "gpsd_shard_capacity{shard=\"%d\"} %g\n", i, d.Capacity())
	}
	series("gpsd_shard_epoch_age_seconds", "per-shard published epoch age", "gauge")
	for i, d := range s.shards {
		age := 0.0
		if ep := d.CurrentEpoch(); ep != nil && ep.Seq > 0 {
			age = time.Since(ep.BuiltAt).Seconds()
		}
		fmt.Fprintf(w, "gpsd_shard_epoch_age_seconds{shard=\"%d\"} %g\n", i, age)
	}
	series("gpsd_shard_epoch_delta_rebuilds_total", "per-shard epochs published by the incremental path", "counter")
	for i, d := range s.shards {
		fmt.Fprintf(w, "gpsd_shard_epoch_delta_rebuilds_total{shard=\"%d\"} %d\n", i, d.met.DeltaRebuilds.Load())
	}
	series("gpsd_shard_epoch_full_rebuilds_total", "per-shard epochs published by the from-scratch path", "counter")
	for i, d := range s.shards {
		fmt.Fprintf(w, "gpsd_shard_epoch_full_rebuilds_total{shard=\"%d\"} %d\n", i, d.met.FullRebuilds.Load())
	}
	series("gpsd_shard_ledger_refills_total", "per-shard capacity reservations taken from the ledger", "counter")
	for i, d := range s.shards {
		fmt.Fprintf(w, "gpsd_shard_ledger_refills_total{shard=\"%d\"} %d\n", i, d.met.LedgerRefills.Load())
	}
	series("gpsd_shard_ledger_returns_total", "per-shard capacity returned to the ledger", "counter")
	for i, d := range s.shards {
		fmt.Fprintf(w, "gpsd_shard_ledger_returns_total{shard=\"%d\"} %d\n", i, d.met.LedgerReturns.Load())
	}
	fmt.Fprintf(w, "# HELP gpsd_shard_decision_latency_seconds per-shard admission/release decision latency (P2 estimator)\n# TYPE gpsd_shard_decision_latency_seconds summary\n")
	for i, d := range s.shards {
		p50, p99, n := d.met.DecisionSummary()
		fmt.Fprintf(w, "gpsd_shard_decision_latency_seconds{shard=\"%d\",quantile=\"0.5\"} %g\n", i, p50)
		fmt.Fprintf(w, "gpsd_shard_decision_latency_seconds{shard=\"%d\",quantile=\"0.99\"} %g\n", i, p99)
		fmt.Fprintf(w, "gpsd_shard_decision_latency_seconds_count{shard=\"%d\"} %d\n", i, n)
	}
}
