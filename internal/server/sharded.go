package server

import (
	"context"
	"errors"
	"fmt"
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
		rates:  NewRateMemo(rateCacheMax),
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
		return s.shards[shard].partitionView(), nil
	}
	out := PartitionView{Classes: [][]uint64{}}
	for _, d := range s.shards {
		v := d.partitionView()
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
		ep := d.epoch.Load() // scalar fields only: no pin
		h.EpochSeq += ep.Seq
		h.Sessions += ep.Sessions()
		h.Used += ep.Used
		h.Reserved += d.Reserved()
		h.Prepares += d.PrepareCount()
		h.Degraded = h.Degraded || d.degraded.Load()
	}
	return h
}

// Rebuild forces an epoch publish on every shard writer (tests and
// benchmarks) and joins their errors: a refused analysis is wrapped in
// ErrPublish and names its shard.
func (s *Sharded) Rebuild() error {
	errs := make([]error, len(s.shards))
	for i, d := range s.shards {
		errs[i] = d.Rebuild()
	}
	return errors.Join(errs...)
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
