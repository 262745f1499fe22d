package server

import (
	"errors"
	"io"
	"math"
	"time"
)

// Service is the admission surface the HTTP layer serves. cmd/gpsd
// serves the Sharded facade at every shard count; a bare Daemon — the
// shard writer type — implements it too, so one writer can be served
// and tested on its own.
type Service interface {
	Admit(AdmitRequest) (AdmitResult, error)
	Release(id uint64) (bool, error)
	// Prepare, CommitPrepared and AbortPrepared are the hop side of the
	// cluster two-phase admit (see prepare.go): a prepare reserves
	// weight under a coordinator transaction id and reports the shard
	// holding it; the coordinator echoes that shard on resolution.
	Prepare(PrepareRequest) (PrepareResult, error)
	CommitPrepared(txid string, shard int) (CommitResult, error)
	AbortPrepared(txid string, shard int) (bool, error)
	// ClusterSessions lists the live sessions admitted through the
	// two-phase protocol, each with the coordinator transaction that
	// committed it and its age — the feed for a restarted coordinator's
	// orphan sweep.
	ClusterSessions() ([]ClusterSessionInfo, error)
	// Pending reports an id admitted in the live set but not yet
	// visible in a published epoch (425 vs 404 on the bounds path).
	Pending(id uint64) bool
	// Bounds evaluates session id's tail bounds from the epoch that
	// owns it; false when the id is in no published epoch.
	Bounds(id uint64, q, dly float64) (BoundsReport, bool)
	// Partition returns one shard's feasible partition (shard >= 0) or
	// the composed view of every shard in shard order (shard < 0).
	// errNoShard when the shard index does not exist.
	Partition(shard int) (PartitionView, error)
	Health() HealthView
	// RetryAfter is the backpressure hint for shed responses;
	// EpochAgeBound bounds how stale a published epoch can be (the 425
	// Retry-After hint).
	RetryAfter() time.Duration
	EpochAgeBound() time.Duration
	// HTTPMetrics is the counter set handler observations land in.
	HTTPMetrics() *Metrics
	WriteMetrics(w io.Writer)
}

// errNoShard is returned by Partition for a shard index the service
// does not have; the HTTP layer maps it to 404.
var errNoShard = errors.New("server: no such shard")

// PartitionView is the feasible partition H_1..H_L of a published
// epoch (or the shard-ordered concatenation of every shard's classes),
// by session id.
type PartitionView struct {
	Epoch    uint64
	Sessions int
	Classes  [][]uint64
}

// HealthView is the liveness snapshot behind /healthz. For a sharded
// service, EpochSeq and Sessions sum over shards and Used is the
// shard-ordered sum of per-shard Σφ.
type HealthView struct {
	Draining bool
	// Degraded reports that a writer's latest publish attempt failed:
	// its published epoch is frozen until a publish succeeds.
	Degraded bool
	EpochSeq uint64
	Sessions int
	Used     float64
	Rate     float64
	Shards   int
	// Reserved is the weight held by pending cluster prepares (shard-
	// ordered sum for a sharded service — reproducible bit for bit by an
	// offline fold, like Used); Prepares counts them.
	Reserved float64
	Prepares int
}

// Bounds implements Service over the current epoch, pinned for the
// read.
func (d *Daemon) Bounds(id uint64, q, dly float64) (BoundsReport, bool) {
	ep := d.pinEpoch()
	defer ep.unpin()
	return ep.BoundsFor(id, q, dly)
}

// EpochAgeBound implements Service.
func (d *Daemon) EpochAgeBound() time.Duration { return d.cfg.MaxEpochAge }

// HTTPMetrics implements Service.
func (d *Daemon) HTTPMetrics() *Metrics { return d.met }

// Capacity returns the writer's current admission ceiling — cfg.Rate
// for a standalone daemon, the ledger-granted slice for a shard.
func (d *Daemon) Capacity() float64 { return math.Float64frombits(d.capBits.Load()) }

// partitionView assembles the classes-by-id view of the current epoch,
// pinned for the copy.
func (d *Daemon) partitionView() PartitionView {
	ep := d.pinEpoch()
	defer ep.unpin()
	out := PartitionView{Epoch: ep.Seq, Sessions: ep.Sessions(), Classes: [][]uint64{}}
	if ep.Analysis != nil {
		for _, class := range ep.Analysis.Partition.Classes {
			ids := make([]uint64, len(class))
			for k, i := range class {
				ids[k] = ep.IDs[i]
			}
			out.Classes = append(out.Classes, ids)
		}
	}
	return out
}

// Partition implements Service. A standalone daemon is its own shard
// 0; any higher index is errNoShard.
func (d *Daemon) Partition(shard int) (PartitionView, error) {
	if shard > 0 {
		return PartitionView{}, errNoShard
	}
	return d.partitionView(), nil
}

// Health implements Service.
func (d *Daemon) Health() HealthView {
	d.mu.RLock()
	draining := d.closing
	d.mu.RUnlock()
	ep := d.epoch.Load() // scalar fields only: no pin
	return HealthView{
		Draining: draining,
		Degraded: d.degraded.Load(),
		EpochSeq: ep.Seq,
		Sessions: ep.Sessions(),
		Used:     ep.Used,
		Rate:     d.cfg.Rate,
		Shards:   1,
		Reserved: d.Reserved(),
		Prepares: d.PrepareCount(),
	}
}
