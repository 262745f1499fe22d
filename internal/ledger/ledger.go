// Package ledger is the cross-shard admission-capacity ledger for the
// sharded gpsd writer. The global Σφ budget (the GPS link rate) is
// split into per-shard capacity slices; each shard admits O(1) against
// its own slice and only touches the ledger when the slice runs out,
// reserving a batched refill quantum with one CAS instead of taking a
// cross-shard lock per decision. Per-shard analysis at the shard's
// capacity is sound by hierarchical GPS composition: the shard slices
// always sum to at most the link rate, so each shard is a GPS server
// of its capacity nested inside the real link.
//
// The ledger is deliberately not write-ahead logged: the per-shard
// capacities are re-derived deterministically at recovery time by
// BootCapacities from the recovered per-shard Σφ, so a crash can never
// leak or double-count budget.
package ledger

import (
	"fmt"
	"math"
	"sync/atomic"
)

// Ledger tracks how much of the global budget the shards have
// reserved. All methods are safe for concurrent use; the reserved sum
// lives in one atomic word (Float64bits) so Reserve/Return are
// lock-free CAS loops.
type Ledger struct {
	budget   float64
	reserved atomic.Uint64 // Float64bits of the reserved sum

	casRetries atomic.Int64
	refills    atomic.Int64
	returns    atomic.Int64
	rejects    atomic.Int64
}

// New builds a ledger over a positive finite budget.
func New(budget float64) (*Ledger, error) {
	if !(budget > 0) || math.IsInf(budget, 1) || math.IsNaN(budget) {
		return nil, fmt.Errorf("ledger: budget = %v, want positive finite", budget)
	}
	return &Ledger{budget: budget}, nil
}

// Budget returns the fixed global budget.
func (l *Ledger) Budget() float64 { return l.budget }

// Reserved returns the currently reserved sum.
func (l *Ledger) Reserved() float64 {
	return math.Float64frombits(l.reserved.Load())
}

// Free returns the unreserved headroom.
func (l *Ledger) Free() float64 { return l.budget - l.Reserved() }

// Reserve grants a shard at least need of additional capacity, rounded
// up to a whole number of quantums when headroom allows (the batching
// that keeps shards off the ledger for runs of admits). It returns the
// granted amount, or 0 when the remaining budget cannot cover need —
// the shard then rejects the admission, exactly as the single-writer
// daemon would at a full link.
func (l *Ledger) Reserve(need, quantum float64) float64 {
	if !(need > 0) {
		return 0
	}
	want := need
	if quantum > 0 {
		want = math.Ceil(need/quantum) * quantum
	}
	for {
		cur := l.reserved.Load()
		rem := l.budget - math.Float64frombits(cur)
		if rem < need {
			l.rejects.Add(1)
			return 0
		}
		grant := want
		if grant > rem {
			grant = rem
		}
		next := math.Float64frombits(cur) + grant
		if next > l.budget {
			// cur + (budget - cur) can round one ulp past budget; the
			// reserved sum must never exceed it.
			next = l.budget
		}
		if l.reserved.CompareAndSwap(cur, math.Float64bits(next)) {
			l.refills.Add(1)
			return grant
		}
		l.casRetries.Add(1)
	}
}

// Return gives capacity back to the budget. Shards call it with the
// hysteresis slack they no longer need; amounts <= 0 are no-ops.
func (l *Ledger) Return(amount float64) {
	if !(amount > 0) {
		return
	}
	for {
		cur := l.reserved.Load()
		next := math.Float64frombits(cur) - amount
		if next < 0 {
			next = 0
		}
		if l.reserved.CompareAndSwap(cur, math.Float64bits(next)) {
			l.returns.Add(1)
			return
		}
		l.casRetries.Add(1)
	}
}

// Grant reserves exactly amount without quantum rounding or headroom
// checks — the boot path, where BootCapacities has already proven the
// grants fit the budget. Not for the admission hot path.
func (l *Ledger) Grant(amount float64) {
	if !(amount > 0) {
		return
	}
	for {
		cur := l.reserved.Load()
		next := math.Float64frombits(cur) + amount
		if l.reserved.CompareAndSwap(cur, math.Float64bits(next)) {
			return
		}
		l.casRetries.Add(1)
	}
}

// Stats is a point-in-time snapshot of the ledger's contention and
// traffic counters.
type Stats struct {
	CASRetries int64 // CAS loops that had to retry (contention)
	Refills    int64 // successful Reserve grants
	Returns    int64 // capacity returns
	Rejects    int64 // Reserves refused for lack of budget
}

// Stats returns the counter snapshot.
func (l *Ledger) Stats() Stats {
	return Stats{
		CASRetries: l.casRetries.Load(),
		Refills:    l.refills.Load(),
		Returns:    l.returns.Load(),
		Rejects:    l.rejects.Load(),
	}
}

// DefaultQuantum is the refill batch size used when the operator does
// not override it: 1/16th of a shard's even budget share, small enough
// that an idle shard strands little capacity, large enough that a
// refill covers a long run of admits.
func DefaultQuantum(budget float64, shards int) float64 {
	if shards < 1 {
		shards = 1
	}
	return budget / (float64(shards) * 16)
}

// BootCapacities derives the per-shard capacity slices at boot from
// the recovered per-shard Σφ. The derivation is deterministic — a pure
// function of (used, budget, quantum) — which is what lets recovery
// skip persisting the ledger: the offline verifier (walcheck) re-runs
// the same function over the same recovered sums and lands on the same
// capacities bit for bit.
//
// A lone shard is granted the whole budget: it is the paper's single
// GPS server at the link rate, with no other shard to leave slack for.
// Otherwise two passes: every shard is first granted exactly what its
// recovered sessions use (never strand an admitted session), then the
// remaining slack tops each shard up by at most one quantum of
// headroom, in shard index order, so fresh boots start with working
// capacity and the grants can never sum past the budget.
func BootCapacities(used []float64, budget, quantum float64) ([]float64, error) {
	if !(budget > 0) || math.IsInf(budget, 1) || math.IsNaN(budget) {
		return nil, fmt.Errorf("ledger: budget = %v, want positive finite", budget)
	}
	caps := make([]float64, len(used))
	sum := 0.0
	for i, u := range used {
		if u < 0 || math.IsNaN(u) || math.IsInf(u, 0) {
			return nil, fmt.Errorf("ledger: shard %d recovered load = %v, want nonnegative finite", i, u)
		}
		caps[i] = u
		sum += u
	}
	if sum > budget {
		return nil, fmt.Errorf("ledger: recovered load %v exceeds budget %v", sum, budget)
	}
	if len(caps) == 1 {
		caps[0] = budget
		return caps, nil
	}
	slack := budget - sum
	for i := range caps {
		t := quantum
		if !(t > 0) {
			t = DefaultQuantum(budget, len(used))
		}
		if t > slack {
			t = slack
		}
		caps[i] += t
		slack -= t
	}
	return caps, nil
}
