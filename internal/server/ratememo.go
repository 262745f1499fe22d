package server

import (
	"sync"
	"sync/atomic"

	"repro/internal/admission"
	"repro/internal/ebb"
)

// RateMemo is the bounded required-rate memo behind admission
// decisions: the load a daemon sees is dominated by a small palette of
// declared session types, so the RequiredRate bisection runs once per
// distinct (E.B.B., target) tuple. It is safe for concurrent use, and
// shareable — the sharded facade hands one memo to every shard writer
// so a type admitted through any shard warms the memo for all of them
// (and for the facade's own shard routing, which needs φ before it
// knows the shard).
type RateMemo struct {
	cache sync.Map // rateKey -> float64
	size  atomic.Int64
	max   int64
}

// NewRateMemo builds a memo bounded to max entries.
func NewRateMemo(max int) *RateMemo {
	return &RateMemo{max: int64(max)}
}

// Required returns the required rate for the tuple, computing and
// memoizing it on a miss. hit reports whether the memo already held
// the value.
func (m *RateMemo) Required(p ebb.Process, t admission.Target) (g float64, hit bool, err error) {
	k := rateKey{p.Rho, p.Lambda, p.Alpha, t.Delay, t.Eps}
	if v, ok := m.cache.Load(k); ok {
		return v.(float64), true, nil
	}
	g, err = admission.RequiredRate(p, t)
	if err != nil {
		return 0, false, err
	}
	// Reserve a slot before inserting: a plain load-check followed by
	// LoadOrStore lets N concurrent misses all pass the check and
	// overshoot the cap by up to N entries. The CAS loop hands out at
	// most max reservations ever; a reservation whose insert loses the
	// per-key race is returned to the pool.
	for {
		n := m.size.Load()
		if n >= m.max {
			break
		}
		if m.size.CompareAndSwap(n, n+1) {
			if _, loaded := m.cache.LoadOrStore(k, g); loaded {
				m.size.Add(-1)
			}
			break
		}
	}
	return g, false, nil
}
