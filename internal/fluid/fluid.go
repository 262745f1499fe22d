// Package fluid implements an exact single-node fluid GPS simulator in
// slotted time: fluid arrives at slot boundaries and the server drains the
// backlogged sessions continuously within each unit slot, reallocating
// capacity event-by-event as sessions empty (water-filling). This is the
// Generalized Processor Sharing discipline of the paper's §2 — eq. (1)
// holds exactly on every interval.
//
// The engine is event-driven in *virtual time*: the GPS virtual clock v
// advances at dv/dt = R/Σ_active φ, every backlogged session i drains
// exactly φ_i·dv, and a session's depletion instant is the fixed virtual
// time V_i = v_settle + Q_i/φ_i known the moment its last arrival lands.
// A min-heap of projected depletion times plus a running Σ_active φ
// replace the naive per-segment full scans, so a slot costs
// O(events·log A) instead of O(N·segments). Per-session state (backlog,
// cumulative service) is settled lazily — only at arrivals, depletions
// and reads — which keeps Step allocation-free and O(active work).
//
// Alongside the real system the simulator tracks the paper's §3
// *decomposed system*: fictitious dedicated-rate queues whose backlogs
// δ_i(t) upper-bound combinations of the real backlogs (Lemmas 1 and 3).
// The test suite uses this to machine-check the paper's sample-path
// relations on simulated traffic. A brute-force water-filling engine is
// retained as Reference (reference_test.go) and differentially tested against
// this one.
package fluid

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/ring"
	"repro/internal/vtime"
)

// zeroTol absorbs floating-point dust when matching independently
// accumulated arrival watermarks against cumulative service.
const zeroTol = 1e-12

// DelayFunc receives one completed arrival batch: the session, the slot
// the batch arrived in, and the exact delay (in slots, fractional) until
// its last bit departed.
type DelayFunc func(session int, arrivalSlot int, delay float64)

// BusyPeriodFunc receives one completed session busy period (paper §2: a
// maximal interval during which the session stays backlogged): the
// session, the period's start time and its exact end time (both in slots,
// fractional).
type BusyPeriodFunc func(session int, start, end float64)

// Config describes a single-server simulation.
type Config struct {
	// Rate is the GPS server rate per slot.
	Rate float64
	// RateFunc, if non-nil, overrides Rate slot by slot (fault injection:
	// capacity degradation, outages). A returned value <= 0 stalls the
	// server for that slot — arrivals still land, nothing drains. Values
	// must be finite; NaN or +Inf aborts the Step with an error.
	RateFunc func(slot int) float64
	// Phi are the GPS weights.
	Phi []float64
	// DecompRates, if non-nil, enables the decomposed system: session i's
	// fictitious queue drains at DecompRates[i] per slot.
	DecompRates []float64
	// OnDelay, if non-nil, is invoked for every completed arrival batch.
	OnDelay DelayFunc
	// OnBusyPeriod, if non-nil, is invoked whenever a session's busy
	// period ends (its backlog empties).
	OnBusyPeriod BusyPeriodFunc
}

type arrivalBatch struct {
	level float64 // cumulative-arrival watermark of the batch's last bit
	slot  int
}

// depEvent is one projected depletion: session i empties when the
// virtual clock reaches v (unless a later arrival supersedes it).
type depEvent struct {
	v float64
	i int
}

// Sim is the event-driven simulator state. Create with New, advance with
// Step.
type Sim struct {
	cfg  Config
	slot int

	// Virtual-clock engine state. The engine invariants (see DESIGN.md,
	// "Performance architecture"):
	//   (1) activePhi == Σ_{i: active[i]} Phi[i], nActive == |active|.
	//   (2) The heap holds exactly one entry per active session, pushed
	//       at activation and popped at depletion. While a session stays
	//       active its projected depletion time only grows (arrivals add
	//       backlog), so an entry with v != depleteV[i] is merely
	//       superseded — it is refreshed in place (re-keyed and sifted)
	//       when it surfaces, and arrivals to active sessions do no heap
	//       work at all.
	//   (3) Backlog(i) == settledB[i] - φ_i·(v - settledV[i]) while
	//       active (clamped to [0, settledB[i]] against rounding), and
	//       CumService(i) == settledS[i] + the same served volume, so
	//       cumA == CumService + Backlog holds to the last ulp.
	//   (4) When nActive hits zero the clock and heap reset, bounding
	//       float drift by the longest system busy period.
	v         float64
	activePhi float64
	nActive   int

	active   []bool
	invPhi   []float64 // 1/φ_i, precomputed: divisions off the hot path
	settledB []float64 // backlog at the session's last settle point
	settledV []float64 // virtual time of the last settle point
	settledS []float64 // cumulative service at the last settle point
	depleteV []float64 // current projected depletion virtual time
	heap     []depEvent

	// newlyActive defers heap insertion for sessions activated since the
	// last event-driven drain: if the whole system drains within the slot
	// (the common case under admission-controlled load) their entries
	// would be popped unused, so activation costs O(1) and the push
	// happens only when a slot actually needs the event loop.
	newlyActive []int
	// totalB tracks Σ_i Backlog(i) at slot boundaries (exact at every
	// empty-system reset, so rounding drift is bounded by one system busy
	// period). totalB <= R proves the slot drains everything.
	totalB float64
	// eventless is true when no per-event callbacks are registered, so a
	// fully-draining slot may settle sessions in arbitrary order.
	eventless bool

	cumA  []float64 // A_i(0, t)
	delta []float64 // δ_i(t) of the decomposed system

	pending []ring.Ring[arrivalBatch]
	pieces  vtime.Pieces // per-slot virtual→wall map (OnDelay only)
	// busyStart[i] is the start time of session i's current busy period,
	// or NaN when idle. Only maintained when OnBusyPeriod is set.
	busyStart []float64
}

// validateConfig checks the parts of Config shared by the event-driven
// engine and the brute-force Reference.
func validateConfig(cfg Config) error {
	if !(cfg.Rate > 0) || math.IsInf(cfg.Rate, 1) || math.IsNaN(cfg.Rate) {
		return fmt.Errorf("fluid: rate = %v, want positive finite", cfg.Rate)
	}
	n := len(cfg.Phi)
	if n == 0 {
		return errors.New("fluid: no sessions")
	}
	for i, p := range cfg.Phi {
		// An infinite weight turns the share φ_i/Σφ into Inf/Inf = NaN,
		// so positive alone is not enough.
		if !(p > 0) || math.IsInf(p, 1) {
			return fmt.Errorf("fluid: phi[%d] = %v, want positive finite", i, p)
		}
	}
	if cfg.DecompRates != nil && len(cfg.DecompRates) != n {
		return fmt.Errorf("fluid: %d decomposed rates for %d sessions", len(cfg.DecompRates), n)
	}
	return nil
}

// New validates the configuration and builds a simulator.
func New(cfg Config) (*Sim, error) {
	if err := validateConfig(cfg); err != nil {
		return nil, err
	}
	n := len(cfg.Phi)
	s := &Sim{
		cfg:      cfg,
		active:   make([]bool, n),
		invPhi:   make([]float64, n),
		settledB: make([]float64, n),
		settledV: make([]float64, n),
		settledS: make([]float64, n),
		depleteV: make([]float64, n),
		cumA:     make([]float64, n),
		delta:    make([]float64, n),
	}
	for i, p := range cfg.Phi {
		s.invPhi[i] = 1 / p
	}
	s.newlyActive = make([]int, 0, n)
	s.eventless = cfg.OnDelay == nil && cfg.OnBusyPeriod == nil
	if cfg.OnDelay != nil {
		s.pending = make([]ring.Ring[arrivalBatch], n)
	}
	if cfg.OnBusyPeriod != nil {
		s.busyStart = make([]float64, n)
		for i := range s.busyStart {
			s.busyStart[i] = math.NaN()
		}
	}
	return s, nil
}

// N returns the number of sessions.
func (s *Sim) N() int { return len(s.cfg.Phi) }

// Slot returns the number of completed slots.
func (s *Sim) Slot() int { return s.slot }

// servedSinceSettle returns the volume session i drained since its last
// settle point, clamped into [0, settledB[i]] so the lazy backlog and
// cumulative service stay consistent to the last ulp.
func (s *Sim) servedSinceSettle(i int) float64 {
	if !s.active[i] {
		return 0
	}
	served := s.cfg.Phi[i] * (s.v - s.settledV[i])
	if served < 0 {
		served = 0
	} else if served > s.settledB[i] {
		served = s.settledB[i]
	}
	return served
}

// settle folds the lazily tracked drain since the last settle point into
// session i's stored backlog and cumulative service.
func (s *Sim) settle(i int) {
	served := s.servedSinceSettle(i)
	s.settledB[i] -= served
	s.settledS[i] += served
	s.settledV[i] = s.v
}

// Backlogs returns the current real backlogs Q_i(t) (aliasing the
// internal slice is avoided: the caller gets a copy).
func (s *Sim) Backlogs() []float64 {
	out := make([]float64, s.N())
	for i := range out {
		out[i] = s.Backlog(i)
	}
	return out
}

// Backlog returns Q_i(t) for one session without allocating.
func (s *Sim) Backlog(i int) float64 { return s.settledB[i] - s.servedSinceSettle(i) }

// Deltas returns the decomposed-system backlogs δ_i(t); zeros when the
// decomposed system is disabled.
func (s *Sim) Deltas() []float64 { return append([]float64(nil), s.delta...) }

// Delta returns δ_i(t) for one session.
func (s *Sim) Delta(i int) float64 { return s.delta[i] }

// CumArrival returns A_i(0, t).
func (s *Sim) CumArrival(i int) float64 { return s.cumA[i] }

// CumService returns S_i(0, t).
func (s *Sim) CumService(i int) float64 { return s.settledS[i] + s.servedSinceSettle(i) }

// Step advances one slot: arrivals land at the slot boundary, then the
// GPS server drains fluid over the unit interval. It returns the total
// volume served this slot.
func (s *Sim) Step(arrivals []float64) (float64, error) {
	n := s.N()
	if len(arrivals) != n {
		return 0, fmt.Errorf("fluid: %d arrivals for %d sessions", len(arrivals), n)
	}
	for i, a := range arrivals {
		// !(a >= 0) rejects negatives and NaN in one compare; the upper
		// test rejects +Inf.
		if !(a >= 0) || a > math.MaxFloat64 {
			return 0, fmt.Errorf("fluid: arrival[%d] = %v", i, a)
		}
		if a > 0 {
			s.admit(i, a)
		}
	}

	rate := s.cfg.Rate
	if s.cfg.RateFunc != nil {
		rate = s.cfg.RateFunc(s.slot)
		if math.IsNaN(rate) || math.IsInf(rate, 0) {
			return 0, fmt.Errorf("fluid: rate at slot %d = %v, want finite", s.slot, rate)
		}
	}
	served := s.drainSlot(rate)

	// Decomposed system: Lindley recursion per fictitious queue.
	if s.cfg.DecompRates != nil {
		for i := range s.delta {
			d := s.delta[i] + arrivals[i] - s.cfg.DecompRates[i]
			if d < 0 {
				d = 0
			}
			s.delta[i] = d
		}
	}
	s.slot++
	return served, nil
}

// admit lands a positive arrival for session i at the current slot
// boundary and (re)projects the session's depletion virtual time.
func (s *Sim) admit(i int, a float64) {
	if !s.active[i] {
		if s.busyStart != nil {
			s.busyStart[i] = float64(s.slot)
		}
		s.active[i] = true
		s.nActive++
		s.activePhi += s.cfg.Phi[i]
		s.settledV[i] = s.v
		s.settledB[i] = a
		s.depleteV[i] = s.v + a*s.invPhi[i]
		s.newlyActive = append(s.newlyActive, i)
	} else {
		// Already active: the session keeps its single heap entry. The
		// new, strictly later projection is picked up lazily when the
		// old one surfaces (invariant (2)).
		s.settle(i)
		s.settledB[i] += a
		s.depleteV[i] = s.v + s.settledB[i]*s.invPhi[i]
	}
	s.totalB += a
	s.cumA[i] += a
	if s.cfg.OnDelay != nil {
		s.pending[i].Push(arrivalBatch{level: s.cumA[i], slot: s.slot})
	}
}

// drainSlot serves one unit of time with exact GPS reallocation at the
// slot's effective rate R. Within the slot, every backlogged session i
// drains at rate φ_i/Σ_active φ · R; when a session empties, capacity
// instantly reallocates to the rest. A non-positive rate (outage) serves
// nothing. The server is busy from the slot start (arrivals land at the
// boundary) until either the slot ends or the system empties, so the
// returned work is exactly R times the busy span.
func (s *Sim) drainSlot(R float64) float64 {
	if !(R > 0) || s.nActive == 0 {
		return 0
	}
	if s.eventless && s.totalB <= R {
		return s.drainAll()
	}
	// Event-driven path: first queue the activations deferred by admit.
	for _, i := range s.newlyActive {
		s.heapPush(depEvent{v: s.depleteV[i], i: i})
	}
	s.newlyActive = s.newlyActive[:0]
	trackDelay := s.cfg.OnDelay != nil
	if trackDelay {
		s.pieces.Reset()
	}
	T := 1.0 // wall time left in the slot
	for s.nActive > 0 {
		top, ok := s.peekEvent()
		if !ok {
			// Unreachable if invariant (2) holds; bail rather than spin.
			break
		}
		if trackDelay {
			s.pieces.Append(s.v, float64(s.slot)+(1-T), s.activePhi/R)
		}
		dt := (top.v - s.v) * s.activePhi / R
		if dt < 0 {
			dt = 0
		}
		if dt >= T {
			// Slot ends before the next depletion.
			s.v += T * R / s.activePhi
			T = 0
			break
		}
		s.heapPop()
		T -= dt
		s.v = top.v
		s.depleteSession(top.i, 1-T)
	}
	busy := 1 - T
	if trackDelay && busy > 0 {
		// Batches of still-active sessions may have completed mid-slot.
		for i := range s.active {
			if s.active[i] && s.pending[i].Len() > 0 {
				s.resolveBatches(i, s.settledS[i]+s.servedSinceSettle(i))
			}
		}
	}
	served := R * busy
	if s.nActive == 0 {
		s.totalB = 0
	} else {
		s.totalB -= served
		if s.totalB < 0 {
			s.totalB = 0
		}
	}
	return served
}

// drainAll settles every active session to empty without touching the
// event machinery: when Σ backlogs fits in the slot's capacity the whole
// system drains, the end-of-slot state is independent of the intra-slot
// depletion order, and no callbacks are registered to observe the exact
// event times. Active sessions are enumerated from the heap and the
// deferred-activation list (together they hold exactly the active set),
// which keeps the fast path O(active) rather than O(N).
func (s *Sim) drainAll() float64 {
	served := 0.0
	for _, e := range s.heap {
		served += s.finishSession(e.i)
	}
	// Sessions on the deferred-activation list were activated this very
	// slot (both drain paths clear the list), so they carry no unsettled
	// drain from earlier slots: their full settled backlog drains now.
	for _, i := range s.newlyActive {
		b := s.settledB[i]
		s.settledS[i] += b
		s.settledB[i] = 0
		s.active[i] = false
		served += b
	}
	s.heap = s.heap[:0]
	s.newlyActive = s.newlyActive[:0]
	s.nActive = 0
	s.activePhi = 0
	s.v = 0
	s.totalB = 0
	return served
}

// finishSession empties one session in the fast path, returning the
// volume drained *this slot* (drain from earlier slots that was still
// unsettled is folded into cumS but was already accounted in those
// slots' served totals).
func (s *Sim) finishSession(i int) float64 {
	prior := s.servedSinceSettle(i)
	b := s.settledB[i] - prior
	s.settledS[i] += s.settledB[i]
	s.settledB[i] = 0
	s.active[i] = false
	return b
}

// peekEvent returns the next depletion event. A surfaced entry whose key
// lags the session's current projection (arrivals landed since it was
// pushed) is re-keyed in place and sifted down; each refresh strictly
// advances one entry to validity, so the loop terminates within nActive
// iterations.
func (s *Sim) peekEvent() (depEvent, bool) {
	for len(s.heap) > 0 {
		top := s.heap[0]
		if dv := s.depleteV[top.i]; top.v != dv {
			s.heap[0].v = dv
			s.siftDown(0)
			continue
		}
		return top, true
	}
	return depEvent{}, false
}

// depleteSession empties session i at the current virtual time, firing
// callbacks and maintaining the active set. elapsed is the wall time
// into the current slot at which the depletion occurs.
func (s *Sim) depleteSession(i int, elapsed float64) {
	end := float64(s.slot) + elapsed
	if s.busyStart != nil && !math.IsNaN(s.busyStart[i]) {
		s.cfg.OnBusyPeriod(i, s.busyStart[i], end)
		s.busyStart[i] = math.NaN()
	}
	if s.cfg.OnDelay != nil && s.pending[i].Len() > 0 {
		s.resolveBatches(i, s.settledS[i]+s.settledB[i])
		// Watermark rounding can leave a straggler a hair above the
		// final service level; it completes at the depletion instant.
		for s.pending[i].Len() > 0 {
			b := s.pending[i].Pop()
			s.cfg.OnDelay(i, b.slot, end-float64(b.slot))
		}
	}
	s.settledS[i] += s.settledB[i]
	s.settledB[i] = 0
	s.settledV[i] = s.v
	s.active[i] = false
	s.nActive--
	s.activePhi -= s.cfg.Phi[i]
	if s.nActive == 0 {
		// Empty system: rebase the virtual clock and drop the (now all
		// stale) heap so float drift cannot accumulate across busy
		// periods.
		s.activePhi = 0
		s.v = 0
		s.heap = s.heap[:0]
	}
}

// resolveBatches pops every pending batch of session i whose watermark
// is covered by the given cumulative-service level, reporting exact
// completion times via the slot's virtual→wall map.
func (s *Sim) resolveBatches(i int, level float64) {
	q := &s.pending[i]
	// The watermark and cumS are independently accumulated sums, so allow
	// relative rounding drift when matching them.
	tol := zeroTol * (1 + level)
	phi := s.cfg.Phi[i]
	lo, hi := float64(s.slot), float64(s.slot)+1
	for q.Len() > 0 {
		front := q.Front()
		if front.level > level+tol {
			break
		}
		b := q.Pop()
		// The batch's last bit departed at virtual time u: since the last
		// settle point the session drained φ_i per unit of virtual time.
		u := s.settledV[i] + (b.level-s.settledS[i])/phi
		wall := s.pieces.WallAt(u)
		if wall < lo {
			wall = lo
		} else if wall > hi {
			wall = hi
		}
		s.cfg.OnDelay(i, b.slot, wall-float64(b.slot))
	}
}

// heapPush inserts a depletion event (hand-rolled binary heap: the
// container/heap interface would box every entry and allocate on the hot
// path).
func (s *Sim) heapPush(e depEvent) {
	h := append(s.heap, e)
	j := len(h) - 1
	for j > 0 {
		p := (j - 1) / 2
		if h[p].v <= h[j].v {
			break
		}
		h[p], h[j] = h[j], h[p]
		j = p
	}
	s.heap = h
}

// heapPop removes the minimum event.
func (s *Sim) heapPop() {
	h := s.heap
	n := len(h) - 1
	h[0] = h[n]
	s.heap = h[:n]
	s.siftDown(0)
}

// siftDown restores heap order below index j.
func (s *Sim) siftDown(j int) {
	h := s.heap
	n := len(h)
	for {
		l := 2*j + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && h[r].v < h[l].v {
			m = r
		}
		if h[j].v <= h[m].v {
			break
		}
		h[j], h[m] = h[m], h[j]
		j = m
	}
}

// Run pulls `slots` slots of arrivals from the per-session generators and
// steps the simulator through them. gen(i) is called once per session per
// slot.
func (s *Sim) Run(slots int, gen func(session int) float64) error {
	arr := make([]float64, s.N())
	for t := 0; t < slots; t++ {
		for i := range arr {
			arr[i] = gen(i)
		}
		if _, err := s.Step(arr); err != nil {
			return err
		}
	}
	return nil
}

// RunBatch is Run with block-batched arrival generation: gen(i, dst)
// fills session i's next len(dst) slots (e.g. source.OnOff.NextBlock).
// Sources consume their streams in slot order exactly as under Run, so
// the trajectory is bit-identical; only per-slot call overhead is
// amortized.
func (s *Sim) RunBatch(slots, blockSlots int, gen func(session int, dst []float64)) error {
	n := s.N()
	if blockSlots < 1 {
		blockSlots = 1
	}
	if blockSlots > slots {
		blockSlots = slots
	}
	buf := make([]float64, n*blockSlots)
	arr := make([]float64, n)
	for done := 0; done < slots; {
		b := blockSlots
		if slots-done < b {
			b = slots - done
		}
		for i := 0; i < n; i++ {
			gen(i, buf[i*blockSlots:i*blockSlots+b])
		}
		for t := 0; t < b; t++ {
			for i := 0; i < n; i++ {
				arr[i] = buf[i*blockSlots+t]
			}
			if _, err := s.Step(arr); err != nil {
				return err
			}
		}
		done += b
	}
	return nil
}
