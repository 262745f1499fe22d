// Package faults is a deterministic, seeded fault injector for the GPS
// simulators. It generates (or accepts) a schedule of fault events —
// node rate degradation and flapping, transient node outages, session
// join/leave churn, and delayed forwarding — and exposes the schedule
// through small hook functions that internal/fluid, internal/netsim and
// internal/pktnet consult while simulating, so any scenario can be rerun
// under faults without changing the simulators themselves.
//
// The paper's feasibility results (eq. 4/5, eqs. 37–39) assume fixed node
// rates and a static session set; this package supplies the controlled
// perturbations under which internal/gpsmath and internal/admission can
// demonstrate graceful degradation instead of silent bound violations.
// Everything is a pure function of the Config, so a seed reproduces the
// identical fault trace, decision sequence and counters.
package faults

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/source"
)

// Class enumerates the injectable fault classes.
type Class int

const (
	// RateDegrade scales a node's service rate by Severity ∈ (0, 1) for
	// Duration slots (capacity loss, brown-out, flapping link).
	RateDegrade Class = iota
	// Outage stops a node entirely for Duration slots (Severity = 0).
	Outage
	// SessionLeave removes a session for Duration slots: its fresh
	// traffic is suppressed at the ingress (churn; the rejoin is the
	// interval's end).
	SessionLeave
	// ForwardDelay holds a session's fluid Extra additional slots on
	// every link it traverses during the interval (slow interconnect,
	// rerouting transient).
	ForwardDelay
)

var classNames = map[Class]string{
	RateDegrade:  "rate-degrade",
	Outage:       "outage",
	SessionLeave: "session-leave",
	ForwardDelay: "forward-delay",
}

// String implements fmt.Stringer.
func (c Class) String() string {
	if s, ok := classNames[c]; ok {
		return s
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// Event is one scheduled fault over the half-open slot interval
// [Start, Start+Duration).
type Event struct {
	Class    Class
	Node     int     // target node (RateDegrade, Outage)
	Session  int     // target session (SessionLeave, ForwardDelay)
	Start    int     // first affected slot
	Duration int     // length in slots
	Severity float64 // RateDegrade: rate multiplier in (0, 1)
	Extra    int     // ForwardDelay: additional hold slots per link
}

// Active reports whether the event covers the given slot.
func (e Event) Active(slot int) bool {
	return slot >= e.Start && slot < e.Start+e.Duration
}

// String renders the event compactly, e.g.
// "rate-degrade node=2 [100,160) x0.40".
func (e Event) String() string {
	span := fmt.Sprintf("[%d,%d)", e.Start, e.Start+e.Duration)
	switch e.Class {
	case RateDegrade:
		return fmt.Sprintf("%s node=%d %s x%.2f", e.Class, e.Node, span, e.Severity)
	case Outage:
		return fmt.Sprintf("%s node=%d %s", e.Class, e.Node, span)
	case SessionLeave:
		return fmt.Sprintf("%s session=%d %s", e.Class, e.Session, span)
	case ForwardDelay:
		return fmt.Sprintf("%s session=%d %s +%d", e.Class, e.Session, span, e.Extra)
	default:
		return fmt.Sprintf("%s %s", e.Class, span)
	}
}

// ClassParams sizes the random generation of one fault class.
type ClassParams struct {
	// Count is how many events of the class to draw over the horizon.
	Count int
	// MaxDuration bounds each event's length in slots (minimum 1).
	MaxDuration int
	// MinSeverity / MaxSeverity bound RateDegrade multipliers; ignored by
	// the other classes. Zero values default to [0.3, 0.9].
	MinSeverity, MaxSeverity float64
	// MaxExtra bounds the ForwardDelay hold in slots (default 3).
	MaxExtra int
}

// Config parameterizes seeded schedule generation.
type Config struct {
	Seed     uint64
	Horizon  int // slots covered by generated events
	Nodes    int // node count targeted by node faults
	Sessions int // session count targeted by session faults

	Degrade ClassParams
	Outage  ClassParams
	Churn   ClassParams
	Delay   ClassParams
}

// Injector holds a validated fault schedule and answers the per-slot
// queries the simulators make. The zero value is unusable; build with
// New or FromEvents.
type Injector struct {
	nodes    int
	sessions int
	events   []Event
}

// ErrInvalidSchedule is returned (wrapped) when a schedule or its
// configuration is malformed.
var ErrInvalidSchedule = errors.New("faults: invalid schedule")

// New deterministically generates a schedule from the config: the same
// Config (including Seed) always yields the identical event list.
func New(cfg Config) (*Injector, error) {
	if cfg.Horizon <= 0 {
		return nil, fmt.Errorf("%w: horizon = %d, want positive", ErrInvalidSchedule, cfg.Horizon)
	}
	if cfg.Nodes < 0 || cfg.Sessions < 0 {
		return nil, fmt.Errorf("%w: %d nodes, %d sessions", ErrInvalidSchedule, cfg.Nodes, cfg.Sessions)
	}
	rng := source.NewRNG(cfg.Seed)
	var evs []Event
	draw := func(class Class, p ClassParams, targets int) error {
		if p.Count == 0 {
			return nil
		}
		if p.Count < 0 {
			return fmt.Errorf("%w: %s count = %d", ErrInvalidSchedule, class, p.Count)
		}
		if targets <= 0 {
			return fmt.Errorf("%w: %s events need targets", ErrInvalidSchedule, class)
		}
		maxDur := p.MaxDuration
		if maxDur <= 0 {
			maxDur = cfg.Horizon / 10
		}
		if maxDur < 1 {
			maxDur = 1
		}
		lo, hi := p.MinSeverity, p.MaxSeverity
		if !(lo > 0) {
			lo = 0.3
		}
		if !(hi > 0) {
			hi = 0.9
		}
		if !(lo < 1 && hi <= 1 && lo <= hi) {
			return fmt.Errorf("%w: %s severity range [%v, %v]", ErrInvalidSchedule, class, lo, hi)
		}
		maxExtra := p.MaxExtra
		if maxExtra <= 0 {
			maxExtra = 3
		}
		for k := 0; k < p.Count; k++ {
			e := Event{
				Class:    class,
				Start:    rng.Intn(cfg.Horizon),
				Duration: 1 + rng.Intn(maxDur),
			}
			switch class {
			case RateDegrade:
				e.Node = rng.Intn(targets)
				e.Severity = lo + (hi-lo)*rng.Float64()
			case Outage:
				e.Node = rng.Intn(targets)
			case SessionLeave:
				e.Session = rng.Intn(targets)
			case ForwardDelay:
				e.Session = rng.Intn(targets)
				e.Extra = 1 + rng.Intn(maxExtra)
			}
			evs = append(evs, e)
		}
		return nil
	}
	if err := draw(RateDegrade, cfg.Degrade, cfg.Nodes); err != nil {
		return nil, err
	}
	if err := draw(Outage, cfg.Outage, cfg.Nodes); err != nil {
		return nil, err
	}
	if err := draw(SessionLeave, cfg.Churn, cfg.Sessions); err != nil {
		return nil, err
	}
	if err := draw(ForwardDelay, cfg.Delay, cfg.Sessions); err != nil {
		return nil, err
	}
	return FromEvents(cfg.Nodes, cfg.Sessions, evs)
}

// FromEvents builds an injector from an explicit schedule, validating
// every event against the node/session universe.
func FromEvents(nodes, sessions int, events []Event) (*Injector, error) {
	if nodes < 0 || sessions < 0 {
		return nil, fmt.Errorf("%w: %d nodes, %d sessions", ErrInvalidSchedule, nodes, sessions)
	}
	evs := append([]Event(nil), events...)
	for i, e := range evs {
		if e.Start < 0 || e.Duration <= 0 {
			return nil, fmt.Errorf("%w: event %d spans [%d,%d)", ErrInvalidSchedule, i, e.Start, e.Start+e.Duration)
		}
		switch e.Class {
		case RateDegrade:
			if e.Node < 0 || e.Node >= nodes {
				return nil, fmt.Errorf("%w: event %d targets node %d of %d", ErrInvalidSchedule, i, e.Node, nodes)
			}
			if !(e.Severity > 0 && e.Severity < 1) || math.IsNaN(e.Severity) {
				return nil, fmt.Errorf("%w: event %d severity %v, want in (0,1)", ErrInvalidSchedule, i, e.Severity)
			}
		case Outage:
			if e.Node < 0 || e.Node >= nodes {
				return nil, fmt.Errorf("%w: event %d targets node %d of %d", ErrInvalidSchedule, i, e.Node, nodes)
			}
		case SessionLeave:
			if e.Session < 0 || e.Session >= sessions {
				return nil, fmt.Errorf("%w: event %d targets session %d of %d", ErrInvalidSchedule, i, e.Session, sessions)
			}
		case ForwardDelay:
			if e.Session < 0 || e.Session >= sessions {
				return nil, fmt.Errorf("%w: event %d targets session %d of %d", ErrInvalidSchedule, i, e.Session, sessions)
			}
			if e.Extra <= 0 {
				return nil, fmt.Errorf("%w: event %d extra delay %d, want positive", ErrInvalidSchedule, i, e.Extra)
			}
		default:
			return nil, fmt.Errorf("%w: event %d has unknown class %d", ErrInvalidSchedule, i, int(e.Class))
		}
	}
	sort.SliceStable(evs, func(a, b int) bool { return evs[a].Start < evs[b].Start })
	return &Injector{nodes: nodes, sessions: sessions, events: evs}, nil
}

// Events returns a copy of the schedule in start order.
func (in *Injector) Events() []Event { return append([]Event(nil), in.events...) }

// NodeRateScale returns the capacity multiplier for a node at a slot:
// 1 when unaffected, the product of overlapping degradations otherwise,
// and 0 during an outage. The signature matches the netsim hook.
func (in *Injector) NodeRateScale(node, slot int) float64 {
	scale := 1.0
	for _, e := range in.events {
		if !e.Active(slot) {
			continue
		}
		switch {
		case e.Class == Outage && e.Node == node:
			return 0
		case e.Class == RateDegrade && e.Node == node:
			scale *= e.Severity
		}
	}
	return scale
}

// SessionActive reports whether a session is present (not churned out)
// at a slot. The signature matches the netsim hook.
func (in *Injector) SessionActive(session, slot int) bool {
	for _, e := range in.events {
		if e.Class == SessionLeave && e.Session == session && e.Active(slot) {
			return false
		}
	}
	return true
}

// ForwardDelay returns the extra slots a session's fluid is held before
// entering the given hop at a slot (the largest overlapping event wins).
// The signature matches the netsim hook.
func (in *Injector) ForwardDelay(session, hop, slot int) int {
	extra := 0
	for _, e := range in.events {
		if e.Class == ForwardDelay && e.Session == session && e.Active(slot) && e.Extra > extra {
			extra = e.Extra
		}
	}
	return extra
}

// RateScaleAt adapts NodeRateScale to the continuous-time signature of
// the pktnet hook (slot = floor(t)).
func (in *Injector) RateScaleAt(node int, t float64) float64 {
	return in.NodeRateScale(node, int(math.Floor(t)))
}

// ExtraDelayAt adapts ForwardDelay to the continuous-time signature of
// the pktnet hook.
func (in *Injector) ExtraDelayAt(session, hop int, t float64) float64 {
	return float64(in.ForwardDelay(session, hop, int(math.Floor(t))))
}

// RateFunc returns a fluid.Config.RateFunc-shaped closure for a
// single-node simulation of base rate `rate` treating this injector's
// node `node` faults.
func (in *Injector) RateFunc(node int, rate float64) func(slot int) float64 {
	return func(slot int) float64 { return rate * in.NodeRateScale(node, slot) }
}

// MinNodeScale returns the smallest rate multiplier node ever sees over
// [0, horizon) — the worst-case capacity the degradation analysis should
// be evaluated against.
func (in *Injector) MinNodeScale(node, horizon int) float64 {
	min := 1.0
	for _, e := range in.events {
		if e.Node != node || (e.Class != RateDegrade && e.Class != Outage) {
			continue
		}
		if e.Start >= horizon {
			continue
		}
		// Evaluate at the event's start (overlaps compound there or
		// later; scanning each covered slot start is enough because
		// scales only change at event boundaries).
		if s := in.NodeRateScale(node, e.Start); s < min {
			min = s
		}
		if end := e.Start + e.Duration - 1; end < horizon {
			if s := in.NodeRateScale(node, end); s < min {
				min = s
			}
		}
	}
	return min
}

// Stats counts scheduled events per class.
type Stats struct {
	ByClass map[Class]int
	Total   int
}

// Stats summarizes the schedule.
func (in *Injector) Stats() Stats {
	st := Stats{ByClass: make(map[Class]int)}
	for _, e := range in.events {
		st.ByClass[e.Class]++
		st.Total++
	}
	return st
}

// String renders the whole schedule, one event per line — the canonical
// reproducibility artifact: two runs with the same seed print the same
// trace.
func (in *Injector) String() string {
	var b strings.Builder
	for _, e := range in.events {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Digest returns a short FNV-1a hash of the rendered schedule, handy for
// asserting two runs used the identical fault trace.
func (in *Injector) Digest() uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, c := range []byte(in.String()) {
		h ^= uint64(c)
		h *= prime
	}
	return h
}
