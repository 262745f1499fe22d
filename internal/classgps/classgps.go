// Package classgps implements the scheduling structure the paper's §7
// proposes for combining isolation with multiplexing gain: traffic is
// grouped into classes of similar characteristics (similar ρ/φ, hence
// the same feasible-partition class); GPS separates the classes while
// FCFS multiplexes the sessions inside each class.
//
// Analysis follows the paper's recipe: each class is lumped into an
// aggregate E.B.B. session, the single-node theory bounds the aggregate
// class backlog and delay, and — because service inside a class is FCFS —
// the class bound is a per-session worst-case statistical bound for every
// member. A paired fluid simulator (GPS across classes, FIFO within)
// measures the multiplexing gain the scheme buys.
package classgps

import (
	"errors"
	"fmt"

	"repro/internal/ebb"
	"repro/internal/fluid"
	"repro/internal/gpsmath"
)

// Class is one traffic class: a GPS weight shared by member sessions that
// are served FCFS among themselves.
type Class struct {
	Name    string
	Phi     float64
	Members []ebb.Process
}

// Server is a class-based GPS server.
type Server struct {
	Rate    float64
	Classes []Class
}

// Validate checks structure and stability.
func (s Server) Validate() error {
	if !(s.Rate > 0) {
		return fmt.Errorf("classgps: rate = %v, want positive", s.Rate)
	}
	if len(s.Classes) == 0 {
		return errors.New("classgps: no classes")
	}
	total := 0.0
	for ci, c := range s.Classes {
		if !(c.Phi > 0) {
			return fmt.Errorf("classgps: class %d (%s): phi = %v", ci, c.Name, c.Phi)
		}
		if len(c.Members) == 0 {
			return fmt.Errorf("classgps: class %d (%s) has no members", ci, c.Name)
		}
		for mi, m := range c.Members {
			if err := m.Validate(); err != nil {
				return fmt.Errorf("classgps: class %d member %d: %w", ci, mi, err)
			}
			total += m.Rho
		}
	}
	if total >= s.Rate {
		return fmt.Errorf("classgps: sum rho = %v >= rate %v", total, s.Rate)
	}
	return nil
}

// AggregateServer lumps each class into one aggregate session at Chernoff
// parameter theta (paper §5: the aggregate of {(ρ_i, Λ_i, α_i)} is a
// (Σρ_i, e^{θΣσ̂_i(θ)}, θ)-E.B.B. process) and returns the plain GPS
// server whose per-"session" bounds are the per-class bounds.
func (s Server) AggregateServer(theta float64) (gpsmath.Server, error) {
	if err := s.Validate(); err != nil {
		return gpsmath.Server{}, err
	}
	srv := gpsmath.Server{Rate: s.Rate}
	for _, c := range s.Classes {
		agg, err := ebb.Aggregate(c.Members, theta)
		if err != nil {
			return gpsmath.Server{}, fmt.Errorf("classgps: class %s: %w", c.Name, err)
		}
		srv.Sessions = append(srv.Sessions, gpsmath.Session{Name: c.Name, Phi: c.Phi, Arrival: agg})
	}
	return srv, nil
}

// maxAggTheta returns the largest usable aggregation θ: the smallest
// member α across all classes (exclusive).
func (s Server) maxAggTheta() float64 {
	m := 0.0
	first := true
	for _, c := range s.Classes {
		for _, p := range c.Members {
			if first || p.Alpha < m {
				m, first = p.Alpha, false
			}
		}
	}
	return m
}

// ClassBounds is the per-class (and hence per-member, by the FCFS
// argument) statistical bound set.
type ClassBounds struct {
	Class  string
	Bounds *gpsmath.SessionBounds
}

// Analyze computes per-class bounds. thetaFrac in (0,1) selects the
// aggregation Chernoff parameter as a fraction of the smallest member α
// (0 means 0.5). Independence across classes is assumed when independent
// is true (sessions of different classes independent); members within a
// class need no independence assumption at all — aggregation is additive.
func (s Server) Analyze(thetaFrac float64, independent bool, xi gpsmath.XiMode) ([]ClassBounds, error) {
	if thetaFrac == 0 {
		thetaFrac = 0.5
	}
	if thetaFrac <= 0 || thetaFrac >= 1 {
		return nil, fmt.Errorf("classgps: theta fraction = %v, want in (0,1)", thetaFrac)
	}
	theta := thetaFrac * s.maxAggTheta()
	srv, err := s.AggregateServer(theta)
	if err != nil {
		return nil, err
	}
	a, err := gpsmath.AnalyzeServer(srv, gpsmath.Options{Independent: independent, Xi: xi})
	if err != nil {
		return nil, err
	}
	out := make([]ClassBounds, len(s.Classes))
	for i := range s.Classes {
		out[i] = ClassBounds{Class: s.Classes[i].Name, Bounds: a.PartitionBound(i)}
	}
	return out, nil
}

// Sim simulates the class-based server: exact fluid GPS across classes,
// FIFO inside each class. Per-member arrival batches are tracked against
// the class's cumulative service, which is exactly FIFO-within-class.
type Sim struct {
	inner *fluid.Sim
	// memberOf[k] maps flat member index to class index.
	memberOf []int
	nMembers int
	// pendingMembers[ci] queues the members whose batches are in flight
	// at class ci, in FIFO order; nil when delays are not tracked.
	pendingMembers [][]memberBatch
}

// MemberDelayFunc receives completed member batches: flat member index,
// arrival slot, exact delay.
type MemberDelayFunc func(member, arrivalSlot int, delay float64)

// NewSim builds the simulator. The flat member index enumerates classes
// in order, members within class in order.
func NewSim(s Server, onDelay MemberDelayFunc) (*Sim, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	var memberOf []int
	phi := make([]float64, len(s.Classes))
	for ci, c := range s.Classes {
		phi[ci] = c.Phi
		for range c.Members {
			memberOf = append(memberOf, ci)
		}
	}
	sim := &Sim{memberOf: memberOf, nMembers: len(memberOf)}
	cfg := fluid.Config{Rate: s.Rate, Phi: phi}
	if onDelay != nil {
		// fluid.Sim tracks one FIFO per class; member arrivals of the
		// same slot merge into one class batch, and each member is
		// attributed the merged batch's last-bit delay — conservative
		// per member, and exactly the quantity the class-level bound
		// dominates.
		sim.pendingMembers = make([][]memberBatch, len(s.Classes))
		cfg.OnDelay = func(class, slot int, d float64) {
			q := sim.pendingMembers[class]
			for len(q) > 0 && q[0].slot == slot {
				onDelay(q[0].member, slot, d)
				q = q[1:]
			}
			sim.pendingMembers[class] = q
		}
	}
	inner, err := fluid.New(cfg)
	if err != nil {
		return nil, err
	}
	sim.inner = inner
	return sim, nil
}

type memberBatch struct {
	member int
	slot   int
}

// Step advances one slot; arrivals are per flat member.
func (s *Sim) Step(memberArrivals []float64) error {
	if len(memberArrivals) != s.nMembers {
		return fmt.Errorf("classgps: %d arrivals for %d members", len(memberArrivals), s.nMembers)
	}
	classArr := make([]float64, s.inner.N())
	for k, a := range memberArrivals {
		if a < 0 {
			return fmt.Errorf("classgps: arrival[%d] = %v", k, a)
		}
		if a > 0 {
			ci := s.memberOf[k]
			classArr[ci] += a
			if s.pendingMembers != nil {
				s.pendingMembers[ci] = append(s.pendingMembers[ci], memberBatch{member: k, slot: s.inner.Slot()})
			}
		}
	}
	_, err := s.inner.Step(classArr)
	return err
}

// ClassBacklog returns the backlog of class ci.
func (s *Sim) ClassBacklog(ci int) float64 { return s.inner.Backlog(ci) }

// Slot returns completed slots.
func (s *Sim) Slot() int { return s.inner.Slot() }

// Run drives the simulator with a per-member generator.
func (s *Sim) Run(slots int, gen func(member int) float64) error {
	arr := make([]float64, s.nMembers)
	for t := 0; t < slots; t++ {
		for i := range arr {
			arr[i] = gen(i)
		}
		if err := s.Step(arr); err != nil {
			return err
		}
	}
	return nil
}
