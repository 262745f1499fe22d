// Package hiergps implements two-level hierarchical GPS (link sharing in
// the spirit of Clark-Shenker-Zhang, which the paper's §1/§7 cite as the
// architecture motivating GPS): the link's capacity is GPS-shared among
// groups (agencies, service classes), and each group GPS-shares its
// allocation among its member sessions.
//
// Analysis is compositional: the outer level guarantees group g a
// clearing rate G_g = Φ_g/ΣΦ·R whenever the group is backlogged, so the
// inner level is a GPS server of rate G_g in isolation and the paper's
// single-node theory applies within the group. The bounds so obtained
// are conservative — a group may receive more than G_g when other groups
// idle — and the paired exact simulator (nested water-filling) lets
// tests measure that slack.
package hiergps

import (
	"errors"
	"fmt"

	"repro/internal/ebb"
	"repro/internal/fluid"
	"repro/internal/gpsmath"
	"repro/internal/ring"
)

// Group is one second-level GPS instance.
type Group struct {
	Name string
	Phi  float64 // outer GPS weight Φ_g
	// MemberPhi and Members describe the inner GPS instance.
	MemberPhi []float64
	Members   []ebb.Process
}

// Server is the two-level hierarchy.
type Server struct {
	Rate   float64
	Groups []Group
}

// Validate checks structure and per-group stability under the guaranteed
// group rates.
func (s Server) Validate() error {
	if !(s.Rate > 0) {
		return fmt.Errorf("hiergps: rate = %v", s.Rate)
	}
	if len(s.Groups) == 0 {
		return errors.New("hiergps: no groups")
	}
	totalPhi := 0.0
	for _, g := range s.Groups {
		totalPhi += g.Phi
	}
	for gi, g := range s.Groups {
		if !(g.Phi > 0) {
			return fmt.Errorf("hiergps: group %d (%s): phi = %v", gi, g.Name, g.Phi)
		}
		if len(g.Members) == 0 || len(g.Members) != len(g.MemberPhi) {
			return fmt.Errorf("hiergps: group %d (%s): %d members, %d weights", gi, g.Name, len(g.Members), len(g.MemberPhi))
		}
		rate := g.Phi / totalPhi * s.Rate
		load := 0.0
		for mi, m := range g.Members {
			if err := m.Validate(); err != nil {
				return fmt.Errorf("hiergps: group %d member %d: %w", gi, mi, err)
			}
			if !(g.MemberPhi[mi] > 0) {
				return fmt.Errorf("hiergps: group %d member %d: phi = %v", gi, mi, g.MemberPhi[mi])
			}
			load += m.Rho
		}
		if load >= rate {
			return fmt.Errorf("hiergps: group %d (%s) overloaded at its guaranteed rate: sum rho %v >= %v",
				gi, g.Name, load, rate)
		}
	}
	return nil
}

// GroupRate returns group g's guaranteed clearing rate Φ_g/ΣΦ·R.
func (s Server) GroupRate(g int) float64 {
	total := 0.0
	for _, gr := range s.Groups {
		total += gr.Phi
	}
	return s.Groups[g].Phi / total * s.Rate
}

// MemberBounds holds per-member bounds within one group.
type MemberBounds struct {
	Group  string
	Bounds []*gpsmath.SessionBounds
}

// Analyze runs the paper's single-node analysis inside each group at the
// group's guaranteed rate. The resulting per-member bounds hold for the
// full hierarchy: whenever a member is backlogged its group is too, so
// the group receives at least GroupRate and the inner GPS sees at least
// the modeled server.
func (s Server) Analyze(opts gpsmath.Options) ([]MemberBounds, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	out := make([]MemberBounds, len(s.Groups))
	for gi, g := range s.Groups {
		srv := gpsmath.Server{Rate: s.GroupRate(gi)}
		for mi, m := range g.Members {
			srv.Sessions = append(srv.Sessions, gpsmath.Session{
				Name:    fmt.Sprintf("%s/%d", g.Name, mi),
				Phi:     g.MemberPhi[mi],
				Arrival: m,
			})
		}
		a, err := gpsmath.AnalyzeServer(srv, opts)
		if err != nil {
			return nil, fmt.Errorf("hiergps: group %s: %w", g.Name, err)
		}
		bounds := make([]*gpsmath.SessionBounds, len(g.Members))
		for mi := range bounds {
			bounds[mi] = a.PartitionBound(mi)
		}
		out[gi] = MemberBounds{Group: g.Name, Bounds: bounds}
	}
	return out, nil
}

// Sim is the exact two-level fluid simulator: within each slot it
// performs nested water-filling — the outer GPS reallocates capacity as
// groups drain, and each group's share reallocates as members drain.
type Sim struct {
	s    Server
	slot int

	// backlog[g][m]
	backlog [][]float64
	cumA    [][]float64
	cumS    [][]float64
	onDelay DelayFunc
	pending [][]ring.Ring[batch]

	// Per-segment scratch, preallocated so the water-filling loop makes
	// no allocations: rates[g][m] is the member's drain rate under the
	// current activity sets and groupSum[g] the group backlog computed
	// once per segment (the previous implementation allocated a fresh
	// rate matrix per segment and re-summed each group twice).
	rates    [][]float64
	groupSum []float64
}

// DelayFunc receives completed member batches.
type DelayFunc func(group, member, arrivalSlot int, delay float64)

type batch struct {
	level float64
	slot  int
}

// NewSim builds a simulator.
func NewSim(s Server, onDelay DelayFunc) (*Sim, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	sim := &Sim{s: s, onDelay: onDelay, groupSum: make([]float64, len(s.Groups))}
	for _, g := range s.Groups {
		n := len(g.Members)
		sim.backlog = append(sim.backlog, make([]float64, n))
		sim.cumA = append(sim.cumA, make([]float64, n))
		sim.cumS = append(sim.cumS, make([]float64, n))
		sim.pending = append(sim.pending, make([]ring.Ring[batch], n))
		sim.rates = append(sim.rates, make([]float64, n))
	}
	return sim, nil
}

// Backlog returns member m of group g's backlog.
func (sim *Sim) Backlog(g, m int) float64 { return sim.backlog[g][m] }

// GroupBacklog returns group g's total backlog.
func (sim *Sim) GroupBacklog(g int) float64 {
	t := 0.0
	for _, b := range sim.backlog[g] {
		t += b
	}
	return t
}

// Slot returns completed slots.
func (sim *Sim) Slot() int { return sim.slot }

const zeroTol = 1e-12

// Step advances one slot; arrivals[g][m] is member m of group g's fresh
// fluid.
func (sim *Sim) Step(arrivals [][]float64) error {
	if len(arrivals) != len(sim.s.Groups) {
		return fmt.Errorf("hiergps: %d arrival groups for %d groups", len(arrivals), len(sim.s.Groups))
	}
	for g := range arrivals {
		if len(arrivals[g]) != len(sim.s.Groups[g].Members) {
			return fmt.Errorf("hiergps: group %d: %d arrivals for %d members", g, len(arrivals[g]), len(sim.s.Groups[g].Members))
		}
		for m, a := range arrivals[g] {
			if a < 0 {
				return fmt.Errorf("hiergps: negative arrival %v", a)
			}
			if a > 0 {
				sim.backlog[g][m] += a
				sim.cumA[g][m] += a
				if sim.onDelay != nil {
					sim.pending[g][m].Push(batch{level: sim.cumA[g][m], slot: sim.slot})
				}
			}
		}
	}
	sim.drainSlot()
	sim.slot++
	return nil
}

// drainSlot performs nested water-filling over the unit slot.
func (sim *Sim) drainSlot() {
	remaining := 1.0
	for remaining > zeroTol {
		// Active groups and per-group active member weights. Group sums
		// are computed once per segment into the scratch slice (the same
		// summation order as GroupBacklog, so activity decisions are
		// unchanged).
		outerPhi := 0.0
		for g, gr := range sim.s.Groups {
			sim.groupSum[g] = sim.GroupBacklog(g)
			if sim.groupSum[g] > zeroTol {
				outerPhi += gr.Phi
			}
		}
		if outerPhi == 0 {
			break
		}
		// Per-member drain rates under the current activity sets.
		seg := remaining
		for g, gr := range sim.s.Groups {
			rates := sim.rates[g]
			for m := range rates {
				rates[m] = 0
			}
			if sim.groupSum[g] <= zeroTol {
				continue
			}
			groupRate := gr.Phi / outerPhi * sim.s.Rate
			innerPhi := 0.0
			for m := range gr.Members {
				if sim.backlog[g][m] > zeroTol {
					innerPhi += gr.MemberPhi[m]
				}
			}
			for m := range gr.Members {
				if sim.backlog[g][m] > zeroTol {
					rates[m] = gr.MemberPhi[m] / innerPhi * groupRate
					if t := sim.backlog[g][m] / rates[m]; t < seg {
						seg = t
					}
				}
			}
		}
		elapsed := 1 - remaining
		for g := range sim.s.Groups {
			for m := range sim.s.Groups[g].Members {
				r := sim.rates[g][m]
				if r == 0 {
					continue
				}
				vol := r * seg
				if vol > sim.backlog[g][m] {
					vol = sim.backlog[g][m]
				}
				sim.backlog[g][m] -= vol
				if rem := sim.backlog[g][m]; rem < zeroTol {
					vol += rem
					sim.backlog[g][m] = 0
				}
				sim.cumS[g][m] += vol
				if sim.onDelay != nil {
					sim.completeBatches(g, m, elapsed, seg, r)
				}
			}
		}
		remaining -= seg
	}
}

func (sim *Sim) completeBatches(g, m int, elapsed, seg, rate float64) {
	q := &sim.pending[g][m]
	tol := zeroTol * (1 + sim.cumS[g][m])
	for q.Len() > 0 && q.Front().level <= sim.cumS[g][m]+tol {
		b := q.Pop()
		within := seg - (sim.cumS[g][m]-b.level)/rate
		if within < 0 {
			within = 0
		} else if within > seg {
			within = seg
		}
		finish := float64(sim.slot) + elapsed + within
		sim.onDelay(g, m, b.slot, finish-float64(b.slot))
	}
}

// Run drives the simulator with a per-(group, member) generator.
func (sim *Sim) Run(slots int, gen func(group, member int) float64) error {
	arr := make([][]float64, len(sim.s.Groups))
	for g := range arr {
		arr[g] = make([]float64, len(sim.s.Groups[g].Members))
	}
	for t := 0; t < slots; t++ {
		for g := range arr {
			for m := range arr[g] {
				arr[g][m] = gen(g, m)
			}
		}
		if err := sim.Step(arr); err != nil {
			return err
		}
	}
	return nil
}

// fluidEquivalent builds the flat single-level GPS simulator with
// product weights Φ_g·φ_m — what the hierarchy degenerates to when every
// group stays busy. Exposed for tests.
func (s Server) fluidEquivalent() (*fluid.Sim, error) {
	var phi []float64
	for _, g := range s.Groups {
		inner := 0.0
		for _, p := range g.MemberPhi {
			inner += p
		}
		for _, p := range g.MemberPhi {
			phi = append(phi, g.Phi*p/inner)
		}
	}
	return fluid.New(fluid.Config{Rate: s.Rate, Phi: phi})
}
