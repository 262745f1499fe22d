// Package admission implements call admission control on top of the
// statistical GPS bounds — the application the paper's §7 sketches. Each
// session declares a soft QoS target Pr{D >= Delay} <= Eps; the
// controller computes the minimal guaranteed rate that meets the target
// (from the Lemma 5 / direct Markov queue bounds) and admits sessions as
// long as the required rates fit the link, assigning GPS weights equal to
// the required rates (which makes every admitted session an H_1 session,
// so Theorem 10 applies and the per-session bounds are honest).
package admission

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/ebb"
	"repro/internal/numeric"
	"repro/internal/source"
)

// Target is a soft QoS requirement: Pr{delay >= Delay slots} <= Eps.
type Target struct {
	Delay float64
	Eps   float64
}

// Validate checks the target.
func (t Target) Validate() error {
	if !(t.Delay > 0) || math.IsInf(t.Delay, 1) || math.IsNaN(t.Delay) {
		return fmt.Errorf("admission: delay target = %v, want positive finite", t.Delay)
	}
	if !(t.Eps > 0 && t.Eps < 1) {
		return fmt.Errorf("admission: eps = %v, want in (0,1)", t.Eps)
	}
	return nil
}

// RequiredRate returns the minimal dedicated (guaranteed) rate g at which
// an E.B.B. session meets the target, using the discrete Lemma 5 bound
//
//	Pr{D >= d} <= Λ/(1-e^{-α(g-ρ)})·e^{-α·g·d} <= eps.
//
// The left side decreases in g, so bisection applies. If even g = +∞
// cannot meet the target (eps above the  Λe^{-αgd} floor never happens —
// the bound always → 0), the search expands until it brackets.
func RequiredRate(p ebb.Process, t Target) (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	if err := t.Validate(); err != nil {
		return 0, err
	}
	value := func(g float64) float64 {
		tail, err := p.DeltaTailDiscrete(g)
		if err != nil {
			return math.Inf(1)
		}
		return tail.EvalRaw(g * t.Delay)
	}
	f := func(g float64) float64 { return math.Log(value(g)) - math.Log(t.Eps) }
	lo := p.Rho
	hi, err := numeric.BracketUp(f, lo, math.Max(p.Rho/4, 1e-3))
	if err != nil || math.IsInf(hi, 1) {
		// A ρ near the float64 ceiling brackets only at +Inf.
		return 0, fmt.Errorf("admission: no finite rate meets %+v for %v", t, p)
	}
	g, err := numeric.Bisect(f, lo+1e-12, hi, 1e-12*math.Max(1, hi))
	if err != nil {
		return 0, err
	}
	return g, nil
}

// RequiredRateMarkov is RequiredRate with the sharper direct queue bound
// for a Markov-modulated source (the paper's Figure 4 route): minimal g
// with DeltaTail(g).Eval(g·d) <= eps. It is never larger than what the
// E.B.B. route demands for a consistent characterization.
func RequiredRateMarkov(m *source.MarkovFluid, t Target) (float64, error) {
	if err := t.Validate(); err != nil {
		return 0, err
	}
	mean, err := m.MeanRate()
	if err != nil {
		return 0, err
	}
	value := func(g float64) float64 {
		fam, err := m.DeltaTail(g)
		if err != nil {
			return math.Inf(1)
		}
		fam.Paper = true
		v := fam.Best(g * t.Delay).EvalRaw(g * t.Delay)
		if v <= 0 {
			return math.SmallestNonzeroFloat64
		}
		return v
	}
	f := func(g float64) float64 { return math.Log(value(g)) - math.Log(t.Eps) }
	lo := mean
	hi, err := numeric.BracketUp(f, lo, math.Max(mean/4, 1e-3))
	if err != nil {
		return 0, fmt.Errorf("admission: no finite rate meets %+v", t)
	}
	g, err := numeric.Bisect(f, lo+1e-12, hi, 1e-12*math.Max(1, hi))
	if err != nil {
		return 0, err
	}
	return g, nil
}

// Request is one session asking to join the link.
type Request struct {
	Name    string
	Arrival ebb.Process
	Target  Target
}

// Decision records the outcome for one admitted session. The request's
// arrival characterization and target are retained so the controller can
// re-evaluate the session later against a degraded link rate.
type Decision struct {
	Name         string
	RequiredRate float64
	Phi          float64 // assigned GPS weight (= required rate)
	Arrival      ebb.Process
	Target       Target
}

// Controller tracks admitted sessions on one GPS link.
type Controller struct {
	Rate float64

	admitted []Decision
	used     float64
}

// NewController builds a controller for a link of the given rate.
func NewController(rate float64) (*Controller, error) {
	if !(rate > 0) {
		return nil, fmt.Errorf("admission: link rate = %v, want positive", rate)
	}
	return &Controller{Rate: rate}, nil
}

// ErrRejected is returned when a request does not fit the link.
var ErrRejected = errors.New("admission: request rejected")

// Admit evaluates a request; on success the session is added with GPS
// weight equal to its required rate.
//
// Soundness: weights equal required rates and Σφ <= r, so every admitted
// session's guaranteed rate g_i = φ_i/Σφ·r >= φ_i = required rate, each
// session is an H_1 session of the feasible partition, and Theorem 10
// gives it exactly the Lemma 5 bound its rate was sized against.
func (c *Controller) Admit(req Request) (Decision, error) {
	g, err := RequiredRate(req.Arrival, req.Target)
	if err != nil {
		return Decision{}, err
	}
	if c.used+g > c.Rate {
		return Decision{}, fmt.Errorf("%w: %s needs rate %.4g, only %.4g free",
			ErrRejected, req.Name, g, c.Rate-c.used)
	}
	d := Decision{Name: req.Name, RequiredRate: g, Phi: g, Arrival: req.Arrival, Target: req.Target}
	c.admitted = append(c.admitted, d)
	c.used += g
	return d, nil
}

// Release removes a previously admitted session by name; it reports
// whether a session was found.
func (c *Controller) Release(name string) bool {
	for i, d := range c.admitted {
		if d.Name == name {
			c.used -= d.RequiredRate
			c.admitted = append(c.admitted[:i], c.admitted[i+1:]...)
			return true
		}
	}
	return false
}

// Admitted returns a copy of the current decisions.
func (c *Controller) Admitted() []Decision {
	return append([]Decision(nil), c.admitted...)
}

// Utilization returns Σ required rates / link rate.
func (c *Controller) Utilization() float64 { return c.used / c.Rate }

// Weights returns the GPS assignment for the admitted set, aligned with
// Admitted().
func (c *Controller) Weights() []float64 {
	out := make([]float64, len(c.admitted))
	for i, d := range c.admitted {
		out[i] = d.Phi
	}
	return out
}
