// Package simcfg parses JSON experiment configurations and runs them:
// a single GPS node with per-session sources, optional leaky-bucket
// shaping, analytic or explicit E.B.B. characterizations, bound
// computation, and a simulation that reports measured delay tails against
// the bounds. It backs the gpssim command so users can run their own
// scenarios without writing Go.
package simcfg

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/ebb"
	"repro/internal/fluid"
	"repro/internal/gpsmath"
	"repro/internal/source"
	"repro/internal/stats"
	"repro/internal/traceio"
)

// SourceConfig selects a traffic source.
type SourceConfig struct {
	Type string `json:"type"` // "onoff", "cbr", "markov", "trace"

	// onoff
	P      float64 `json:"p,omitempty"`
	Q      float64 `json:"q,omitempty"`
	Lambda float64 `json:"lambda,omitempty"`

	// cbr
	Rate float64 `json:"rate,omitempty"`

	// markov
	Transitions [][]float64 `json:"transitions,omitempty"`
	Rates       []float64   `json:"rates,omitempty"`

	// trace: a file of per-slot volumes (see internal/traceio), replayed
	// cyclically.
	Path string `json:"path,omitempty"`
}

// EBBConfig optionally pins an explicit characterization.
type EBBConfig struct {
	Lambda float64 `json:"lambda"`
	Alpha  float64 `json:"alpha"`
}

// ShaperConfig optionally wraps the source in a leaky bucket.
type ShaperConfig struct {
	Sigma float64 `json:"sigma"`
	Rho   float64 `json:"rho"`
}

// SessionConfig is one session at the node.
type SessionConfig struct {
	Name   string        `json:"name"`
	Phi    float64       `json:"phi"`
	Rho    float64       `json:"rho"` // E.B.B. envelope rate
	Source SourceConfig  `json:"source"`
	EBB    *EBBConfig    `json:"ebb,omitempty"`
	Shaper *ShaperConfig `json:"shaper,omitempty"`
}

// Config is a full experiment.
type Config struct {
	Rate     float64         `json:"rate"`
	Slots    int             `json:"slots"`
	Seed     uint64          `json:"seed"`
	Sessions []SessionConfig `json:"sessions"`
	// Levels for the delay grid of the report (defaults 0..30, 30 pts).
	LevelMax    float64 `json:"level_max,omitempty"`
	LevelPoints int     `json:"level_points,omitempty"`
	// Independent declares sources independent (default true).
	Dependent bool `json:"dependent,omitempty"`
}

// Parse reads a Config from JSON.
func Parse(r io.Reader) (*Config, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var c Config
	if err := dec.Decode(&c); err != nil {
		return nil, fmt.Errorf("simcfg: %w", err)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &c, nil
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if !(c.Rate > 0) {
		return fmt.Errorf("simcfg: rate = %v, want positive", c.Rate)
	}
	if c.Slots <= 0 {
		return fmt.Errorf("simcfg: slots = %d, want positive", c.Slots)
	}
	if len(c.Sessions) == 0 {
		return errors.New("simcfg: no sessions")
	}
	for i, s := range c.Sessions {
		if s.Name == "" {
			return fmt.Errorf("simcfg: session %d has no name", i)
		}
		if !(s.Phi > 0) {
			return fmt.Errorf("simcfg: session %q: phi = %v", s.Name, s.Phi)
		}
		if !(s.Rho > 0) {
			return fmt.Errorf("simcfg: session %q: rho = %v", s.Name, s.Rho)
		}
		switch s.Source.Type {
		case "onoff", "cbr", "markov":
		case "trace":
			if s.Source.Path == "" {
				return fmt.Errorf("simcfg: session %q: trace source needs a path", s.Name)
			}
		default:
			return fmt.Errorf("simcfg: session %q: unknown source type %q", s.Name, s.Source.Type)
		}
	}
	if c.LevelMax < 0 || c.LevelPoints < 0 {
		return errors.New("simcfg: negative level grid")
	}
	return nil
}

// buildSource constructs one sampler.
func buildSource(sc SourceConfig, seed uint64) (source.Source, error) {
	switch sc.Type {
	case "onoff":
		return source.NewOnOff(sc.P, sc.Q, sc.Lambda, seed)
	case "cbr":
		if !(sc.Rate > 0) {
			return nil, fmt.Errorf("simcfg: cbr rate = %v", sc.Rate)
		}
		return source.CBR{Rate: sc.Rate}, nil
	case "markov":
		m, err := source.NewMarkovFluid(sc.Transitions, sc.Rates)
		if err != nil {
			return nil, err
		}
		return source.NewMMFSource(m, seed)
	case "trace":
		data, err := traceio.ReadFile(sc.Path)
		if err != nil {
			return nil, err
		}
		return source.NewTrace(data)
	default:
		return nil, fmt.Errorf("simcfg: unknown source type %q", sc.Type)
	}
}

// characterize derives the session's E.B.B. triple: explicit if given,
// analytic for Markov-class sources, and trace-fitted otherwise.
func characterize(s SessionConfig, seed uint64) (ebb.Process, error) {
	if s.EBB != nil {
		p := ebb.Process{Rho: s.Rho, Lambda: s.EBB.Lambda, Alpha: s.EBB.Alpha}
		return p, p.Validate()
	}
	// A shaped source is not the raw Markov source, so the analytic
	// routes only apply unshaped; shaped traffic is trace-fitted below.
	analytic := s.Shaper == nil
	switch {
	case analytic && s.Source.Type == "onoff":
		src, err := source.NewOnOff(s.Source.P, s.Source.Q, s.Source.Lambda, 1)
		if err != nil {
			return ebb.Process{}, err
		}
		return src.EBBPaper(s.Rho)
	case analytic && s.Source.Type == "markov":
		m, err := source.NewMarkovFluid(s.Source.Transitions, s.Source.Rates)
		if err != nil {
			return ebb.Process{}, err
		}
		return m.EBBPaper(s.Rho)
	default:
		// Fit from a trace (also covers shaped sources pragmatically).
		src, err := buildSource(s.Source, seed^0xfeed)
		if err != nil {
			return ebb.Process{}, err
		}
		var gen source.Source = src
		if s.Shaper != nil {
			gen, err = source.NewShaper(src, s.Shaper.Sigma, s.Shaper.Rho)
			if err != nil {
				return ebb.Process{}, err
			}
		}
		trace := source.Record(gen, 200000)
		fitted, err := source.FitEBB(trace, s.Rho, []int{4, 8, 16, 32})
		if err != nil {
			// CBR-like traffic has no excesses at rho above its rate:
			// a zero-prefactor envelope is exact.
			return ebb.Process{Rho: s.Rho, Lambda: 0, Alpha: 1}, nil
		}
		return fitted, nil
	}
}

// SessionReport is the per-session outcome.
type SessionReport struct {
	Name       string
	Char       ebb.Process
	G          float64
	DelayGrid  []float64
	BoundCCDF  []float64
	SimCCDF    []float64
	SampleSize int
	MeanDelay  float64
	MaxDelay   float64
}

// Result is the whole run.
type Result struct {
	Sessions []SessionReport
}

// Run executes the experiment: characterize, bound, simulate, compare.
func (c *Config) Run() (*Result, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	n := len(c.Sessions)
	phi := make([]float64, n)
	chars := make([]ebb.Process, n)
	gens := make([]source.Source, n)
	for i, s := range c.Sessions {
		phi[i] = s.Phi
		var err error
		chars[i], err = characterize(s, c.Seed+uint64(i))
		if err != nil {
			return nil, fmt.Errorf("simcfg: session %q: %w", s.Name, err)
		}
		src, err := buildSource(s.Source, c.Seed+uint64(i)*7919)
		if err != nil {
			return nil, fmt.Errorf("simcfg: session %q: %w", s.Name, err)
		}
		gens[i] = src
		if s.Shaper != nil {
			gens[i], err = source.NewShaper(src, s.Shaper.Sigma, s.Shaper.Rho)
			if err != nil {
				return nil, err
			}
		}
	}

	srv := gpsmath.Server{Rate: c.Rate}
	for i, s := range c.Sessions {
		srv.Sessions = append(srv.Sessions, gpsmath.Session{Name: s.Name, Phi: phi[i], Arrival: chars[i]})
	}
	analysis, err := gpsmath.AnalyzeServer(srv, gpsmath.Options{
		Independent: !c.Dependent,
		Xi:          gpsmath.XiOptimal,
	})
	if err != nil {
		return nil, err
	}

	tails := make([]*stats.Tail, n)
	for i := range tails {
		tails[i] = &stats.Tail{}
	}
	sim, err := fluid.New(fluid.Config{
		Rate: c.Rate, Phi: phi,
		OnDelay: func(sess, slot int, d float64) { tails[sess].Add(d) },
	})
	if err != nil {
		return nil, err
	}
	if err := sim.Run(c.Slots, func(i int) float64 { return gens[i].Next() }); err != nil {
		return nil, err
	}

	lmax := c.LevelMax
	if lmax == 0 {
		lmax = 30
	}
	pts := c.LevelPoints
	if pts == 0 {
		pts = 30
	}
	grid := stats.Levels(0, lmax, pts)
	res := &Result{}
	for i, s := range c.Sessions {
		sb := analysis.PartitionBound(i)
		bound := make([]float64, len(grid))
		for k, d := range grid {
			bound[k] = sb.DelayTail(d)
		}
		res.Sessions = append(res.Sessions, SessionReport{
			Name:       s.Name,
			Char:       chars[i],
			G:          sb.G,
			DelayGrid:  grid,
			BoundCCDF:  bound,
			SimCCDF:    tails[i].CCDFCurve(grid),
			SampleSize: tails[i].N(),
			MeanDelay:  tails[i].Mean(),
			MaxDelay:   tails[i].Max(),
		})
	}
	return res, nil
}
