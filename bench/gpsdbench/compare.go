package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
)

// benchmarkSpec is the part of BENCHMARK.json -compare reads.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func loadSpec(root string) (*benchmarkSpec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// side is one set of runs: per workload, per metric, the value of each
// run and, for a single run, its within-run sub-window spread.
type side struct {
	values  map[string]map[string][]float64
	spreads map[string]map[string]float64
	order   []string
}

// loadSide reads a comma-separated list of results.json files.
func loadSide(list string) (*side, error) {
	s := &side{values: map[string]map[string][]float64{}, spreads: map[string]map[string]float64{}}
	for _, path := range strings.Split(list, ",") {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var rep report
		if err := json.Unmarshal(b, &rep); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if rep.Trace {
			return nil, fmt.Errorf("%s is a traced run; compare end-to-end runs", path)
		}
		for _, res := range rep.Workloads {
			if s.values[res.Workload] == nil {
				s.values[res.Workload] = map[string][]float64{}
				s.spreads[res.Workload] = map[string]float64{}
				s.order = append(s.order, res.Workload)
			}
			for name, m := range res.Metrics {
				s.values[res.Workload][name] = append(s.values[res.Workload][name], m.Value)
				// One sub-window (or set-up) value scatters about sqrt(k)
				// times more than a value measured over all k of them.
				if len(m.Subs) > 0 {
					s.spreads[res.Workload][name] = m.Spread / math.Sqrt(float64(len(m.Subs)))
				}
			}
		}
	}
	return s, nil
}

// summary returns a side's value for one metric and its spread.
func (s *side) summary(workload, name string) (float64, float64, bool) {
	vs := s.values[workload][name]
	switch len(vs) {
	case 0:
		return 0, 0, false
	case 1:
		return vs[0], s.spreads[workload][name], true
	}
	return median(vs), spread(vs), true
}

// verdict compares one metric of b against a.
type verdict struct {
	metric         string
	change, spread float64 // change > 0 is worse
	status         string  // ok, better, WORSE, unresolved, missing
}

// compareMain checks every end-to-end metric of every workload of run
// set b against run set a, with BENCHMARK.json's bounds: a metric is
// WORSE when b's value is worse than a's by more than its bound, and
// unresolved when either side's spread is wider than the bound. It
// prints one row per workload, then each metric, and returns 1 when any
// metric is worse.
func compareMain(root, aList, bList string) int {
	spec, err := loadSpec(root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gpsdbench: %v\n", err)
		return 2
	}
	a, err := loadSide(aList)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gpsdbench: %v\n", err)
		return 2
	}
	b, err := loadSide(bList)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gpsdbench: %v\n", err)
		return 2
	}
	exit := 0
	details := map[string][]verdict{}
	fmt.Printf("%-20s %-6s %s\n", "workload", "verdict", "metrics worse / unresolved / better")
	for _, w := range a.order {
		if b.values[w] == nil {
			fmt.Printf("%-20s %-6s only in %s\n", w, "-", aList)
			continue
		}
		var worse, unresolved, better []string
		for _, m := range spec.EndToEnd {
			v := verdict{metric: m.Name}
			va, sa, okA := a.summary(w, m.Name)
			vb, sb, okB := b.summary(w, m.Name)
			switch {
			case !okA || !okB:
				v.status = "missing"
				worse = append(worse, m.Name+"(missing)")
			default:
				v.change = (vb - va) / math.Abs(va)
				if m.Better == "higher" {
					v.change = -v.change
				}
				v.spread = math.Max(sa, sb)
				switch {
				case v.spread > m.Bound:
					v.status = "unresolved"
					unresolved = append(unresolved, m.Name)
				case v.change > m.Bound:
					v.status = "WORSE"
					worse = append(worse, m.Name)
				case v.change < -m.Bound:
					v.status = "better"
					better = append(better, m.Name)
				default:
					v.status = "ok"
				}
			}
			details[w] = append(details[w], v)
		}
		status := "ok"
		if len(worse) > 0 {
			status, exit = "WORSE", 1
		}
		fmt.Printf("%-20s %-6s %s / %s / %s\n", w, status, list(worse), list(unresolved), list(better))
	}
	fmt.Println("per metric: change of B against A (+ is worse), the wider side's spread, verdict")
	for _, w := range a.order {
		for _, v := range details[w] {
			fmt.Printf("  %-20s %-24s %+8.2f%%  spread %6.2f%%  %s\n", w, v.metric, 100*v.change, 100*v.spread, v.status)
		}
	}
	return exit
}

func list(xs []string) string {
	if len(xs) == 0 {
		return "-"
	}
	return strings.Join(xs, ",")
}
