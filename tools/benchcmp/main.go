// Command benchcmp guards the hot paths against performance regressions:
// it loads the two newest BENCH_*.json snapshots (lexicographic name
// order, which the timestamped naming makes chronological), compares
// ns/op for a named set of hot-path benchmarks, and exits non-zero if
// any of them regressed by more than the threshold.
//
// The workflow is snapshot-to-snapshot, not measure-on-the-spot: `make
// bench` writes a new snapshot, and `make benchcheck` (in CI alongside
// `make perfcheck`) validates it against the previously committed one.
// That keeps the gate deterministic — CI never benchmarks a loaded
// shared runner.
//
//	go run ./tools/benchcmp            # compare two newest in .
//	go run ./tools/benchcmp -max 0.10  # tighter gate
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// hotPaths are the benchmarks the performance contract covers: the
// simulator inner loops, scheduler queues, the bound-analysis scaling
// ladder, the served bounds read, and the streaming/sharded harness. Benchmarks absent from the
// older snapshot (newly added) are reported but cannot regress; a hot
// path that disappears from the newer snapshot fails the gate.
var hotPaths = []string{
	"AdmitThroughput",
	"AdmitThroughputScaling/sessions-1000000",
	"AdmitThroughputSharded/shards-1/sessions-10000",
	"AdmitThroughputSharded/shards-1/sessions-1000000",
	"AdmitThroughputSharded/shards-8/sessions-1000000",
	"ClusterAdmit",
	"EpochDelta/sessions-10000",
	"EpochDelta/sessions-131072",
	"EpochDelta/sessions-1000000",
	"FluidSim",
	"NetSim",
	"HierSim",
	"WFQScheduler",
	"WF2QScheduler",
	"AnalyzeScaling/sessions-4",
	"AnalyzeScaling/sessions-16",
	"AnalyzeScaling/sessions-64",
	"AnalyzeScaling/sessions-1024",
	"AnalyzeScaling/sessions-16384",
	"AnalyzeScaling/sessions-131072",
	"BoundsRead/sessions-10000",
	"BoundsRead/sessions-131072",
	"TreeSimSharded",
	"TailInterleaved",
}

type result struct {
	Name    string  `json:"name"`
	NsPerOp float64 `json:"ns_per_op"`
}

type snapshot struct {
	Date       string   `json:"date"`
	Benchmarks []result `json:"benchmarks"`
}

func load(path string) (map[string]float64, string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, "", err
	}
	var snap snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, "", fmt.Errorf("%s: %w", path, err)
	}
	m := make(map[string]float64, len(snap.Benchmarks))
	for _, b := range snap.Benchmarks {
		m[b.Name] = b.NsPerOp
	}
	return m, snap.Date, nil
}

func main() {
	dir := flag.String("dir", ".", "directory holding the BENCH_*.json snapshots")
	max := flag.Float64("max", 0.15, "largest tolerated hot-path slowdown (0.15 = +15% ns/op)")
	list := flag.String("benchmarks", "", "comma-separated hot-path override (default: built-in list)")
	flag.Parse()

	names := hotPaths
	if *list != "" {
		names = strings.Split(*list, ",")
	}
	files, err := filepath.Glob(filepath.Join(*dir, "BENCH_*.json"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp:", err)
		os.Exit(1)
	}
	sort.Strings(files)
	if len(files) < 2 {
		fmt.Printf("benchcmp: %d snapshot(s) in %s, nothing to compare\n", len(files), *dir)
		return
	}
	oldPath, newPath := files[len(files)-2], files[len(files)-1]
	oldNs, _, err := load(oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp:", err)
		os.Exit(1)
	}
	newNs, _, err := load(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp:", err)
		os.Exit(1)
	}

	fmt.Printf("benchcmp: %s -> %s (hot-path gate: +%.0f%% ns/op)\n",
		filepath.Base(oldPath), filepath.Base(newPath), *max*100)
	failed := 0
	for _, name := range names {
		o, inOld := oldNs[name]
		n, inNew := newNs[name]
		switch {
		case !inOld && !inNew:
			continue
		case !inNew:
			fmt.Printf("  FAIL %-34s removed from newest snapshot\n", name)
			failed++
		case !inOld:
			fmt.Printf("  new  %-34s %12.1f ns/op (no baseline)\n", name, n)
		default:
			delta := n/o - 1
			verdict := "ok  "
			if delta > *max {
				verdict = "FAIL"
				failed++
			}
			fmt.Printf("  %s %-34s %12.1f -> %12.1f ns/op (%+.1f%%)\n", verdict, name, o, n, delta*100)
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "benchcmp: %d hot-path benchmark(s) regressed beyond +%.0f%%\n", failed, *max*100)
		os.Exit(1)
	}
	fmt.Println("benchcmp: hot paths within budget")
}
