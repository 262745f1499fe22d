// Command benchcmp guards the hot paths against performance regressions:
// it loads the newest BENCH_*.json snapshot (lexicographic name order,
// which the timestamped naming makes chronological) and the newest
// older one with the same host fingerprint, compares ns/op for a named
// set of hot-path benchmarks, and exits non-zero if any of them
// regressed by more than the threshold.
//
// Only a same-host pair is comparable: a different CPU model, core
// count or GOMAXPROCS moves ns/op by more than the threshold with no
// code change (a GOMAXPROCS=1 host even takes different code paths).
// A snapshot without a fingerprint is never a baseline, and with no
// same-host baseline the gate fails and says why; it never passes by
// default.
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
// ladder, the served bounds read, and the streaming/sharded harness.
// Every one must be in the newest snapshot, whatever the baseline holds,
// so a snapshot of a filtered run (`make bench-ab BENCH=...`) fails the
// gate instead of gating half the contract. Benchmarks absent from the
// older snapshot (newly added) are reported but cannot regress.
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
	"EpochBatch/palette4/sessions-10000/ops-1800",
	"EpochBatch/palette64/sessions-25000/ops-17",
	"EpochBatch/palette1/sessions-131072/ops-3",
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

// host is the fingerprint tools/benchjson records; a zero field means
// the snapshot predates it.
type host struct {
	CPU        string `json:"cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
}

func (h host) valid() bool { return h.CPU != "" && h.GOMAXPROCS > 0 && h.NumCPU > 0 }

type snapshot struct {
	Host       host     `json:"host"`
	Benchmarks []result `json:"benchmarks"`
}

func load(path string) (host, map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return host{}, nil, err
	}
	var snap snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return host{}, nil, fmt.Errorf("%s: %w", path, err)
	}
	m := make(map[string]float64, len(snap.Benchmarks))
	for _, b := range snap.Benchmarks {
		m[b.Name] = b.NsPerOp
	}
	return snap.Host, m, nil
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchcmp: "+format+"\n", args...)
	os.Exit(1)
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
		fail("%v", err)
	}
	sort.Strings(files)
	if len(files) == 0 {
		fail("no BENCH_*.json snapshot in %s", *dir)
	}
	newPath := files[len(files)-1]
	newHost, newNs, err := load(newPath)
	if err != nil {
		fail("%v", err)
	}
	if !newHost.valid() {
		fail("newest snapshot %s has no host fingerprint; regenerate it with `make bench`", filepath.Base(newPath))
	}
	var oldPath string
	var oldNs map[string]float64
	for i := len(files) - 2; i >= 0 && oldPath == ""; i-- {
		h, ns, err := load(files[i])
		if err != nil {
			fail("%v", err)
		}
		if h == newHost {
			oldPath, oldNs = files[i], ns
		}
	}
	if oldPath == "" {
		fail("no older snapshot from the host of %s (cpu %q, GOMAXPROCS %d, NumCPU %d) to gate against; "+
			"run `make bench` at the base commit on this host first", filepath.Base(newPath), newHost.CPU, newHost.GOMAXPROCS, newHost.NumCPU)
	}

	fmt.Printf("benchcmp: %s -> %s (same host: cpu %q, GOMAXPROCS %d, NumCPU %d; hot-path gate: +%.0f%% ns/op)\n",
		filepath.Base(oldPath), filepath.Base(newPath), newHost.CPU, newHost.GOMAXPROCS, newHost.NumCPU, *max*100)
	failed := 0
	for _, name := range names {
		o, inOld := oldNs[name]
		n, inNew := newNs[name]
		switch {
		case !inNew:
			fmt.Printf("  FAIL %-44s missing from newest snapshot\n", name)
			failed++
		case !inOld:
			fmt.Printf("  new  %-44s %12.1f ns/op (no baseline)\n", name, n)
		default:
			delta := n/o - 1
			verdict := "ok  "
			if delta > *max {
				verdict = "FAIL"
				failed++
			}
			fmt.Printf("  %s %-44s %12.1f -> %12.1f ns/op (%+.1f%%)\n", verdict, name, o, n, delta*100)
		}
	}
	if failed > 0 {
		fail("%d hot-path benchmark(s) missing or regressed beyond +%.0f%%", failed, *max*100)
	}
	fmt.Println("benchcmp: hot paths within budget")
}
