// Command benchjson converts `go test -bench` output on stdin into the
// BENCH_<date>.json snapshot format committed by `make bench` and
// documented in EXPERIMENTS.md. It keeps only the benchmark result
// lines; everything else (the printed reproduction tables, PASS/ok
// trailers) passes through to stderr so the run stays readable.
//
// Repeated samples of the same benchmark (from `go test -count N`)
// collapse to the fastest one: background load on a shared machine
// only ever inflates ns/op, so the per-name minimum is the stable
// noise floor that makes two snapshots comparable. The kept sample
// carries every custom unit its benchmark reported with b.ReportMetric
// (ms/epoch, decisions/s, ...).
//
// Two snapshots are comparable only when they come from the same host,
// so each records a host fingerprint: the `cpu:` line go test prints,
// GOMAXPROCS and NumCPU. benchjson runs in the same environment as the
// go test it reads, so its own GOMAXPROCS is the benchmarks'.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

type result struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  *int64             `json:"bytes_per_op,omitempty"`
	AllocsPerOp *int64             `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// host is the fingerprint benchcmp matches snapshots on.
type host struct {
	CPU        string `json:"cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
}

type snapshot struct {
	Date       string   `json:"date"`
	GoVersion  string   `json:"go_version"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	Host       host     `json:"host"`
	Benchmarks []result `json:"benchmarks"`
}

func main() {
	snap := snapshot{
		Date:      time.Now().UTC().Format("2006-01-02"),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Host:      host{GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU()},
	}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	index := make(map[string]int)
	for sc.Scan() {
		line := sc.Text()
		if cpu, ok := strings.CutPrefix(line, "cpu: "); ok {
			snap.Host.CPU = strings.TrimSpace(cpu)
		}
		r, ok := parse(line)
		if !ok {
			fmt.Fprintln(os.Stderr, line)
			continue
		}
		if at, dup := index[r.Name]; dup {
			if r.NsPerOp < snap.Benchmarks[at].NsPerOp {
				snap.Benchmarks[at] = r
			}
			continue
		}
		index[r.Name] = len(snap.Benchmarks)
		snap.Benchmarks = append(snap.Benchmarks, r)
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(snap.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(snap); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// parse recognizes one benchmark result line, e.g.
//
//	BenchmarkFluidSim-8   12291073   194.8 ns/op   16 B/op   2 allocs/op
func parse(line string) (result, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
		return result{}, false
	}
	name := strings.TrimPrefix(f[0], "Benchmark")
	// Strip the trailing -GOMAXPROCS suffix so snapshots diff cleanly
	// across machines. The testing package only appends it when
	// GOMAXPROCS > 1, and matching the exact value avoids eating numeric
	// sub-benchmark suffixes like sessions-64.
	if procs := runtime.GOMAXPROCS(0); procs > 1 {
		if suffix := "-" + strconv.Itoa(procs); strings.HasSuffix(name, suffix) {
			name = strings.TrimSuffix(name, suffix)
		}
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return result{}, false
	}
	r := result{Name: name, Iterations: iters}
	seen := false
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return result{}, false
		}
		switch f[i+1] {
		case "ns/op":
			r.NsPerOp = v
			seen = true
		case "B/op":
			b := int64(v)
			r.BytesPerOp = &b
		case "allocs/op":
			a := int64(v)
			r.AllocsPerOp = &a
		default:
			if r.Metrics == nil {
				r.Metrics = make(map[string]float64)
			}
			r.Metrics[f[i+1]] = v
		}
	}
	return r, seen
}
