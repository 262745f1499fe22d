// Command gpsdbench is gpsd's end-to-end and per-layer benchmark: a
// single-process, closed-loop load generator that drives real gpsd
// processes over loopback HTTP and proves, after every window, that
// they served correct bounds.
//
//	go -C bench run ./gpsdbench -seed 1                    # every workload, end-to-end metrics
//	go -C bench run ./gpsdbench -workload node-churn -seed 1
//	go -C bench run ./gpsdbench -trace 1 -seed 1           # per-layer metrics, in process
//	go -C bench run ./gpsdbench -compare a.json b.json     # two runs against the bounds
//
// The end-to-end run builds ./cmd/gpsd and ./tools/walcheck from the
// repository, starts gpsd with flags only, and measures what a client
// sees. The traced run (-trace 1) builds the same stacks in process from
// the layers' constructors, wraps each layer boundary, and reports where
// the time goes. Both print one "workload metric value unit n=samples"
// line per metric, write results.json (and trace.jsonl when traced) to
// the work directory, print a one-line JSON summary last, and exit
// nonzero when an output check fails. bench/README.md documents the
// workloads, metrics and caveats.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// The load model. clients is one closed-loop goroutine per connection,
// pinned to the 2 cores of the machines the baselines were measured on
// rather than read from the host. setup_s is the median of setups
// set-ups, of which the last is measured, after warmup.
const (
	clients = 2
	setups  = 5
	warmup  = 2 * time.Second
)

// metricDef names one reported metric.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a client of gpsd sees, reported by every
// workload of the end-to-end run. BENCHMARK.json fixes their bounds.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"decisions_per_s", "1/s", "higher"},
	{"bounds_ms.p50", "ms", "lower"},
	{"server_cpu_us_per_op", "us", "lower"},
}

// metric is one measured value. Subs are the per-sub-window (or, for
// setup_s, per-set-up) values its within-run spread is taken over.
type metric struct {
	Value     float64   `json:"value"`
	Unit      string    `json:"unit"`
	N         int       `json:"n"`
	Supported bool      `json:"supported"`
	Spread    float64   `json:"spread"`
	Subs      []float64 `json:"subs,omitempty"`
}

// result is one workload's outcome.
type result struct {
	Workload  string             `json:"workload"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Checks    []checkResult      `json:"checks"`
	Digest    string             `json:"op_stream_digest"`
	Metrics   map[string]*metric `json:"metrics"`
	// Extra carries values outside the gated set: latency tails, the
	// mean visibility delay, counts, the host's steal share, and in a
	// traced run the client-side numbers and per-workload layer metrics.
	Extra map[string]*metric `json:"extra,omitempty"`
}

// report is results.json.
type report struct {
	Seed      uint64    `json:"seed"`
	Trace     bool      `json:"trace"`
	WindowS   float64   `json:"window_s"`
	WarmupS   float64   `json:"warmup_s"`
	Setups    int       `json:"setups"`
	Clients   int       `json:"clients"`
	Host      hostInfo  `json:"host"`
	Started   string    `json:"started"`
	Workloads []*result `json:"workloads"`
}

type hostInfo struct {
	CPUs      int    `json:"cpus"`
	GoVersion string `json:"go"`
	WALDir    string `json:"wal_dir"`
	Network   string `json:"network"`
}

func main() {
	only := flag.String("workload", "all", "workload to run, or all of BENCHMARK.json's")
	seed := flag.Uint64("seed", 1, "seed every generated request derives from")
	seconds := flag.Float64("seconds", 30, "measured window per workload, in seconds (BENCHMARK.json: run_seconds)")
	trace := flag.Int("trace", 0, "1 runs the traced, in-process stacks and reports per-layer metrics")
	work := flag.String("work", "", "work directory for binaries, WALs, logs and results (default <repo>/.bench_build/gpsdbench)")
	compare := flag.Bool("compare", false, "compare two results.json files given as arguments against BENCHMARK.json's bounds")
	flag.Parse()

	root, err := repoRoot()
	if err != nil {
		fatalf("%v", err)
	}
	if *compare {
		if flag.NArg() != 2 {
			fatalf("-compare takes two results.json paths")
		}
		os.Exit(compareMain(root, flag.Arg(0), flag.Arg(1)))
	}
	if !(*seconds > 0) {
		fatalf("-seconds %v, want > 0", *seconds)
	}
	window := time.Duration(*seconds * float64(time.Second))
	if *trace != 0 && *trace != 1 {
		fatalf("-trace %d, want 0 or 1", *trace)
	}
	var run []*workload
	if *only == "all" {
		run = workloads
	} else if w := workloadByName(*only); w != nil {
		run = []*workload{w}
	} else {
		fatalf("unknown workload %q", *only)
	}
	if *work == "" {
		*work = filepath.Join(root, ".bench_build", "gpsdbench")
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fatalf("%v", err)
	}

	bin := filepath.Join(*work, "bin")
	fmt.Fprintf(os.Stderr, "gpsdbench: building gpsd and walcheck into %s\n", bin)
	if err := buildBinaries(root, bin); err != nil {
		fatalf("%v", err)
	}

	rep := &report{
		Seed: *seed, Trace: *trace == 1, WindowS: window.Seconds(), WarmupS: warmup.Seconds(),
		Setups: setups, Clients: clients, Started: time.Now().UTC().Format(time.RFC3339),
		Host: hostInfo{CPUs: runtime.NumCPU(), GoVersion: runtime.Version(),
			WALDir: "under the work directory (" + fsType(*work) + ")", Network: "loopback"},
	}
	fmt.Printf("gpsdbench: seed %d, %d clients closed loop, warm-up %v, window %v, %d set-ups; WAL %s; traffic over loopback\n",
		*seed, clients, warmup, window, setups, rep.Host.WALDir)

	// Interrupted runs still stop every daemon they started.
	stopping := make(chan os.Signal, 1)
	signal.Notify(stopping, syscall.SIGINT, syscall.SIGTERM)
	var interrupted atomic.Bool
	go func() {
		<-stopping
		interrupted.Store(true)
		fmt.Fprintln(os.Stderr, "gpsdbench: interrupted; stopping after the current workload")
	}()

	exit := 0
	for _, w := range run {
		if interrupted.Load() {
			exit = 1
			break
		}
		r := &runner{
			root: root, work: filepath.Join(*work, "run", w.name), seed: *seed,
			window: window, warmup: warmup, setups: setups, traced: *trace == 1,
			gpsd: filepath.Join(bin, "gpsd"), walcheck: filepath.Join(bin, "walcheck"),
		}
		res, err := r.run(w)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gpsdbench: %s: %v\n", w.name, err)
			exit = 1
			continue
		}
		printResult(res, r.traced)
		rep.Workloads = append(rep.Workloads, res)
		if !res.Correct {
			exit = 1
		}
	}
	if len(rep.Workloads) == 0 {
		os.Exit(1)
	}
	name := "results.json"
	if rep.Trace {
		name = "results-traced.json"
	}
	if b, err := json.MarshalIndent(rep, "", "  "); err != nil {
		fatalf("%v", err)
	} else if err := os.WriteFile(filepath.Join(*work, name), append(b, '\n'), 0o644); err != nil {
		fatalf("%v", err)
	}
	fmt.Fprintf(os.Stderr, "gpsdbench: wrote %s\n", filepath.Join(*work, name))
	printSummary(rep)
	os.Exit(exit)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "gpsdbench: "+format+"\n", args...)
	os.Exit(2)
}

// repoRoot walks up from the working directory to the module that holds
// cmd/gpsd.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "gpsd", "main.go")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no repository with cmd/gpsd above the working directory")
		}
		dir = parent
	}
}

// buildBinaries compiles gpsd and walcheck from the repository source.
func buildBinaries(root, bin string) error {
	for _, pkg := range []string{"./cmd/gpsd", "./tools/walcheck"} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(bin, filepath.Base(pkg)), pkg)
		cmd.Dir = root
		if out, err := cmd.CombinedOutput(); err != nil {
			return fmt.Errorf("building %s: %v\n%s", pkg, err, out)
		}
	}
	return nil
}

// fsType names the filesystem holding dir, for the report.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown filesystem"
	}
	switch st.Type {
	case 0x01021994:
		return "tmpfs"
	case 0xef53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	case 0x794c7630:
		return "overlayfs"
	}
	return fmt.Sprintf("filesystem type %#x", st.Type)
}

// printResult prints one line per metric: workload, name, value, unit
// and sample count.
func printResult(res *result, traced bool) {
	names := make([]string, 0, len(res.Metrics))
	if traced {
		for _, d := range perLayer {
			names = append(names, d.name)
		}
	} else {
		for _, d := range endToEnd {
			names = append(names, d.name)
		}
	}
	line := func(name string, m *metric) {
		note := ""
		if !m.Supported {
			note = " (below the tail rule: fewer than 10 samples beyond)"
		}
		fmt.Printf("%s %s %.6g %s n=%d%s\n", res.Workload, name, m.Value, m.Unit, m.N, note)
	}
	for _, name := range names {
		if m, ok := res.Metrics[name]; ok {
			line(name, m)
		}
	}
	extra := make([]string, 0, len(res.Extra))
	for name := range res.Extra {
		extra = append(extra, name)
	}
	sort.Strings(extra)
	for _, name := range extra {
		line(name, res.Extra[name])
	}
	for _, c := range res.Checks {
		verdict := "ok"
		if !c.OK {
			verdict = "FAILED"
		}
		fmt.Printf("%s check %s %s %s\n", res.Workload, c.Name, verdict, c.Detail)
	}
	for _, f := range res.Failures {
		fmt.Printf("%s failure %s\n", res.Workload, f)
	}
	fmt.Printf("%s attempted %d failed %d failed_ratio %.6g op-stream %s\n",
		res.Workload, res.Attempted, res.Failed, float64(res.Failed)/math.Max(float64(res.Attempted), 1), res.Digest)
}

// printSummary prints the machine-readable last line: correctness, op
// counts and every metric. With several workloads, metric names carry
// the workload as a prefix.
func printSummary(rep *report) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	for _, res := range rep.Workloads {
		out.Correct = out.Correct && res.Correct
		out.Attempted += res.Attempted
		out.Failed += res.Failed
		for name, m := range res.Metrics {
			if len(rep.Workloads) > 1 {
				name = res.Workload + "/" + name
			}
			out.Metrics[name] = value{m.Value, m.Unit}
		}
	}
	b, _ := json.Marshal(out)
	fmt.Println(strings.TrimSpace(string(b)))
}
