package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/paper"
)

// workload is one traffic mix: how its stack is set up, what each loop
// iteration sends, and how the stack's output is proven correct after
// the window.
type workload struct {
	name string
	// depth is how many requests client 0 keeps in flight in the
	// end-to-end run (observers and traced runs use 1).
	depth int
	// next draws one iteration's requests for client number client, whose
	// pool holds live ids.
	next func(g *gen, client, live int) step
	exec func(c *client, p phase, s step)
	// setup starts and populates the stack, handing clients their pools.
	setup func(r *runner, cs []*client) (*deployment, error)
	// check proves the stack served correct bounds; it runs after the
	// window, outside its timing.
	check func(r *runner, d *deployment, cs []*client) []checkResult
}

// deployment is one set-up stack.
type deployment struct {
	nodes   []node // every serving node; nodes[len-1] is the front door
	opts    []nodeOpts
	rate    float64
	walDir  string
	topo    string    // cluster-tree: topology file
	journal string    // cluster-tree: coordinator journal
	used    []float64 // cluster-tree: each hop's Σφ before the window
	// ready is when the stack held its whole population, if that was
	// before the set-up returned: a ramp is over when its last admit is
	// answered, and the wait for the next timed publish after it is not
	// set-up work.
	ready time.Time
}

func (d *deployment) front() string { return d.nodes[len(d.nodes)-1].url() }

// checkResult is one output check's verdict.
type checkResult struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// Workload parameters. Populations, mixes and palettes come from the
// in-process benchmarks and tools/gpsdload, which each workload extends
// to the real binary.
const (
	churnPopulation   = 10_000
	shardedPopulation = 50_000
	// stagedPopulation is node-131k's staged set. bench/README.md says
	// why it is not a million.
	stagedPopulation = 1 << 17
	shardedReadShare = 0.9
	loadFactor       = 0.75 // populated Σg over the link rate
)

// The two clients of a node workload have roles. Client 0 drives the
// workload's main mix; client 1 is the observer: it admits, polls the new
// session until its bounds are readable, and releases a session. Bounds
// reads cost tens of milliseconds at these populations, so a single mix
// could not give the decision path, the reads and the visibility wait
// each enough samples in one short window.
const observer = 1

// churnDepth is how many admits and releases node-churn's client 0 keeps
// in flight on its connection; rampDepth the same for set-up ramps.
const (
	churnDepth = 16
	rampDepth  = 64
)

// workloads are the benchmark's workloads, in BENCHMARK.json's order.
var workloads = []*workload{
	{
		name:  "node-churn",
		depth: churnDepth,
		next: func(g *gen, client, live int) step {
			if client == observer {
				return step{typ: g.intn(len(palette4)), release: g.intn(live), read: -1, probe: true, pause: g.pause()}
			}
			return step{typ: g.intn(len(palette4)), release: g.intn(live), read: -1}
		},
		exec: func(c *client, p phase, s step) { c.execNode(p, s, palette4, false) },
		setup: func(r *runner, cs []*client) (*deployment, error) {
			return r.setupRamp(cs, palette4, churnPopulation, 1)
		},
		check: func(r *runner, d *deployment, cs []*client) []checkResult { return r.checkNode(d, cs, false) },
	},
	{
		name:  "node-131k",
		depth: 1,
		next: func(g *gen, client, live int) step {
			return step{typ: g.intn(len(palette1)), release: g.intn(live), read: -1, probe: true, pause: g.pause()}
		},
		exec:  func(c *client, p phase, s step) { c.execNode(p, s, palette1, true) },
		setup: func(r *runner, cs []*client) (*deployment, error) { return r.setupStaged(cs) },
		check: func(r *runner, d *deployment, cs []*client) []checkResult { return r.checkNode(d, cs, false) },
	},
	{
		name:  "node-sharded-read",
		depth: 1,
		next: func(g *gen, client, live int) step {
			// The observer releases the session it just saw published: a
			// random other one would often belong to a shard whose publish
			// is overdue, and the observer's next admit would queue behind
			// the publish its own release triggered.
			if client == observer {
				return step{typ: g.intn(len(palette64)), release: -1, read: -1, probe: true, own: true, pause: g.pause()}
			}
			if g.coin(shardedReadShare) {
				return step{typ: -1, release: -1, read: g.intn(live)}
			}
			return step{typ: g.intn(len(palette64)), release: g.intn(live), read: -1}
		},
		exec: func(c *client, p phase, s step) { c.execNode(p, s, palette64, false) },
		setup: func(r *runner, cs []*client) (*deployment, error) {
			return r.setupRamp(cs, palette64, shardedPopulation, 2)
		},
		check: func(r *runner, d *deployment, cs []*client) []checkResult { return r.checkNode(d, cs, true) },
	},
}

// clusterTree runs only when named: it is not one of BENCHMARK.json's
// workloads. Its two-phase commit is a chain of sub-millisecond round
// trips between five processes on two shared cores, so its numbers
// follow how quickly the host wakes each one, and they did not repeat
// within any bound the benchmark may set (bench/README.md).
var clusterTree = &workload{
	name:  "cluster-tree",
	depth: 1,
	next: func(g *gen, client, live int) step {
		return step{typ: -1, route: g.intn(2), release: -1, read: -1}
	},
	exec:  func(c *client, p phase, s step) { c.execCluster(p, s) },
	setup: func(r *runner, cs []*client) (*deployment, error) { return r.setupCluster(cs) },
	check: func(r *runner, d *deployment, cs []*client) []checkResult { return r.checkCluster(d) },
}

func workloadByName(name string) *workload {
	for _, w := range append(workloads, clusterTree) {
		if w.name == name {
			return w
		}
	}
	return nil
}

// harnessClient is for set-up and checks, never for measured load.
var harnessClient = &http.Client{Timeout: 30 * time.Second}

// getJSON fetches url and decodes a 200 reply into v.
func getJSON(url string, v any) error {
	resp, err := harnessClient.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d: %s", url, resp.StatusCode, bytes.TrimSpace(body))
	}
	return json.Unmarshal(body, v)
}

type health struct {
	Sessions int     `json:"sessions"`
	Used     float64 `json:"used"`
}

// waitSessions polls /healthz until the published epoch holds want
// sessions (any count when want < 0).
func waitSessions(url string, want int, timeout time.Duration) (health, error) {
	deadline := time.Now().Add(timeout)
	var h health
	var err error
	for {
		h = health{}
		err = getJSON(url+"/healthz", &h)
		if err == nil && (want < 0 || h.Sessions == want) {
			return h, nil
		}
		if time.Now().After(deadline) {
			if err == nil {
				err = fmt.Errorf("%d sessions published, want %d", h.Sessions, want)
			}
			return h, fmt.Errorf("%s not ready after %v: %w", url, timeout, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// drawTypes draws each client's ramp: per-client palette indexes from
// the client's own stream.
func drawTypes(cs []*client, pal []sessionType, population int) [][]int {
	out := make([][]int, len(cs))
	for i, c := range cs {
		n := population / len(cs)
		if i < population%len(cs) {
			n++
		}
		out[i] = make([]int, n)
		for k := range out[i] {
			out[i][k] = c.gen.intn(len(pal))
		}
	}
	return out
}

// loadRate is the link rate that puts Σg of the given types at
// loadFactor of it.
func loadRate(pal []sessionType, types [][]int) (float64, error) {
	gs, err := typeRates(pal)
	if err != nil {
		return 0, err
	}
	sum := 0.0
	for _, ts := range types {
		for _, k := range ts {
			sum += gs[k]
		}
	}
	return sum / loadFactor, nil
}

// setupRamp boots one node and ramps its population over HTTP, each
// client admitting its own share rampDepth admits at a time.
func (r *runner) setupRamp(cs []*client, pal []sessionType, population, shards int) (*deployment, error) {
	population = r.pop(population)
	types := drawTypes(cs, pal, population)
	rate, err := loadRate(pal, types)
	if err != nil {
		return nil, err
	}
	o := nodeOpts{name: "gpsd", shards: shards, rate: rate, walDir: r.freshDir("wal")}
	n, err := r.be.startNode(o)
	if err != nil {
		return nil, err
	}
	d := &deployment{nodes: []node{n}, opts: []nodeOpts{o}, rate: rate, walDir: o.walDir}
	if _, err := waitSessions(n.url(), 0, time.Minute); err != nil {
		return d, err
	}
	var wg sync.WaitGroup
	errs := make([]error, len(cs))
	for i, c := range cs {
		c.base = n.url()
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			depth := c.conn.depth
			c.conn.depth = rampDepth
			for _, k := range types[i] {
				c.admitThen(phaseWarm, pal[k], func(id uint64, _ int64, err error) {
					if err == nil {
						c.pool = append(c.pool, id)
					}
				})
			}
			c.wait()
			c.conn.depth = depth
			if len(c.pool) != len(types[i]) {
				errs[i] = fmt.Errorf("ramp: %v", c.recs[phaseWarm].failures)
			}
		}(i, c)
	}
	wg.Wait()
	d.ready = time.Now()
	for _, err := range errs {
		if err != nil {
			return d, err
		}
	}
	_, err = waitSessions(n.url(), population, time.Minute)
	return d, err
}

// setupStaged writes node-131k's population as a WAL snapshot and boots
// gpsd on it.
func (r *runner) setupStaged(cs []*client) (*deployment, error) {
	population := r.pop(stagedPopulation)
	gs, err := typeRates(palette1)
	if err != nil {
		return nil, err
	}
	st := stageState(palette1, gs, make([]int, population))
	rate := st.Used / loadFactor
	dir := r.freshDir("wal")
	if err := stageWAL(dir, st); err != nil {
		return nil, err
	}
	o := nodeOpts{name: "gpsd", shards: 1, rate: rate, walDir: dir}
	n, err := r.be.startNode(o)
	if err != nil {
		return nil, err
	}
	d := &deployment{nodes: []node{n}, opts: []nodeOpts{o}, rate: rate, walDir: dir}
	// Staged ids are 1..N; client k owns those with (id-1) mod clients = k.
	for i, c := range cs {
		c.base = n.url()
		c.pool = make([]uint64, 0, population/len(cs)+1)
		for id := uint64(i + 1); id <= uint64(population); id += uint64(len(cs)) {
			c.pool = append(c.pool, id)
		}
	}
	_, err = waitSessions(n.url(), population, 2*time.Minute)
	return d, err
}

// setupCluster boots the §6.3 tree — three WAL-backed hop daemons and a
// journaling coordinator — and stages the four Table 2 sessions through
// the coordinator, as BenchmarkClusterAdmit does in process.
func (r *runner) setupCluster(cs []*client) (*deployment, error) {
	d := &deployment{}
	topo := cluster.Topology{}
	for m := 0; m < 3; m++ {
		o := nodeOpts{name: fmt.Sprintf("hop%d", m+1), shards: 1, rate: 1, walDir: r.freshDir(fmt.Sprintf("hop%d", m+1))}
		n, err := r.be.startNode(o)
		if err != nil {
			return d, err
		}
		d.nodes = append(d.nodes, n)
		d.opts = append(d.opts, o)
		topo.Nodes = append(topo.Nodes, cluster.HopNode{Name: fmt.Sprintf("node%d", m+1), URL: n.url(), Rate: 1})
	}
	for _, n := range d.nodes {
		if _, err := waitSessions(n.url(), 0, time.Minute); err != nil {
			return d, err
		}
	}
	d.topo = filepath.Join(r.freshDir("topology"), "tree63.json")
	b, err := json.Marshal(topo)
	if err != nil {
		return d, err
	}
	if err := os.WriteFile(d.topo, b, 0o644); err != nil {
		return d, err
	}
	d.journal = r.freshDir("coord")
	coord, err := r.be.startCoord("coord", d.topo, d.journal)
	if err != nil {
		return d, err
	}
	d.nodes = append(d.nodes, coord)
	if _, err := waitSessions(coord.url(), 0, time.Minute); err != nil {
		return d, err
	}
	set, err := paper.Table2(paper.Set1Rho)
	if err != nil {
		return d, err
	}
	for i, a := range set {
		route := []int{0, 2}
		if i >= 2 {
			route = []int{1, 2}
		}
		body, _ := json.Marshal(map[string]any{
			"name": paper.SessionNames[i], "rho": a.Rho, "lambda": a.Lambda, "alpha": a.Alpha,
			"delay": 200, "eps": 1e-3, "route": route,
		})
		resp, err := harnessClient.Post(coord.url()+"/v1/cluster/admit", "application/json", bytes.NewReader(body))
		if err != nil {
			return d, fmt.Errorf("staging %s: %w", paper.SessionNames[i], err)
		}
		out, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var rep struct {
			Admitted bool `json:"admitted"`
		}
		if resp.StatusCode != http.StatusOK || json.Unmarshal(out, &rep) != nil || !rep.Admitted {
			return d, fmt.Errorf("staging %s: HTTP %d: %s", paper.SessionNames[i], resp.StatusCode, bytes.TrimSpace(out))
		}
	}
	for m, want := range []int{2, 2, 4} {
		h, err := waitSessions(d.nodes[m].url(), want, time.Minute)
		if err != nil {
			return d, err
		}
		d.used = append(d.used, h.Used)
	}
	for _, c := range cs {
		c.base = coord.url()
		c.route = [][]int{{0, 2}, {1, 2}}
	}
	return d, nil
}

// runWalcheck runs tools/walcheck with args and reports whether it
// exited 0, with its last output line.
func (r *runner) runWalcheck(name string, timeout time.Duration, args ...string) checkResult {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, r.walcheck, args...)
	out, err := cmd.CombinedOutput()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	last := lines[len(lines)-1]
	if err != nil {
		if ctx.Err() != nil {
			return checkResult{Name: name, Detail: fmt.Sprintf("timed out after %v", timeout)}
		}
		return checkResult{Name: name, Detail: fmt.Sprintf("%v: %s", err, last)}
	}
	return checkResult{Name: name, OK: true, Detail: last}
}

// walcheckBudget bounds one walcheck run: past it, a big population
// falls back to the sampled check.
const walcheckBudget = 15 * time.Second

// checkNode proves a node served correct bounds: the published session
// set is exactly the clients' live set, and walcheck finds the live
// daemon bit-identical to an offline fold of its WAL. A sharded node is
// restarted first — walcheck re-derives per-shard capacities from the
// boot split, which ledger refills during the window have moved on from.
func (r *runner) checkNode(d *deployment, cs []*client, restart bool) []checkResult {
	want := map[uint64]bool{}
	for _, c := range cs {
		for _, id := range c.pool {
			want[id] = true
		}
		for _, id := range c.fresh {
			want[id] = true
		}
	}
	var out []checkResult
	url := d.front()
	// The clients' last admits and releases may still wait for the next
	// timed publish, and a session count cannot tell: every step that
	// admits also releases. So wait for the published set itself.
	set := checkSet(url, want)
	for deadline := time.Now().Add(10 * time.Second); !set.OK && time.Now().Before(deadline); {
		time.Sleep(50 * time.Millisecond)
		set = checkSet(url, want)
	}
	out = append(out, set)
	if restart {
		if err := d.nodes[0].stop(); err != nil {
			return append(out, checkResult{Name: "restart", Detail: err.Error()})
		}
		n, err := r.be.startNode(d.opts[0])
		if err != nil {
			return append(out, checkResult{Name: "restart", Detail: err.Error()})
		}
		d.nodes[0] = n
		url = n.url()
		if _, err := waitSessions(url, len(want), 2*time.Minute); err != nil {
			return append(out, checkResult{Name: "restart", Detail: err.Error()})
		}
		out = append(out, checkResult{Name: "restart", OK: true})
	}
	wc := r.runWalcheck("walcheck", walcheckBudget, "-wal-dir", d.walDir, "-rate", fmtFloat(d.rate), "-url", url)
	if wc.OK || !strings.HasPrefix(wc.Detail, "timed out") {
		return append(out, wc)
	}
	// Too big to fold and analyze within budget: sample served bounds.
	out = append(out, checkResult{Name: "walcheck", OK: true, Detail: "skipped: " + wc.Detail})
	return append(out, checkSampledBounds(url, want))
}

// checkSet compares the published partition's id set with want.
func checkSet(url string, want map[uint64]bool) checkResult {
	var part struct {
		Sessions int        `json:"sessions"`
		Classes  [][]string `json:"classes"`
	}
	if err := getJSON(url+"/v1/partition", &part); err != nil {
		return checkResult{Name: "population", Detail: err.Error()}
	}
	n := 0
	for _, class := range part.Classes {
		for _, s := range class {
			id, err := strconv.ParseUint(s, 10, 64)
			if err != nil || !want[id] {
				return checkResult{Name: "population", Detail: fmt.Sprintf("served id %q is not live on the client side", s)}
			}
			n++
		}
	}
	if n != len(want) || part.Sessions != len(want) {
		return checkResult{Name: "population", Detail: fmt.Sprintf("served %d ids (%d sessions), clients hold %d", n, part.Sessions, len(want))}
	}
	return checkResult{Name: "population", OK: true, Detail: fmt.Sprintf("%d sessions", n)}
}

// checkSampledBounds reads 64 evenly spaced live ids' bounds and
// requires each to meet its declared target.
func checkSampledBounds(url string, want map[uint64]bool) checkResult {
	ids := make([]uint64, 0, len(want))
	for id := range want {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	step := max(len(ids)/64, 1)
	for i := 0; i < len(ids); i += step {
		var b struct {
			MeetsTarget bool `json:"meets_target"`
		}
		if err := getJSON(fmt.Sprintf("%s/v1/bounds/%d", url, ids[i]), &b); err != nil || !b.MeetsTarget {
			return checkResult{Name: "sampled-bounds", Detail: fmt.Sprintf("session %d: meets_target=%v err=%v", ids[i], b.MeetsTarget, err)}
		}
	}
	return checkResult{Name: "sampled-bounds", OK: true}
}

// checkCluster proves the cluster settled: the coordinator holds exactly
// the staged sessions, no hop strands capacity (Σφ bit-identical to its
// pre-window value), and walcheck verifies the live coordinator against
// an offline fold of its journal.
func (r *runner) checkCluster(d *deployment) []checkResult {
	var out []checkResult
	coord := d.front()
	if _, err := waitSessions(coord, 4, time.Minute); err != nil {
		out = append(out, checkResult{Name: "coordinator-sessions", Detail: err.Error()})
	} else {
		out = append(out, checkResult{Name: "coordinator-sessions", OK: true, Detail: "4 sessions"})
	}
	for m, want := range []int{2, 2, 4} {
		name := fmt.Sprintf("hop%d-capacity", m+1)
		h, err := waitSessions(d.nodes[m].url(), want, time.Minute)
		switch {
		case err != nil:
			out = append(out, checkResult{Name: name, Detail: err.Error()})
		case math.Float64bits(h.Used) != math.Float64bits(d.used[m]):
			out = append(out, checkResult{Name: name, Detail: fmt.Sprintf("Σφ %v (bits %#x), before the window %v (bits %#x)",
				h.Used, math.Float64bits(h.Used), d.used[m], math.Float64bits(d.used[m]))})
		default:
			out = append(out, checkResult{Name: name, OK: true, Detail: fmt.Sprintf("Σφ bits %#x", math.Float64bits(h.Used))})
		}
	}
	return append(out, r.runWalcheck("walcheck", walcheckBudget, "-wal-dir", d.journal, "-topology", d.topo, "-url", coord))
}
