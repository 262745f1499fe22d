package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync/atomic"
	"time"
)

// subWindows is how many equal parts a window is cut into for the
// per-part values a metric's within-run spread is taken over.
const subWindows = 10

// traceSlice is how long spans stay on, then off, in a traced window.
const traceSlice = 250 * time.Millisecond

// runner runs one workload.
type runner struct {
	root, work     string
	seed           uint64
	window, warmup time.Duration
	setups         int
	traced         bool
	gpsd, walcheck string
	// population, when positive, caps every workload's session count
	// (the smoke test runs the workloads small).
	population int

	be  backend
	dir string // the current set-up's directory
	clk *clock
	tr  *tracer
}

// pop returns a workload's population under the runner's cap.
func (r *runner) pop(n int) int {
	if r.population > 0 && r.population < n {
		return r.population
	}
	return n
}

// freshDir returns a new empty directory inside the current set-up's.
func (r *runner) freshDir(name string) string {
	d := filepath.Join(r.dir, name)
	_ = os.RemoveAll(d)
	_ = os.MkdirAll(d, 0o755)
	return d
}

// stopAll stops every node, front door first.
func (d *deployment) stopAll() error {
	var first error
	for i := len(d.nodes) - 1; i >= 0; i-- {
		if err := d.nodes[i].stop(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (d *deployment) killAll() {
	for i := len(d.nodes) - 1; i >= 0; i-- {
		d.nodes[i].kill()
	}
}

// resources reports what a serving process used: its CPU time, and its
// resident set now and at its high-water mark.
type resources interface {
	cpuNanos() (int64, error)
	memBytes() (rss, peak int64, err error)
}

// usage is the stack's summed resource use.
type usage struct{ cpu, rss, peak int64 }

func (d *deployment) usage() (usage, error) {
	var u usage
	for _, n := range d.nodes {
		p, ok := n.(resources)
		if !ok {
			continue
		}
		c, err := p.cpuNanos()
		if err != nil {
			return u, err
		}
		rss, peak, err := p.memBytes()
		if err != nil {
			return u, err
		}
		u.cpu += c
		u.rss += rss
		u.peak += peak
	}
	return u, nil
}

// run sets the workload's stack up setups times (the last one stays),
// warms it up, measures one window, checks the outputs and tears down.
func (r *runner) run(w *workload) (*result, error) {
	if err := os.RemoveAll(r.work); err != nil {
		return nil, err
	}
	r.clk = &clock{base: time.Now()}
	var watch *epochWatch
	if r.traced {
		r.tr = newTracer(r.clk)
	}
	defer func() {
		if watch != nil {
			watch.close()
		}
	}()
	// The end-to-end run times the host's pace from the first set-up to
	// the end of the window; spans time the traced run's layers instead.
	var pc *pace
	if !r.traced {
		pc = startPace(r.clk)
		defer func() { _ = pc.finish() }() // past the window, a no-op; before it, the run has failed
	}
	ctl := new(atomic.Int32)
	var d *deployment
	var cs []*client
	var setups []setupTime
	for rep := 0; rep < r.setups; rep++ {
		if d != nil {
			d.killAll()
		}
		r.dir = filepath.Join(r.work, "setup-"+strconv.Itoa(rep))
		if err := os.MkdirAll(r.dir, 0o755); err != nil {
			return nil, err
		}
		if r.traced {
			if watch != nil {
				watch.close()
			}
			watch = newEpochWatch(r.clk, r.tr)
			r.be = &inprocBackend{tr: r.tr, watch: watch}
		} else {
			r.be = &procBackend{gpsd: r.gpsd, dir: r.dir}
		}
		cs = make([]*client, clients)
		for i := range cs {
			cs[i] = newClient(i, "", r.seed, r.clk, ctl, r.tr)
		}
		ticks0, stolen0, err := cpuTimes()
		if err != nil {
			return nil, err
		}
		start := time.Now()
		d, err = w.setup(r, cs)
		end := time.Now()
		var ticks1, stolen1 int64
		if err == nil {
			ticks1, stolen1, err = cpuTimes()
		}
		if err != nil {
			if d != nil {
				d.killAll()
			}
			return nil, fmt.Errorf("set-up %d: %w", rep+1, err)
		}
		if !d.ready.IsZero() {
			end = d.ready
		}
		setups = append(setups, setupTime{
			from: int64(start.Sub(r.clk.base)), to: int64(end.Sub(r.clk.base)),
			steal: ratio(float64(stolen1-stolen0), float64(ticks1-ticks0)),
		})
	}
	defer func() {
		for _, c := range cs {
			c.close()
		}
	}()
	if !r.traced {
		// Spans need a request's client time to be its own; the traced run
		// keeps every client in lock step.
		cs[0].conn.depth = w.depth
	}

	// Warm-up, then the window.
	done := make(chan struct{})
	go func() {
		defer close(done)
		runClients(cs, func(c *client, p phase) { w.exec(c, p, w.next(c.gen, c.id, len(c.pool))) })
	}()
	time.Sleep(r.warmup)
	var m windowMeter
	var before, after counters
	if r.traced {
		watch.setRecording(true)
		before = watch.counters()
	}
	m.start(r.clk, d)
	ctl.Store(int32(phaseA))
	if r.traced {
		// Spans alternate off (phase A) and on (phase B) in short slices,
		// so the slow drift of a shared machine cancels out of the
		// comparison that measures the tracing overhead.
		for i := 0; i < int(r.window/traceSlice); i++ {
			time.Sleep(traceSlice)
			if i%2 == 0 {
				ctl.Store(int32(phaseB))
				r.tr.on.Store(true)
			} else {
				r.tr.on.Store(false)
				ctl.Store(int32(phaseA))
			}
		}
		r.tr.on.Store(false)
		after = watch.counters()
		watch.setRecording(false)
	} else {
		time.Sleep(r.window)
	}
	ctl.Store(int32(phaseStop))
	m.finish()
	<-done
	speed := hostSpeed{setup: 1, window: 1}
	var speedErr error
	if pc != nil {
		speed, speedErr = measureSpeed(pc, setups, &m)
	}

	res := &result{Workload: w.name, Metrics: map[string]*metric{}, Extra: map[string]*metric{}}
	res.Checks = w.check(r, d, cs)
	if err := d.stopAll(); err != nil {
		res.Checks = append(res.Checks, checkResult{Name: "drain", Detail: err.Error()})
	} else {
		res.Checks = append(res.Checks, checkResult{Name: "drain", OK: true})
	}
	if m.err != nil {
		res.Checks = append(res.Checks, checkResult{Name: "resource-usage", Detail: m.err.Error()})
	}
	if speedErr != nil {
		res.Checks = append(res.Checks, checkResult{Name: "pace", Detail: speedErr.Error()})
	}
	res.Digest = opDigest(cs)
	r.fillResult(res, cs, setups, &m, speed)
	if r.traced {
		// A traced run reports per-layer metrics; its client-side numbers
		// ride along for reference.
		for name, m := range res.Metrics {
			if name != "server_cpu_us_per_op" { // a process metric: no process here
				res.Extra["e2e."+name] = m
			}
		}
		res.Metrics = map[string]*metric{}
		if err := r.tracedMetrics(res, cs, before, after, watch); err != nil {
			return nil, err
		}
	}
	res.Correct = res.Failed == 0
	for _, c := range res.Checks {
		if !c.OK {
			res.Correct = false
			res.Failed++
		}
	}
	res.Attempted += int64(len(res.Checks))
	return res, nil
}

// setupTime is one set-up: when it ran on the run's clock, and the share
// of the machine's CPU time the hypervisor stole meanwhile.
type setupTime struct {
	from, to int64
	steal    float64
}

// hostSpeed is the host's speed against the reference host's (pace.go)
// over the set-ups and over the window, and how many probe units each
// rests on.
type hostSpeed struct {
	setup, window   float64
	nSetup, nWindow int
}

// measureSpeed stops the probe and reads the host's speed from it. Set-ups
// too short for a probe unit, as the smoke test's small populations are,
// take the window's speed.
func measureSpeed(pc *pace, setups []setupTime, m *windowMeter) (hostSpeed, error) {
	var s hostSpeed
	if err := pc.finish(); err != nil {
		return s, err
	}
	if n := len(m.slices); n > 0 {
		from, to := m.slices[0].start, m.slices[n-1].end
		s.window, s.nWindow = pc.speed(func(at int64) bool { return at >= from && at < to })
	}
	if s.nWindow == 0 {
		return s, errors.New("pace probe: no unit timed in the window")
	}
	s.setup, s.nSetup = pc.speed(func(at int64) bool {
		for _, st := range setups {
			if at >= st.from && at < st.to {
				return true
			}
		}
		return false
	})
	if s.nSetup == 0 {
		s.setup = s.window
	}
	return s, nil
}

// scaled returns m with its value and sub-window values multiplied by f.
func (m *metric) scaled(f float64) *metric {
	out := &metric{Value: m.Value * f, Unit: m.Unit, N: m.N, Supported: m.Supported}
	for _, v := range m.Subs {
		out.Subs = append(out.Subs, v*f)
	}
	return out
}

// opDigest folds every client's draws into one hex string.
func opDigest(cs []*client) string {
	g := newGen(0, 0)
	for _, c := range cs {
		g.mix(c.gen.digest())
	}
	return fmt.Sprintf("%016x", g.digest())
}

// merged concatenates every client's record of phase p.
func merged(cs []*client, p phase) *record {
	out := &record{}
	for _, c := range cs {
		r := c.recs[p]
		out.admit = append(out.admit, r.admit...)
		out.release = append(out.release, r.release...)
		out.read = append(out.read, r.read...)
		out.visible = append(out.visible, r.visible...)
		out.attempted += r.attempted
		out.failed += r.failed
		out.tooEarly += r.tooEarly
		out.failures = append(out.failures, r.failures...)
	}
	return out
}

// durations returns s's durations in the given unit, sorted.
func (s series) durations(unit time.Duration) []float64 {
	out := make([]float64, len(s))
	for i, x := range s {
		out[i] = float64(x.dur) / float64(unit)
	}
	sort.Float64s(out)
	return out
}

// finite replaces a NaN or infinite value (an empty series) with 0 and
// marks the metric unsupported, so the JSON outputs stay encodable.
func (m *metric) finite() *metric {
	if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
		m.Value, m.Supported = 0, false
	}
	subs := m.Subs[:0]
	for _, v := range m.Subs {
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			subs = append(subs, v)
		}
	}
	m.Subs = subs
	m.Spread = spread(m.Subs)
	if math.IsNaN(m.Spread) || math.IsInf(m.Spread, 0) {
		m.Spread = 0
	}
	return m
}

// fillResult computes the end-to-end metrics over the window (in a
// traced run, over its spans-off and spans-on slices together).
//
// A gated metric is reported as the stack would have scored on the
// reference host with nothing stolen, and kept as measured in the extras
// as raw.<name>. Times are multiplied by the host's speed and rates
// divided by it. Wall-clock times first lose the share of them the
// hypervisor stole; rates and CPU per operation count only quiet slices,
// raw or not.
func (r *runner) fillResult(res *result, cs []*client, setups []setupTime, m *windowMeter, speed hostSpeed) {
	rec := merged(cs, phaseA)
	if r.traced {
		recB := merged(cs, phaseB)
		rec.admit = append(rec.admit, recB.admit...)
		rec.release = append(rec.release, recB.release...)
		rec.read = append(rec.read, recB.read...)
		rec.visible = append(rec.visible, recB.visible...)
		rec.attempted += recB.attempted
		rec.failed += recB.failed
		rec.tooEarly += recB.tooEarly
		rec.failures = append(rec.failures, recB.failures...)
	}
	res.Attempted, res.Failed, res.Failures = rec.attempted, rec.failed, rec.failures
	w := m.window()
	var setupRaw, setupNet []float64
	for _, s := range setups {
		secs := float64(s.to-s.from) / 1e9
		setupRaw = append(setupRaw, secs)
		setupNet = append(setupNet, secs*(1-s.steal))
	}
	setupOf := func(secs []float64) *metric {
		return &metric{Value: median(secs), N: len(secs), Supported: true, Subs: secs}
	}
	raw := map[string]*metric{
		"setup_s":              setupOf(setupRaw),
		"decisions_per_s":      w.rate(rec.admit, rec.release),
		"bounds_ms.p50":        w.latency(rec.read, 0.5),
		"server_cpu_us_per_op": w.cpuPerOp(rec.admit, rec.release, rec.read),
	}
	reported := map[string]*metric{
		"setup_s":              setupOf(setupNet).scaled(speed.setup),
		"decisions_per_s":      raw["decisions_per_s"].scaled(1 / speed.window),
		"bounds_ms.p50":        w.latency(w.net(rec.read), 0.5).scaled(speed.window),
		"server_cpu_us_per_op": raw["server_cpu_us_per_op"].scaled(speed.window),
	}
	for _, d := range endToEnd {
		raw[d.name].Unit, reported[d.name].Unit = d.unit, d.unit
		res.Metrics[d.name] = reported[d.name].finite()
		if !r.traced {
			res.Extra["raw."+d.name] = raw[d.name].finite()
		}
	}
	if !r.traced {
		res.Extra["host.speed"] = &metric{Value: speed.window, Unit: "ratio", N: speed.nWindow, Supported: speed.nWindow > 0}
		res.Extra["host.setup_speed"] = &metric{Value: speed.setup, Unit: "ratio", N: speed.nSetup, Supported: speed.nSetup > 0}
	}

	// Ungated: decision latencies, and tails up to the highest percentile
	// the sample supports.
	for name, s := range map[string]series{"admit_ms": rec.admit, "release_ms": rec.release, "bounds_ms": rec.read, "visible_ms": rec.visible} {
		ps := []float64{0.9}
		if _, gated := res.Metrics[name+".p50"]; !gated {
			ps = append(ps, 0.5)
		}
		if p := highestTail(len(s)); p > 0.9 {
			ps = append(ps, p)
		}
		for _, p := range ps {
			v := w.latency(s, p)
			v.Unit = "ms"
			res.Extra[fmt.Sprintf("%s.p%s", name, strconv.FormatFloat(p*100, 'f', -1, 64))] = v.finite()
		}
	}
	var sum float64
	for _, x := range rec.visible {
		sum += float64(x.dur) / 1e6
	}
	res.Extra["visible_ms.mean"] = (&metric{Value: sum / float64(max(len(rec.visible), 1)), Unit: "ms", N: len(rec.visible), Supported: len(rec.visible) > 0}).finite()
	reads := w.rate(rec.read)
	reads.Unit = "1/s"
	res.Extra["reads_per_s"] = reads.finite()
	rss := make([]float64, len(m.slices))
	for i, sl := range m.slices {
		rss[i] = float64(sl.rss) / (1 << 20)
	}
	res.Extra["rss_mb"] = (&metric{Value: median(rss), Unit: "MB", N: len(rss), Supported: len(rss) > 0}).finite()
	res.Extra["peak_rss_mb"] = &metric{Value: float64(m.peak) / (1 << 20), Unit: "MB", N: len(m.d.nodes), Supported: m.peak > 0}
	res.Extra["bounds_too_early"] = &metric{Value: float64(rec.tooEarly), Unit: "count", N: int(rec.tooEarly), Supported: true}
	res.Extra["host.steal_share"] = &metric{Value: float64(m.steal) / float64(max(m.total, 1)), Unit: "ratio", N: 1, Supported: true}
	res.Extra["host.quiet_share"] = &metric{Value: w.quiet, Unit: "ratio", N: len(m.slices), Supported: true}
}
