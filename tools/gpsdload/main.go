// Command gpsdload is a closed-loop load generator for gpsd: it ramps a
// target session population onto the daemon, then churns it — every
// worker admits a fresh session, releases one to hold the population,
// and samples /v1/bounds — while a seeded internal/faults churn
// schedule overlays deterministic leave/rejoin bursts. It reports
// sustained admit/release decisions per second, client-observed latency
// quantiles, and the status-class histogram, then scrapes /metrics and
// (with -require-no-5xx) exits nonzero if either side saw a 5xx.
//
//	gpsdload -url http://127.0.0.1:7070 -sessions 1000 -duration 10s
//	gpsdload -url http://127.0.0.1:7070 -sessions 1000 -conns 256
//
// -conns N switches the measured window to open-loop connection mode:
// N independent connections, each with its own http.Client (its own
// TCP connection and idle pool, nothing shared but the counters),
// each running its own admit/release/bounds loop. That is the shape a
// million-session front end presents — no two sessions share a
// connection — and it is what makes per-shard queueing visible.
// Against a sharded daemon the post-run scrape also prints a
// per-shard table (decisions, p50/p99 decision latency, queue depth)
// parsed from the gpsd_shard_* series.
//
// As the crash-fault harness (-kill-pid with -kill-after), it SIGKILLs
// the daemon mid-churn instead of finishing the window: transport
// errors after the kill are the point, not a failure, so the run exits
// 0 once the kill landed and reports how many decisions the daemon had
// acknowledged. scripts/crash_smoke.sh then restarts gpsd and walcheck
// verifies the recovered state against the WAL.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"os"
	"regexp"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/faults"
	"repro/internal/source"
	"repro/internal/stats"
)

// sessionType is one entry of the declared-traffic palette. The small
// palette mirrors production admission traffic (a handful of service
// classes) and lets the daemon's required-rate memo do its job.
type sessionType struct {
	Name   string  `json:"name"`
	Rho    float64 `json:"rho"`
	Lambda float64 `json:"lambda"`
	Alpha  float64 `json:"alpha"`
	Delay  float64 `json:"delay"`
	Eps    float64 `json:"eps"`
}

var palette = []sessionType{
	{Name: "voice", Rho: 0.05, Lambda: 1, Alpha: 2, Delay: 20, Eps: 1e-4},
	{Name: "video", Rho: 0.30, Lambda: 2, Alpha: 0.8, Delay: 40, Eps: 1e-3},
	{Name: "data", Rho: 0.10, Lambda: 1.5, Alpha: 1.2, Delay: 80, Eps: 1e-2},
	{Name: "bulk", Rho: 0.20, Lambda: 1, Alpha: 0.5, Delay: 160, Eps: 5e-2},
}

// counters aggregates what every worker observed.
type counters struct {
	admitsOK   atomic.Int64 // 200 with admitted=true
	admitsNo   atomic.Int64 // 200 with admitted=false
	releasesOK atomic.Int64 // 200 releases
	bounds     atomic.Int64 // 200 bounds reads
	tooEarly   atomic.Int64 // 425 bounds (epoch lag)
	shed       atomic.Int64 // 429
	status4xx  atomic.Int64 // other 4xx
	status5xx  atomic.Int64
	errors     atomic.Int64 // transport failures
}

// latencies tracks client-observed request latency with P² estimators.
type latencies struct {
	mu  sync.Mutex
	p50 *stats.P2Quantile
	p99 *stats.P2Quantile
}

func (l *latencies) observe(d time.Duration) {
	s := d.Seconds()
	l.mu.Lock()
	l.p50.Add(s)
	l.p99.Add(s)
	l.mu.Unlock()
}

// pool is the shared set of admitted session ids.
type pool struct {
	mu  sync.Mutex
	ids []string
}

func (p *pool) add(id string) {
	p.mu.Lock()
	p.ids = append(p.ids, id)
	p.mu.Unlock()
}

func (p *pool) size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.ids)
}

// take removes and returns a pseudo-randomly chosen id.
func (p *pool) take(r uint64) (string, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.ids)
	if n == 0 {
		return "", false
	}
	i := int(r % uint64(n))
	id := p.ids[i]
	p.ids[i] = p.ids[n-1]
	p.ids = p.ids[:n-1]
	return id, true
}

// pick returns a pseudo-randomly chosen id without removing it.
func (p *pool) pick(r uint64) (string, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.ids) == 0 {
		return "", false
	}
	return p.ids[int(r%uint64(len(p.ids)))], true
}

type client struct {
	base  string
	hc    *http.Client
	cnt   *counters
	lat   *latencies
	retry *retrier
	stop  func() bool // aborts retry sleeps once the run is winding down
}

func (c *client) do(req *http.Request) (*http.Response, []byte, error) {
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		c.cnt.errors.Add(1)
		return nil, nil, err
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	c.lat.observe(time.Since(start))
	switch {
	case resp.StatusCode >= 500:
		c.cnt.status5xx.Add(1)
	case resp.StatusCode == http.StatusTooManyRequests:
		c.cnt.shed.Add(1)
	case resp.StatusCode == http.StatusTooEarly:
		c.cnt.tooEarly.Add(1)
	case resp.StatusCode >= 400 && resp.StatusCode != http.StatusNotFound:
		c.cnt.status4xx.Add(1)
	}
	return resp, body, nil
}

// admit posts one admission request, retrying through backpressure; it
// returns the assigned id when the daemon accepted.
func (c *client) admit(t sessionType) (string, bool) {
	payload, _ := json.Marshal(t)
	resp, body, err := c.doRetry(func() *http.Request {
		req, _ := http.NewRequest(http.MethodPost, c.base+"/v1/admit", bytes.NewReader(payload))
		req.Header.Set("Content-Type", "application/json")
		return req
	}, c.stop)
	if err != nil || resp.StatusCode != http.StatusOK {
		return "", false
	}
	var out struct {
		Admitted bool   `json:"admitted"`
		ID       string `json:"id"`
	}
	if json.Unmarshal(body, &out) != nil {
		return "", false
	}
	if out.Admitted {
		c.cnt.admitsOK.Add(1)
		return out.ID, true
	}
	c.cnt.admitsNo.Add(1)
	return "", false
}

func (c *client) release(id string) bool {
	resp, _, err := c.doRetry(func() *http.Request {
		req, _ := http.NewRequest(http.MethodDelete, c.base+"/v1/sessions/"+id, nil)
		return req
	}, c.stop)
	if err != nil {
		return false
	}
	if resp.StatusCode == http.StatusOK {
		c.cnt.releasesOK.Add(1)
		return true
	}
	return false
}

func (c *client) boundsQuery(id string) {
	resp, _, err := c.doRetry(func() *http.Request {
		req, _ := http.NewRequest(http.MethodGet, c.base+"/v1/bounds/"+id, nil)
		return req
	}, c.stop)
	if err == nil && resp.StatusCode == http.StatusOK {
		c.cnt.bounds.Add(1)
	}
}

func (c *client) metrics() (string, error) {
	resp, err := c.hc.Get(c.base + "/metrics")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return string(body), err
}

// shardReport prints a per-shard table from a /metrics scrape of gpsd:
// decision count and p50/p99 decision latency from the server-side P2
// estimators, plus sessions and queue depth — one row for a one-shard
// node. A daemon that exports no gpsd_shard_* series prints nothing.
func shardReport(text string) {
	get := func(name, shard, rest string) (float64, bool) {
		re := regexp.MustCompile(name + `\{shard="` + shard + `"` + rest + `\} ([0-9eE+.\-]+|NaN)`)
		m := re.FindStringSubmatch(text)
		if m == nil {
			return 0, false
		}
		v, err := strconv.ParseFloat(m[1], 64)
		return v, err == nil
	}
	for i := 0; ; i++ {
		shard := strconv.Itoa(i)
		n, ok := get(`gpsd_shard_decision_latency_seconds_count`, shard, ``)
		if !ok {
			if i == 0 {
				return
			}
			break
		}
		p50, _ := get(`gpsd_shard_decision_latency_seconds`, shard, `,quantile="0\.5"`)
		p99, _ := get(`gpsd_shard_decision_latency_seconds`, shard, `,quantile="0\.99"`)
		sessions, _ := get(`gpsd_shard_sessions`, shard, ``)
		queue, _ := get(`gpsd_shard_queue_depth`, shard, ``)
		fmt.Printf("gpsdload: shard %d: %.0f decisions, p50 %v p99 %v, %.0f sessions, queue %.0f\n",
			i, n,
			time.Duration(p50*1e9).Round(time.Microsecond),
			time.Duration(p99*1e9).Round(time.Microsecond),
			sessions, queue)
	}
}

func main() {
	url := flag.String("url", "http://127.0.0.1:7070", "gpsd base URL")
	sessions := flag.Int("sessions", 1000, "target session population")
	workers := flag.Int("workers", 8, "closed-loop worker goroutines sharing one pooled client")
	conns := flag.Int("conns", 0, "open-loop mode: this many independent connections, each with its own client (0 = closed loop with -workers)")
	duration := flag.Duration("duration", 5*time.Second, "measured churn window")
	seed := flag.Uint64("seed", 1, "seed for worker traffic and the churn schedule")
	churnEvents := flag.Int("churn", 64, "seeded leave/rejoin events replayed over the window (0 disables)")
	boundsFrac := flag.Float64("bounds-frac", 0.2, "fraction of iterations issuing a bounds read")
	requireNo5xx := flag.Bool("require-no-5xx", false, "exit 1 if any 5xx (client- or server-observed) or transport error occurred")
	scrape := flag.Bool("scrape", true, "scrape and print /metrics after the run")
	killPid := flag.Int("kill-pid", 0, "SIGKILL this pid (the daemon) mid-churn; post-kill errors are expected")
	killAfter := flag.Duration("kill-after", time.Second, "churn time before -kill-pid fires")
	retries := flag.Int("retries", 3, "tries per request through 429/425 backpressure (1 disables retry)")
	retryBase := flag.Duration("retry-base", 100*time.Millisecond, "exponential backoff floor for the first retry")
	retryMax := flag.Duration("retry-max", 5*time.Second, "cap on any single backoff sleep")
	topology := flag.String("topology", "", "cluster mode: drive the paper's §6.3 tree through the coordinator at -url and bit-compare its bounds against offline analysis")
	e2eDelay := flag.Float64("e2e-delay", 200, "end-to-end delay target for -topology admits")
	e2eEps := flag.Float64("e2e-eps", 1e-3, "end-to-end violation probability target for -topology admits")
	flag.Parse()
	if *topology != "" {
		topologyMain(*topology, *url, *e2eDelay, *e2eEps)
		return
	}
	if *killPid > 0 && *requireNo5xx {
		log.Fatal("gpsdload: -kill-pid and -require-no-5xx are mutually exclusive (the kill guarantees failed requests)")
	}

	p50, _ := stats.NewP2Quantile(0.5)
	p99, _ := stats.NewP2Quantile(0.99)
	// Kill harness flag, shared with the retry loop: once the kill
	// lands, backoff sleeps abort instead of stretching the wind-down.
	var killed atomic.Bool
	c := &client{
		base: *url,
		hc: &http.Client{
			Timeout: 10 * time.Second,
			Transport: &http.Transport{
				MaxIdleConns:        *workers * 2,
				MaxIdleConnsPerHost: *workers * 2,
			},
		},
		cnt:   &counters{},
		lat:   &latencies{p50: p50, p99: p99},
		retry: newRetrier(*retries, *retryBase, *retryMax, *seed^0xa5a5a5a5),
		stop:  func() bool { return killed.Load() },
	}
	ids := &pool{}

	// Ramp: fill the population before the measured window.
	rampStart := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < *workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := source.NewRNG(*seed + uint64(w)*1e6)
			for ids.size() < *sessions {
				t := palette[rng.Intn(len(palette))]
				if id, ok := c.admit(t); ok {
					ids.add(id)
				} else {
					return // link full or daemon unreachable: ramp as far as possible
				}
			}
		}(w)
	}
	wg.Wait()
	rampN := ids.size()
	fmt.Printf("gpsdload: ramped %d/%d sessions in %v (%d rejected)\n",
		rampN, *sessions, time.Since(rampStart).Round(time.Millisecond), c.cnt.admitsNo.Load())
	if rampN == 0 {
		log.Fatalf("gpsdload: could not admit any session against %s", *url)
	}

	// Churn replay: a seeded internal/faults schedule of SessionLeave
	// events, mapped from its slot horizon onto the wall-clock window.
	// Event start = release one live session; event end = re-admit one.
	const horizon = 1000
	deadline := time.Now().Add(*duration)
	windowStart := time.Now()

	// Kill harness: SIGKILL the daemon partway into the churn window.
	// Workers watch the flag and wind down; everything they observe after
	// the kill (refused connections, resets) is the expected crash shape.
	killDone := make(chan struct{})
	if *killPid > 0 {
		go func() {
			defer close(killDone)
			time.Sleep(time.Until(windowStart.Add(*killAfter)))
			if err := syscall.Kill(*killPid, syscall.SIGKILL); err != nil {
				log.Fatalf("gpsdload: SIGKILL pid %d: %v", *killPid, err)
			}
			killed.Store(true)
			fmt.Printf("gpsdload: SIGKILLed pid %d after %v of churn\n",
				*killPid, time.Since(windowStart).Round(time.Millisecond))
		}()
	}

	if *churnEvents > 0 {
		inj, err := faults.New(faults.Config{
			Seed:    *seed,
			Horizon: horizon,
			// One schedule target per population slot; targets only size
			// the generator here, replay picks live ids from the pool.
			Sessions: rampN,
			Churn:    faults.ClassParams{Count: *churnEvents, MaxDuration: horizon / 10},
		})
		if err != nil {
			log.Fatalf("gpsdload: churn schedule: %v", err)
		}
		type action struct {
			at    time.Duration
			leave bool
		}
		var acts []action
		slotDur := *duration / horizon
		for _, e := range inj.Events() {
			acts = append(acts, action{at: time.Duration(e.Start) * slotDur, leave: true})
			if end := e.Start + e.Duration; end < horizon {
				acts = append(acts, action{at: time.Duration(end) * slotDur, leave: false})
			}
		}
		// Events are start-sorted; rejoin times can interleave, so walk a
		// simple two-pass sort.
		for i := 1; i < len(acts); i++ {
			for j := i; j > 0 && acts[j].at < acts[j-1].at; j-- {
				acts[j], acts[j-1] = acts[j-1], acts[j]
			}
		}
		fmt.Printf("gpsdload: replaying %d churn actions (schedule digest %#x)\n", len(acts), inj.Digest())
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := source.NewRNG(*seed ^ 0x9e3779b97f4a7c15)
			for _, a := range acts {
				at := windowStart.Add(a.at)
				if at.After(deadline) || killed.Load() {
					return
				}
				time.Sleep(time.Until(at))
				if a.leave {
					if id, ok := ids.take(rng.Uint64()); ok {
						c.release(id)
					}
				} else if id, ok := c.admit(palette[rng.Intn(len(palette))]); ok {
					ids.add(id)
				}
			}
		}()
	}

	// Staleness sampler: scrape gpsd_epoch_age_seconds through the churn
	// window and keep the maximum — the bound-staleness number the
	// incremental epoch path is accountable for.
	var maxAgeBits atomic.Uint64
	var ageSamples atomic.Int64
	if *scrape {
		ageRe := regexp.MustCompile(`gpsd_epoch_age_seconds ([0-9eE+.\-]+)`)
		wg.Add(1)
		go func() {
			defer wg.Done()
			tick := time.NewTicker(200 * time.Millisecond)
			defer tick.Stop()
			for time.Now().Before(deadline) && !killed.Load() {
				<-tick.C
				text, err := c.metrics()
				if err != nil {
					continue
				}
				m := ageRe.FindStringSubmatch(text)
				if m == nil {
					continue
				}
				v, err := strconv.ParseFloat(m[1], 64)
				if err != nil {
					continue
				}
				ageSamples.Add(1)
				for {
					old := maxAgeBits.Load()
					if v <= math.Float64frombits(old) {
						break
					}
					if maxAgeBits.CompareAndSwap(old, math.Float64bits(v)) {
						break
					}
				}
			}
		}()
	}

	// Measured loop body, shared by both modes: admit, trim the
	// population back to target, sample bounds.
	loop := func(cl *client, rngSeed uint64) {
		rng := source.NewRNG(rngSeed)
		for time.Now().Before(deadline) && !killed.Load() {
			if id, ok := cl.admit(palette[rng.Intn(len(palette))]); ok {
				ids.add(id)
			}
			if ids.size() > *sessions {
				if id, ok := ids.take(rng.Uint64()); ok {
					cl.release(id)
				}
			}
			if rng.Float64() < *boundsFrac {
				if id, ok := ids.pick(rng.Uint64()); ok {
					cl.boundsQuery(id)
				}
			}
		}
	}
	if *conns > 0 {
		// Open loop: every connection is its own client. Only the
		// counters, the session pool, and the (mutex-jittered) retrier
		// are shared — transports are not, so nothing serializes two
		// connections' requests client-side.
		fmt.Printf("gpsdload: open-loop: %d independent connections\n", *conns)
		for w := 0; w < *conns; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				cl := &client{
					base: *url,
					hc: &http.Client{
						Timeout: 10 * time.Second,
						Transport: &http.Transport{
							MaxIdleConns:        1,
							MaxIdleConnsPerHost: 1,
						},
					},
					cnt:   c.cnt,
					lat:   c.lat,
					retry: c.retry,
					stop:  c.stop,
				}
				loop(cl, *seed+31+uint64(w)*1e7)
			}(w)
		}
	} else {
		for w := 0; w < *workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				loop(c, *seed+17+uint64(w)*1e9)
			}(w)
		}
	}
	wg.Wait()
	if *killPid > 0 {
		<-killDone // the kill must have landed before we report anything
	}
	elapsed := time.Since(windowStart)

	cnt := c.cnt
	decisions := cnt.admitsOK.Load() + cnt.admitsNo.Load() + cnt.releasesOK.Load()
	c.lat.mu.Lock()
	lp50, lp99 := time.Duration(p50.Quantile()*1e9), time.Duration(p99.Quantile()*1e9)
	c.lat.mu.Unlock()
	fmt.Printf("gpsdload: %d decisions in %v = %.0f decisions/s (admit-ok %d, admit-reject %d, release %d, bounds %d, too-early %d)\n",
		decisions, elapsed.Round(time.Millisecond), float64(decisions)/elapsed.Seconds(),
		cnt.admitsOK.Load(), cnt.admitsNo.Load(), cnt.releasesOK.Load(),
		cnt.bounds.Load(), cnt.tooEarly.Load())
	fmt.Printf("gpsdload: latency p50 %v p99 %v; shed(429) %d, other-4xx %d, 5xx %d, transport errors %d\n",
		lp50.Round(time.Microsecond), lp99.Round(time.Microsecond),
		cnt.shed.Load(), cnt.status4xx.Load(), cnt.status5xx.Load(), cnt.errors.Load())
	if n := ageSamples.Load(); n > 0 {
		fmt.Printf("gpsdload: max epoch age %.1fms over %d staleness scrapes\n",
			math.Float64frombits(maxAgeBits.Load())*1e3, n)
	}

	if killed.Load() {
		// The daemon is gone; there is nothing to scrape and failed
		// requests were the point. The decision counts above are what the
		// daemon acknowledged — the recovery check replays against them.
		fmt.Printf("gpsdload: kill mode: %d decisions acknowledged before the kill\n", decisions)
		os.Exit(0)
	}

	server5xx := int64(-1)
	if *scrape {
		text, err := c.metrics()
		if err != nil {
			log.Fatalf("gpsdload: metrics scrape: %v", err)
		}
		fmt.Println("gpsdload: server metrics:")
		fmt.Print(text)
		if m := regexp.MustCompile(`gpsd_http_responses_total\{class="5xx"\} (\d+)`).
			FindStringSubmatch(text); m != nil {
			server5xx, _ = strconv.ParseInt(m[1], 10, 64)
		}
		shardReport(text)
	}

	if *requireNo5xx {
		switch {
		case cnt.status5xx.Load() > 0:
			log.Fatalf("gpsdload: FAIL: client observed %d 5xx responses", cnt.status5xx.Load())
		case cnt.errors.Load() > 0:
			log.Fatalf("gpsdload: FAIL: %d transport errors", cnt.errors.Load())
		case server5xx > 0:
			log.Fatalf("gpsdload: FAIL: server reports %d 5xx responses", server5xx)
		case *scrape && server5xx < 0:
			log.Fatal("gpsdload: FAIL: could not find gpsd_http_responses_total{class=\"5xx\"} in scrape")
		}
		fmt.Println("gpsdload: OK: zero 5xx")
	}
	os.Exit(0)
}
