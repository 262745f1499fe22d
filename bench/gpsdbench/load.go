package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// sessionType is one declared (E.B.B., target) tuple clients admit.
type sessionType struct {
	Name   string  `json:"name"`
	Rho    float64 `json:"rho"`
	Lambda float64 `json:"lambda"`
	Alpha  float64 `json:"alpha"`
	Delay  float64 `json:"delay"`
	Eps    float64 `json:"eps"`
}

// palette4 is tools/gpsdload's four service classes: a handful of types,
// so the required-rate memo and the per-type epoch caches do their job.
var palette4 = []sessionType{
	{Name: "voice", Rho: 0.05, Lambda: 1, Alpha: 2, Delay: 20, Eps: 1e-4},
	{Name: "video", Rho: 0.30, Lambda: 2, Alpha: 0.8, Delay: 40, Eps: 1e-3},
	{Name: "data", Rho: 0.10, Lambda: 1.5, Alpha: 1.2, Delay: 80, Eps: 1e-2},
	{Name: "bulk", Rho: 0.20, Lambda: 1, Alpha: 0.5, Delay: 160, Eps: 5e-2},
}

// palette64 is BenchmarkAdmitThroughputSharded's 64 types: enough
// distinct ρ/φ ratios that every shard owns a slice of the population.
var palette64 = func() []sessionType {
	p := make([]sessionType, 64)
	for k := range p {
		p[k] = sessionType{Name: "bench", Rho: 0.04 + 0.0005*float64(k), Lambda: 1, Alpha: 1.2, Delay: 40, Eps: 1e-3}
	}
	return p
}()

// palette1 is BenchmarkEpochDelta's single session type.
var palette1 = []sessionType{{Name: "bench", Rho: 0.05, Lambda: 1, Alpha: 1.2, Delay: 40, Eps: 1e-3}}

// gen is one client's seeded decision stream. Every draw is folded into
// a digest, so two runs can show they generated the same requests.
type gen struct {
	r *rand.Rand
	h hash.Hash64
}

func newGen(seed uint64, stream int) *gen {
	return &gen{r: rand.New(rand.NewPCG(seed, uint64(stream)+1)), h: fnv.New64a()}
}

func (g *gen) mix(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	g.h.Write(b[:])
}

// intn draws uniformly from [0, n).
func (g *gen) intn(n int) int {
	v := g.r.IntN(n)
	g.mix(uint64(v))
	return v
}

// coin is true with probability p.
func (g *gen) coin(p float64) bool {
	v := g.r.Float64() < p
	if v {
		g.mix(1)
	} else {
		g.mix(0)
	}
	return v
}

func (g *gen) digest() uint64 { return g.h.Sum64() }

// pause draws an observer's pause before its next admit, uniform over
// [0, observerPause) in microseconds.
func (g *gen) pause() time.Duration {
	return time.Duration(g.intn(int(observerPause/time.Microsecond))) * time.Microsecond
}

// observerPause spreads the moments an observer admits over a whole
// publish period (gpsd's default epoch age). Without it the observer's
// loop locks onto the publish cadence, and which phase it locks onto
// differs from run to run: one run's visibility median read 110 ms and
// the next one's 190 ms.
const observerPause = 100 * time.Millisecond

// step is one loop iteration's generated requests. Indexes point into
// the client's own pool of live ids, drawn before the iteration's admit
// joins it, so a release always targets another session.
type step struct {
	typ     int           // palette index to admit, -1 for none
	route   int           // cluster: route index
	release int           // pool index to release, -1 for none
	read    int           // pool index (after the iteration's ops) to read, -1 for none
	probe   bool          // poll the new id until its bounds are readable
	own     bool          // release the id just admitted (after the probe) instead
	pause   time.Duration // wait before the iteration (observers)
}

// phase is what the controller tells the clients to do.
type phase int32

const (
	phaseWarm phase = iota // run, record nothing
	phaseA                 // run, record into window A
	phaseB                 // run, record into window B (traced runs: spans on)
	phaseStop
)

// sample is one timed operation: when it completed and how long it
// took, both in nanoseconds on the run's monotonic clock.
type sample struct{ at, dur int64 }

// series is the samples of one operation kind.
type series []sample

// record holds what one client saw during one measured phase.
type record struct {
	admit, release, read, visible series
	attempted, failed, tooEarly   int64
	failures                      []string // first few failure reasons
}

func (r *record) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// client is one closed-loop load goroutine with its own connection.
type client struct {
	id    int
	base  string // the server's URL
	conn  conn
	gen   *gen
	clock *clock
	ctl   *atomic.Int32 // current phase
	recs  [phaseStop]*record
	tr    *tracer // nil: no client spans (untraced run)

	pool  []uint64 // live ids this client may release or read
	fresh []uint64 // node-131k: ids admitted in the window (never released)
	route [][]int  // cluster-tree: the two routes
}

// clock is the run's monotonic time base.
type clock struct{ base time.Time }

func (c *clock) now() int64 { return int64(time.Since(c.base)) }

func newClient(id int, base string, seed uint64, clk *clock, ctl *atomic.Int32, tr *tracer) *client {
	c := &client{
		id:    id,
		base:  base,
		conn:  conn{depth: 1},
		gen:   newGen(seed, id),
		clock: clk,
		ctl:   ctl,
		tr:    tr,
	}
	for i := range c.recs {
		c.recs[i] = &record{}
	}
	return c
}

func (c *client) close() { c.conn.drop() }

func (c *client) phase() phase { return phase(c.ctl.Load()) }

// rec returns the record of the phase an operation started in; warm-up
// operations land in a discarded record.
func (c *client) rec(p phase) *record { return c.recs[p] }

// conn is a client's one HTTP/1.1 connection. Requests on it are
// pipelined: up to depth of them are in flight at once and answered in
// order. Depth 1 is a plain closed loop. A larger depth keeps gpsd's
// handler and writer busy from one reply to the next request, so the
// rate measures what a decision costs rather than how quickly the
// shared host wakes a sleeping thread.
type conn struct {
	depth int
	nc    net.Conn
	bw    *bufio.Writer
	br    *bufio.Reader
	queue []pending
}

// pending is a request sent and not yet answered.
type pending struct {
	method string
	op     uint8
	start  int64
	traced bool
	span   openSpan
	then   func(reply)
}

// reply is one request's outcome: its status and body, or the transport
// error that lost it, and when it was sent and answered on the run's
// clock.
type reply struct {
	status     int
	body       []byte
	start, end int64
	err        error
}

// requestTimeout bounds the wait for any one reply.
const requestTimeout = 30 * time.Second

// send queues one request, whose reply goes to then, and returns once
// fewer than the connection's depth requests are unanswered. then runs
// inside a later send or wait, and must not send.
func (c *client) send(p phase, method, path string, body []byte, op uint8, then func(reply)) {
	k := &c.conn
	c.rec(p).attempted++
	if k.nc == nil {
		nc, err := net.DialTimeout("tcp", strings.TrimPrefix(c.base, "http://"), 5*time.Second)
		if err != nil {
			then(reply{err: err})
			return
		}
		k.nc, k.bw, k.br = nc, bufio.NewWriterSize(nc, 64<<10), bufio.NewReaderSize(nc, 64<<10)
	}
	pd := pending{method: method, op: op, then: then, traced: c.tr != nil && p == phaseB}
	fmt.Fprintf(k.bw, "%s %s HTTP/1.1\r\nHost: %s\r\n", method, path, k.nc.RemoteAddr())
	if pd.traced {
		pd.span = c.tr.start(0)
		fmt.Fprintf(k.bw, "%s: %d\r\n", spanHeader, pd.span.id)
	}
	if body != nil {
		fmt.Fprintf(k.bw, "Content-Type: application/json\r\nContent-Length: %d\r\n", len(body))
	}
	k.bw.WriteString("\r\n")
	k.bw.Write(body)
	pd.start = c.clock.now()
	k.queue = append(k.queue, pd)
	if len(k.queue) >= k.depth {
		c.settle(k.depth - 1)
	}
}

// settle sends what is queued and reads replies until at most left are
// unanswered, and then every reply that has already arrived.
func (c *client) settle(left int) {
	k := &c.conn
	if len(k.queue) == 0 {
		return
	}
	_ = k.nc.SetDeadline(time.Now().Add(requestTimeout))
	if err := k.bw.Flush(); err != nil {
		c.broken(err)
		return
	}
	for len(k.queue) > left || (len(k.queue) > 0 && k.br.Buffered() > 0) {
		pd := k.queue[0]
		resp, err := http.ReadResponse(k.br, &http.Request{Method: pd.method})
		var body []byte
		if err == nil {
			body, err = io.ReadAll(resp.Body)
			resp.Body.Close()
		}
		if err != nil {
			c.broken(err)
			return
		}
		end := c.clock.now()
		k.queue = k.queue[1:]
		if pd.traced {
			c.tr.end(pd.span, spClient, pd.op, 0, 0, [16]byte{})
		}
		pd.then(reply{status: resp.StatusCode, body: body, start: pd.start, end: end})
	}
}

// wait reads every outstanding reply.
func (c *client) wait() { c.settle(0) }

// broken fails every unanswered request and drops the connection; the
// next request dials a new one.
func (c *client) broken(err error) {
	q := c.conn.queue
	c.conn.drop()
	for _, pd := range q {
		pd.then(reply{start: pd.start, err: err})
	}
}

func (k *conn) drop() {
	if k.nc != nil {
		k.nc.Close()
	}
	k.nc, k.bw, k.br, k.queue = nil, nil, nil, nil
}

// do sends one request and waits for its reply.
func (c *client) do(p phase, method, path string, body []byte, op uint8) reply {
	var out reply
	c.send(p, method, path, body, op, func(r reply) { out = r })
	c.wait()
	return out
}

// admitThen sends one node admission; then gets the assigned id and
// when the reply arrived, or the error that failed it.
func (c *client) admitThen(p phase, t sessionType, then func(id uint64, at int64, err error)) {
	body, _ := json.Marshal(t)
	c.send(p, http.MethodPost, "/v1/admit", body, opAdmit, func(rp reply) {
		id, err := c.admitted(p, rp)
		then(id, rp.end, err)
	})
}

// admit posts one node admission and waits for the assigned id.
func (c *client) admit(p phase, t sessionType) (id uint64, at int64, err error) {
	c.admitThen(p, t, func(i uint64, a int64, e error) { id, at, err = i, a, e })
	c.wait()
	return id, at, err
}

// admitted checks and records an admit reply.
func (c *client) admitted(p phase, rp reply) (uint64, error) {
	r := c.rec(p)
	if rp.err != nil {
		r.fail("admit: %v", rp.err)
		return 0, errFailed
	}
	if rp.status != http.StatusOK {
		r.fail("admit: HTTP %d: %s", rp.status, bytes.TrimSpace(rp.body))
		return 0, errFailed
	}
	var rep struct {
		Admitted bool   `json:"admitted"`
		ID       string `json:"id"`
		Reason   string `json:"reason"`
	}
	if err := json.Unmarshal(rp.body, &rep); err != nil || !rep.Admitted {
		r.fail("admit refused: %s (%v)", rep.Reason, err)
		return 0, errFailed
	}
	id, err := strconv.ParseUint(rep.ID, 10, 64)
	if err != nil {
		r.fail("admit: bad id %q", rep.ID)
		return 0, errFailed
	}
	r.admit = append(r.admit, sample{rp.end, rp.end - rp.start})
	return id, nil
}

// errFailed marks an operation that counted as a failure.
var errFailed = errors.New("operation failed")

// releaseThen deletes one live session without waiting for the reply.
func (c *client) releaseThen(p phase, path string) {
	c.send(p, http.MethodDelete, path, nil, opRelease, func(rp reply) { _ = c.released(p, path, rp) })
}

// release deletes one live session and waits for the reply.
func (c *client) release(p phase, path string) error {
	var err error
	c.send(p, http.MethodDelete, path, nil, opRelease, func(rp reply) { err = c.released(p, path, rp) })
	c.wait()
	return err
}

// released checks and records a release reply.
func (c *client) released(p phase, path string, rp reply) error {
	r := c.rec(p)
	switch {
	case rp.err != nil:
		r.fail("release %s: %v", path, rp.err)
	case rp.status != http.StatusOK:
		r.fail("release %s: HTTP %d: %s", path, rp.status, bytes.TrimSpace(rp.body))
	default:
		r.release = append(r.release, sample{rp.end, rp.end - rp.start})
		return nil
	}
	return errFailed
}

func sessionPath(id uint64) string { return "/v1/sessions/" + strconv.FormatUint(id, 10) }

// errTooEarly is a 425: the id is admitted but not yet in a published
// epoch. Polling for visibility expects it; a random read counts it.
var errTooEarly = errors.New("425 too early")

// readBounds fetches one live node session's bounds and checks the
// reply describes that session and meets its declared target — the
// promise admission made. It returns when the request was sent.
func (c *client) readBounds(p phase, id uint64) (int64, error) {
	rp := c.do(p, http.MethodGet, "/v1/bounds/"+strconv.FormatUint(id, 10), nil, opBounds)
	r := c.rec(p)
	switch {
	case rp.err != nil:
		r.fail("bounds %d: %v", id, rp.err)
		return 0, errFailed
	case rp.status == http.StatusTooEarly:
		return 0, errTooEarly
	case rp.status != http.StatusOK:
		r.fail("bounds %d: HTTP %d: %s", id, rp.status, bytes.TrimSpace(rp.body))
		return 0, errFailed
	}
	var rep struct {
		ID          string `json:"id"`
		MeetsTarget bool   `json:"meets_target"`
	}
	if err := json.Unmarshal(rp.body, &rep); err != nil || rep.ID != strconv.FormatUint(id, 10) || !rep.MeetsTarget {
		r.fail("bounds %d: reply %s (%v)", id, bytes.TrimSpace(rp.body), err)
		return 0, errFailed
	}
	r.read = append(r.read, sample{rp.end, rp.end - rp.start})
	return rp.start, nil
}

// pollInterval is the visibility poll period.
const pollInterval = 5 * time.Millisecond

// visibleTimeout bounds one visibility wait; a session still invisible
// after it is a failure.
const visibleTimeout = 20 * time.Second

// pollVisible polls a freshly admitted id until its bounds are served
// and records the time from the admit reply to the sending of the first
// poll that got them: how long the session waited for a published epoch,
// to within one poll period, without the read's own cost (which
// bounds_ms measures).
func (c *client) pollVisible(p phase, id uint64, replyAt int64) {
	r := c.rec(p)
	for {
		sent, err := c.readBounds(p, id)
		if err == nil {
			r.visible = append(r.visible, sample{sent, sent - replyAt})
			return
		}
		if !errors.Is(err, errTooEarly) {
			return
		}
		if c.phase() == phaseStop {
			return
		}
		if time.Duration(c.clock.now()-replyAt) > visibleTimeout {
			r.fail("bounds %d: not visible after %v", id, visibleTimeout)
			return
		}
		time.Sleep(pollInterval)
	}
}

// takeAt swap-removes pool[i].
func takeAt(pool []uint64, i int) ([]uint64, uint64) {
	id := pool[i]
	last := len(pool) - 1
	pool[i] = pool[last]
	return pool[:last], id
}

// execNode runs one node-workload step. A probing step runs in lock
// step with gpsd; any other step's admit and release go out pipelined
// on the client's connection, and the admitted id joins the pool when
// its reply is read.
func (c *client) execNode(p phase, s step, pal []sessionType, stagedRelease bool) {
	time.Sleep(s.pause)
	if s.typ >= 0 {
		keep := func(id uint64) {
			if stagedRelease {
				c.fresh = append(c.fresh, id)
			} else {
				c.pool = append(c.pool, id)
			}
		}
		if s.probe {
			id, replyAt, err := c.admit(p, pal[s.typ])
			if err == nil {
				c.pollVisible(p, id, replyAt)
			}
			if s.own {
				if err == nil {
					_ = c.release(p, sessionPath(id))
				}
				return
			}
			if err == nil {
				keep(id)
			}
		} else {
			c.admitThen(p, pal[s.typ], func(id uint64, _ int64, err error) {
				if err == nil {
					keep(id)
				}
			})
		}
		if s.release >= 0 {
			var old uint64
			c.pool, old = takeAt(c.pool, s.release)
			c.releaseThen(p, sessionPath(old))
		}
	}
	if s.read >= 0 {
		if _, err := c.readBounds(p, c.pool[s.read]); errors.Is(err, errTooEarly) {
			c.rec(p).tooEarly++
		}
	}
}

// clusterProbe is the session cluster-tree clients admit and release.
// ρ = 2⁻⁶ keeps two concurrent probes inside node3's headroom over the
// staged Σρ = 0.9, and — a power of two that never carries a hop's Σφ
// across a binade — makes every admit/release pair restore each hop's
// running Σφ bit for bit, which the stranded-capacity check relies on.
// α = 20 keeps the composed bound under 0.005 at d = 200 with both
// clients' probes admitted on any routes, so no admit is refused.
var clusterProbe = sessionType{Name: "probe", Rho: 1.0 / 64, Lambda: 1, Alpha: 20, Delay: 200, Eps: 0.5}

// execCluster runs one cluster-tree step: an end-to-end admit over the
// drawn route, a read of its composed bounds (the visibility probe: the
// coordinator serves them from the admit's own analysis), and the
// release.
func (c *client) execCluster(p phase, s step) {
	t := clusterProbe
	body, _ := json.Marshal(struct {
		sessionType
		Route []int `json:"route"`
	}{t, c.route[s.route]})
	rp := c.do(p, http.MethodPost, "/v1/cluster/admit", body, opAdmit)
	r := c.rec(p)
	if rp.err != nil {
		r.fail("cluster admit: %v", rp.err)
		return
	}
	var rep struct {
		Admitted bool   `json:"admitted"`
		ID       string `json:"id"`
		Reason   string `json:"reason"`
		E2E      struct {
			AchievedEps float64 `json:"achieved_eps"`
		} `json:"e2e"`
	}
	if rp.status != http.StatusOK || json.Unmarshal(rp.body, &rep) != nil || !rep.Admitted || !(rep.E2E.AchievedEps <= t.Eps) {
		r.fail("cluster admit: HTTP %d: %s", rp.status, bytes.TrimSpace(rp.body))
		return
	}
	r.admit = append(r.admit, sample{rp.end, rp.end - rp.start})
	replyAt := rp.end

	rb := c.do(p, http.MethodGet, "/v1/route-bounds/"+rep.ID, nil, opBounds)
	var bounds struct {
		ID  string `json:"id"`
		E2E struct {
			AchievedEps float64 `json:"achieved_eps"`
		} `json:"e2e"`
	}
	switch {
	case rb.err != nil:
		r.fail("route bounds %s: %v", rep.ID, rb.err)
	case rb.status != http.StatusOK || json.Unmarshal(rb.body, &bounds) != nil || bounds.ID != rep.ID || !(bounds.E2E.AchievedEps <= t.Eps):
		r.fail("route bounds %s: HTTP %d: %s", rep.ID, rb.status, bytes.TrimSpace(rb.body))
	default:
		r.read = append(r.read, sample{rb.end, rb.end - rb.start})
		r.visible = append(r.visible, sample{rb.start, rb.start - replyAt})
	}
	_ = c.release(p, "/v1/cluster/sessions/"+rep.ID)
}

// runClients drives every client's loop until the controller says stop,
// lets each read its outstanding replies, and waits for all of them.
func runClients(cs []*client, body func(c *client, p phase)) {
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for {
				p := c.phase()
				if p == phaseStop {
					c.wait()
					return
				}
				body(c, p)
			}
		}(c)
	}
	wg.Wait()
}
