package cluster

import (
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	"repro/internal/ebb"
	"repro/internal/network"
	"repro/internal/prom"
	"repro/internal/wal"
)

// ErrPartition reports that a hop could not be reached (or answered
// outside the protocol) while an admit was in flight. The admit fails
// closed: every hop that had already prepared is rolled back, and any
// rollback the partition also swallowed expires on the hop's own TTL
// clock. The HTTP layer maps this to 503.
var ErrPartition = errors.New("cluster: hop unreachable, admit aborted")

// ErrDurability reports that the coordinator could not journal an
// operation the hops had already carried out. For an admit the hop
// sessions are released (best effort) and the admit fails closed; for a
// release the session is kept in the model. Retryable once the
// journal's disk recovers; the HTTP layer maps this to 503.
var ErrDurability = errors.New("cluster: journal append failed")

// AuditSink observes the durable route-op stream (see Config.Audit).
// It mirrors internal/server.AuditSink so one
// internal/replication.Audit implementation serves hop and coordinator
// WALs alike.
type AuditSink interface {
	Record(op wal.Op)
}

// Config configures a Coordinator.
type Config struct {
	// Topology is the node set and daemon addresses. Required.
	Topology Topology
	// PrepareTTL is the reservation lifetime each hop journals with a
	// prepare; a coordinator that dies mid-protocol leaks capacity for
	// at most this long (default 10s).
	PrepareTTL time.Duration
	// HopTimeout bounds every hop RPC; a hop slower than this is
	// treated as partitioned (default 2s).
	HopTimeout time.Duration
	// CRST are the analysis options every end-to-end bound is computed
	// under. The zero value (Hölder route, θ = θ_max/2) is the sound
	// default for interior nodes; offline tooling comparing against the
	// coordinator must use the same options bit-for-bit.
	CRST network.CRSTOptions
	// Client, when non-nil, overrides the HTTP client (tests inject
	// httptest transports); its Timeout is still forced to HopTimeout.
	Client *http.Client
	// Log, when non-nil, is the coordinator's write-ahead journal: every
	// committed end-to-end admit appends a route record and every
	// release a tombstone, durable before the caller sees the reply, so
	// a restarted coordinator serves RouteBounds bit-identical to its
	// previous life. The directory should carry the wal.CoordMarkerName
	// marker so hop tooling refuses it (cmd/gpsd writes it).
	Log *wal.Log
	// Recovered, when non-nil, is the previous life's journal as read by
	// wal.Open. New folds it back into the session set (coordinator logs
	// never snapshot, so the fold is a pure function of the op stream)
	// and then reconciles the result against the hops' durable truth.
	Recovered *wal.Recovered
	// Audit, when non-nil alongside Log, receives every journaled op
	// after its batch reaches the log (internal/replication.Audit
	// implements it), extending the Merkle audit trail to the
	// coordinator's own journal.
	Audit AuditSink
	// Crash is the fault-injection hook consulted at the coordinator's
	// named durability boundaries; nil disables them.
	Crash wal.Crashpoint
}

// Metrics are the coordinator's monotone counters.
type Metrics struct {
	Admits          atomic.Int64 // sessions committed end to end
	Rejects         atomic.Int64 // admits refused by analysis or a hop's headroom
	PartitionAborts atomic.Int64 // admits aborted by an unreachable hop
	Releases        atomic.Int64 // sessions released end to end
	CommitRetries   atomic.Int64 // hop commits re-sent after a lost reply
	ReconcileDrops  atomic.Int64 // journaled admits dropped at recovery (hop sessions gone)
	OrphanReleases  atomic.Int64 // unjournaled hop sessions swept at recovery
}

// Coordinator walks admits through the topology. With Config.Log set,
// every committed admit and release is journaled commit-before-reply,
// so a restart folds the journal back into the session set and serves
// its previous life's RouteBounds bit for bit; in-flight prepares still
// expire on the hops' TTL clocks, and recovery reconciles the folded
// set against the hops (DESIGN.md §15). Without a log the old §14
// trade-off applies: a restart recovers nothing.
type Coordinator struct {
	cfg    Config
	client *http.Client
	met    Metrics

	mu     sync.Mutex
	nextID uint64
	// sessions is the committed set, one record per end-to-end session
	// in the order wal.FoldRoutes folds the journal into: the CRST
	// recursion derives interior-hop inputs from the session list in
	// order, so the order is load-bearing for bit-identical replay by
	// offline tooling, which builds its network from the same records
	// with the same BuildNetwork.
	sessions []wal.RouteSessionRecord
	byID     map[uint64]int        // session id -> index in sessions, maintained across swap-remove
	analysis *network.CRSTAnalysis // cached for the current committed set; nil after release
}

// New validates the topology and returns a coordinator. When
// cfg.Recovered is non-nil the previous life's journal is folded back
// into the session set and reconciled against the hops before the
// coordinator serves a single request.
func New(cfg Config) (*Coordinator, error) {
	if err := cfg.Topology.Validate(); err != nil {
		return nil, err
	}
	if cfg.PrepareTTL <= 0 {
		cfg.PrepareTTL = 10 * time.Second
	}
	if cfg.HopTimeout <= 0 {
		cfg.HopTimeout = 2 * time.Second
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{}
	}
	client.Timeout = cfg.HopTimeout
	c := &Coordinator{cfg: cfg, client: client, nextID: 1, byID: make(map[uint64]int)}
	if cfg.Recovered != nil {
		if err := c.foldRecovered(cfg.Recovered); err != nil {
			return nil, err
		}
		// Read only at boot: do not keep the decoded journal reachable.
		c.cfg.Recovered = nil
		c.reconcile()
	}
	return c, nil
}

// Metrics exposes the counter block.
func (c *Coordinator) Metrics() *Metrics { return &c.met }

// WriteMetrics renders the coordinator's counters and committed-session
// gauge in Prometheus text format.
func (c *Coordinator) WriteMetrics(w io.Writer) {
	m := &c.met
	prom.Counter(w, "gpsd_coord_admits_total", "sessions committed end to end", float64(m.Admits.Load()))
	prom.Counter(w, "gpsd_coord_rejects_total", "admits refused by analysis or a hop's headroom", float64(m.Rejects.Load()))
	prom.Counter(w, "gpsd_coord_partition_aborts_total", "admits aborted by an unreachable hop", float64(m.PartitionAborts.Load()))
	prom.Counter(w, "gpsd_coord_releases_total", "sessions released end to end", float64(m.Releases.Load()))
	prom.Counter(w, "gpsd_coord_commit_retries_total", "hop commits re-sent after a lost reply", float64(m.CommitRetries.Load()))
	prom.Counter(w, "gpsd_coord_reconcile_drops_total", "journaled admits dropped at recovery because their hop sessions were gone", float64(m.ReconcileDrops.Load()))
	prom.Counter(w, "gpsd_coord_orphan_releases_total", "unjournaled hop sessions released at recovery", float64(m.OrphanReleases.Load()))
	prom.Gauge(w, "gpsd_coord_sessions", "committed end-to-end sessions", float64(c.Sessions()))
}

// Sessions returns the number of committed end-to-end sessions.
func (c *Coordinator) Sessions() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.sessions)
}

// AdmitRequest asks for an end-to-end session across Route (node
// indices into the topology) under an end-to-end delay target. The GPS
// weight at every hop is the session's ρ — the RPPS assignment of the
// paper's Theorem 15, which internal/network's machinery analyzes
// without per-hop tuning.
type AdmitRequest struct {
	Name    string
	Arrival ebb.Process
	Route   []int
	Target  admission.Target
}

// Validate checks the request against an n-node topology.
func (r AdmitRequest) Validate(n int) error {
	if err := r.Arrival.Validate(); err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	if err := r.Target.Validate(); err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	if len(r.Route) == 0 {
		return errors.New("cluster: empty route")
	}
	seen := make(map[int]bool, len(r.Route))
	for k, m := range r.Route {
		if m < 0 || m >= n {
			return fmt.Errorf("cluster: route hop %d references node %d of %d", k, m, n)
		}
		if seen[m] {
			return fmt.Errorf("cluster: route visits node %d twice", m)
		}
		seen[m] = true
	}
	return nil
}

// HopDelay is one hop's contribution to an end-to-end bound:
// Pr{D at this hop >= d} <= Prefactor·e^{-Rate·d}, with Rate = θ·g.
type HopDelay struct {
	Node      int
	Name      string
	HopID     uint64
	G         float64
	Theta     float64
	Prefactor float64
	Rate      float64
}

// Bound is an end-to-end delay guarantee: the exact convolved tail
// evaluated at the target delay (AchievedEps, the number the admit
// decision used) plus the single-exponential envelope
// Pr{D_net >= d} <= EnvPrefactor·e^{-EnvRate·d}.
type Bound struct {
	Delay        float64
	Eps          float64
	AchievedEps  float64
	EnvPrefactor float64
	EnvRate      float64
}

// AdmitResult reports one admit. Admitted=false with a Reason is an
// orderly refusal (analysis or hop headroom); transport failures
// surface as an ErrPartition error instead.
type AdmitResult struct {
	Admitted bool
	ID       uint64
	TxID     string
	Reason   string
	Bound    Bound
	Hops     []HopDelay
}

// RouteBounds is the per-session view served after admission, computed
// under the current committed set.
type RouteBounds struct {
	ID     uint64
	Name   string
	Target admission.Target
	Bound  Bound
	Hops   []HopDelay
}

func newTxID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("cluster: rand: %v", err)) // crypto/rand never fails on supported platforms
	}
	return hex.EncodeToString(b[:])
}

// boundFor evaluates session i's end-to-end bound from an analysis.
func boundFor(an *network.CRSTAnalysis, i int, target admission.Target) Bound {
	env := an.EndToEndDelayExpTail(i)
	return Bound{
		Delay:        target.Delay,
		Eps:          target.Eps,
		AchievedEps:  an.EndToEndDelayTail(i)(target.Delay),
		EnvPrefactor: env.Prefactor,
		EnvRate:      env.Rate,
	}
}

func (c *Coordinator) hopsFor(an *network.CRSTAnalysis, i int, hopIDs []uint64) []HopDelay {
	hops := make([]HopDelay, len(an.Hops[i]))
	for k, hb := range an.Hops[i] {
		hops[k] = HopDelay{
			Node:      hb.Node,
			Name:      c.cfg.Topology.Nodes[hb.Node].Name,
			G:         hb.G,
			Theta:     hb.Theta,
			Prefactor: hb.Delay.Prefactor,
			Rate:      hb.Delay.Rate,
		}
		if hopIDs != nil {
			hops[k].HopID = hopIDs[k]
		}
	}
	return hops
}

// Admit runs the full protocol: analyze the candidate against the
// committed set, and if the composed end-to-end bound meets the
// target, prepare the session's weight at every hop on the route, then
// commit. Admits are serialized — the analysis that justified the
// admit is exactly the analysis of the set the commit produces.
func (c *Coordinator) Admit(req AdmitRequest) (AdmitResult, error) {
	if err := req.Validate(len(c.cfg.Topology.Nodes)); err != nil {
		return AdmitResult{}, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()

	n := len(c.sessions)
	// The candidate goes last, appended to a copy capped at the committed
	// length: it must never land in the live set's backing array before
	// the commit.
	cand := wal.RouteSessionRecord{
		Name: req.Name, Rho: req.Arrival.Rho, Lambda: req.Arrival.Lambda, Alpha: req.Arrival.Alpha,
		Delay: req.Target.Delay, Eps: req.Target.Eps, Route: append([]int(nil), req.Route...),
	}
	an, err := BuildNetwork(c.cfg.Topology, append(c.sessions[:n:n], cand)).AnalyzeCRST(c.cfg.CRST)
	if err != nil {
		// Stability violation or non-CRST assignment: an orderly
		// refusal, decided before any hop was touched.
		c.met.Rejects.Add(1)
		return AdmitResult{Reason: err.Error()}, nil
	}
	bound := boundFor(an, n, req.Target)
	if !(bound.AchievedEps <= req.Target.Eps) {
		c.met.Rejects.Add(1)
		return AdmitResult{
			Reason: fmt.Sprintf("end-to-end delay bound %g at d=%g exceeds eps %g",
				bound.AchievedEps, req.Target.Delay, req.Target.Eps),
			Bound: bound,
		}, nil
	}

	// Phase 1: reserve φ = ρ at every hop, in route order. Any
	// refusal or transport failure rolls back what was prepared.
	txid := newTxID()
	shards := make([]int, len(req.Route))
	for k, m := range req.Route {
		pr, err := c.prepareHop(m, txid, req)
		if err != nil {
			c.rollback(txid, req.Route[:k], shards[:k])
			c.met.PartitionAborts.Add(1)
			return AdmitResult{}, fmt.Errorf("%w: prepare at %s: %v",
				ErrPartition, c.cfg.Topology.Nodes[m].Name, err)
		}
		if !pr.Prepared {
			c.rollback(txid, req.Route[:k], shards[:k])
			c.met.Rejects.Add(1)
			return AdmitResult{
				TxID:   txid,
				Reason: fmt.Sprintf("hop %s refused: %s", c.cfg.Topology.Nodes[m].Name, pr.Reason),
				Bound:  bound,
			}, nil
		}
		shards[k] = pr.Shard
	}

	// Phase 2: commit in route order. A transport failure leaves the
	// hop in doubt — the commit may have landed with its ack lost — so
	// it is retried once: hop commits are idempotent by txid (a hop
	// that already committed replays the recorded session id instead of
	// re-admitting). Only an orderly refusal, or a retry that also
	// fails, aborts. Then fail closed: abort everything not
	// known-committed (the hop compensates an abort of a tx it already
	// committed by releasing the session it created) and release the
	// committed prefix.
	hopIDs := make([]uint64, len(req.Route))
	for k, m := range req.Route {
		cr, err := c.commitHop(m, txid, shards[k])
		if err != nil {
			c.met.CommitRetries.Add(1)
			cr, err = c.commitHop(m, txid, shards[k])
		}
		if err != nil || !cr.Committed {
			c.rollback(txid, req.Route[k:], shards[k:])
			c.releaseHops(req.Route[:k], hopIDs[:k])
			c.met.PartitionAborts.Add(1)
			detail := cr.Reason
			if err != nil {
				detail = err.Error()
			}
			return AdmitResult{}, fmt.Errorf("%w: commit at %s: %s",
				ErrPartition, c.cfg.Topology.Nodes[m].Name, detail)
		}
		hopIDs[k] = cr.ID
	}

	// Journal the route record before touching memory or replying: a
	// coordinator that dies past this append re-serves the admit after
	// restart; one that dies before it leaves only hop sessions, which
	// outlive the prepare TTL and are then swept by the restart's
	// orphan reconcile.
	id := c.nextID
	if err := c.journal(wal.Op{
		Kind: wal.KindRouteAdmit, ID: id, Name: req.Name,
		Rho: req.Arrival.Rho, Lambda: req.Arrival.Lambda, Alpha: req.Arrival.Alpha,
		Delay: req.Target.Delay, Eps: req.Target.Eps,
		Route: req.Route, HopIDs: hopIDs, HopShards: shards,
	}); err != nil {
		// Fully committed on the hops but not durable here: release the
		// hop sessions (best effort) rather than serve an admit a
		// restart would forget.
		c.releaseHops(req.Route, hopIDs)
		c.met.PartitionAborts.Add(1)
		return AdmitResult{}, fmt.Errorf("%w: admit: %v", ErrDurability, err)
	}
	c.nextID++
	c.byID[id] = n
	cand.ID, cand.HopIDs, cand.Shards = id, hopIDs, shards
	c.sessions = append(c.sessions, cand)
	// The candidate was analyzed appended last, which is exactly the
	// committed set now — the cache is the admit's own analysis.
	c.analysis = an
	c.met.Admits.Add(1)
	return AdmitResult{
		Admitted: true,
		ID:       id,
		TxID:     txid,
		Bound:    bound,
		Hops:     c.hopsFor(an, n, hopIDs),
	}, nil
}

// RouteBounds returns session id's bounds under the current committed
// set (recomputing the analysis only if a release invalidated the
// admit-time cache).
func (c *Coordinator) RouteBounds(id uint64) (RouteBounds, bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	idx, ok := c.byID[id]
	if !ok {
		return RouteBounds{}, false, nil
	}
	if c.analysis == nil {
		an, err := BuildNetwork(c.cfg.Topology, c.sessions).AnalyzeCRST(c.cfg.CRST)
		if err != nil {
			return RouteBounds{}, false, fmt.Errorf("cluster: reanalysis: %w", err)
		}
		c.analysis = an
	}
	s := c.sessions[idx]
	target := admission.Target{Delay: s.Delay, Eps: s.Eps}
	return RouteBounds{
		ID:     s.ID,
		Name:   s.Name,
		Target: target,
		Bound:  boundFor(c.analysis, idx, target),
		Hops:   c.hopsFor(c.analysis, idx, s.HopIDs),
	}, true, nil
}

// Release tears an end-to-end session down, releasing its hop sessions
// in route order. If any hop is unreachable the coordinator keeps the
// session and returns found=true with ErrPartition — the id is known,
// the release is merely incomplete, and the two must not be conflated
// (a caller that read "not found" would stop retrying and strand the
// remaining hop capacity). Hops that did release now carry less load
// than the coordinator's model, so the model stays conservative, and a
// retry re-releases idempotently (a hop that already dropped the
// session answers 404, which counts as released).
func (c *Coordinator) Release(id uint64) (bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	idx, ok := c.byID[id]
	if !ok {
		return false, nil
	}
	s := c.sessions[idx]
	for k, m := range s.Route {
		if err := c.releaseHop(m, s.HopIDs[k]); err != nil {
			return true, fmt.Errorf("%w: release at %s: %v",
				ErrPartition, c.cfg.Topology.Nodes[m].Name, err)
		}
	}
	// Tombstone before memory: a coordinator that dies past this append
	// stays released after restart. On append failure the session is
	// kept — conservative, like a partial hop release — and the next
	// restart's reconcile sees its hop sessions gone and drops it.
	if err := c.journal(wal.Op{Kind: wal.KindRouteRelease, ID: id}); err != nil {
		return true, fmt.Errorf("%w: release: %v", ErrDurability, err)
	}
	c.removeSessionAt(idx)
	c.analysis = nil
	c.met.Releases.Add(1)
	return true, nil
}

// --- hop RPCs ---------------------------------------------------------

// Wire shapes mirror internal/server's HTTP surface.

type hopPrepareWire struct {
	TxID   string  `json:"txid"`
	Name   string  `json:"name"`
	Rho    float64 `json:"rho"`
	Lambda float64 `json:"lambda"`
	Alpha  float64 `json:"alpha"`
	Delay  float64 `json:"delay"`
	Eps    float64 `json:"eps"`
	Phi    float64 `json:"phi"`
	TTLms  int64   `json:"ttl_ms"`
}

type hopPrepareReply struct {
	Prepared bool    `json:"prepared"`
	Shard    int     `json:"shard"`
	Deadline int64   `json:"deadline_unix_nano"`
	Free     float64 `json:"free"`
	Reason   string  `json:"reason"`
}

type hopTxWire struct {
	TxID  string `json:"txid"`
	Shard int    `json:"shard"`
}

type hopCommitReply struct {
	Committed bool   `json:"committed"`
	ID        string `json:"id"`
	Reason    string `json:"reason"`
}

type hopCommitResult struct {
	Committed bool
	ID        uint64
	Reason    string
}

// postJSON POSTs body and decodes a 200 reply into out. Any non-200
// status or transport error is returned as an error — the caller
// treats it as a partition.
func (c *Coordinator) postJSON(url string, body, out any) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := c.client.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		snippet, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(snippet))
	}
	return json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(out)
}

// prepareHop reserves the candidate's weight at node m. The hop's
// target fields record the session's end-to-end objective; the
// authoritative end-to-end bound is the coordinator's CRST analysis
// (each hop alone would price the session against its local Theorem 4
// view, which knows nothing about upstream reshaping).
func (c *Coordinator) prepareHop(m int, txid string, req AdmitRequest) (hopPrepareReply, error) {
	var out hopPrepareReply
	err := c.postJSON(c.cfg.Topology.hopBase(m)+"/v1/prepare", hopPrepareWire{
		TxID:   txid,
		Name:   req.Name,
		Rho:    req.Arrival.Rho,
		Lambda: req.Arrival.Lambda,
		Alpha:  req.Arrival.Alpha,
		Delay:  req.Target.Delay,
		Eps:    req.Target.Eps,
		Phi:    req.Arrival.Rho,
		TTLms:  c.cfg.PrepareTTL.Milliseconds(),
	}, &out)
	return out, err
}

func (c *Coordinator) commitHop(m int, txid string, shard int) (hopCommitResult, error) {
	var out hopCommitReply
	if err := c.postJSON(c.cfg.Topology.hopBase(m)+"/v1/commit", hopTxWire{TxID: txid, Shard: shard}, &out); err != nil {
		return hopCommitResult{}, err
	}
	res := hopCommitResult{Committed: out.Committed, Reason: out.Reason}
	if out.Committed {
		id, err := parseUint(out.ID)
		if err != nil {
			return hopCommitResult{}, fmt.Errorf("commit reply id %q: %v", out.ID, err)
		}
		res.ID = id
	}
	return res, nil
}

// rollback aborts txid at each given hop, best effort: an unreachable
// hop keeps its prepare until the TTL expires it, which is exactly the
// capacity-safety backstop the TTL exists for.
func (c *Coordinator) rollback(txid string, route []int, shards []int) {
	for k, m := range route {
		var out map[string]any
		_ = c.postJSON(c.cfg.Topology.hopBase(m)+"/v1/abort", hopTxWire{TxID: txid, Shard: shards[k]}, &out)
	}
}

// releaseHop deletes one hop session; 404 counts as already released.
func (c *Coordinator) releaseHop(m int, hopID uint64) error {
	req, err := http.NewRequest(http.MethodDelete,
		fmt.Sprintf("%s/v1/sessions/%d", c.cfg.Topology.hopBase(m), hopID), nil)
	if err != nil {
		return err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound {
		return fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	return nil
}

// releaseHops compensates a half-committed admit, best effort.
func (c *Coordinator) releaseHops(route []int, hopIDs []uint64) {
	for k, m := range route {
		_ = c.releaseHop(m, hopIDs[k])
	}
}

func parseUint(s string) (uint64, error) {
	return strconv.ParseUint(s, 10, 64)
}
