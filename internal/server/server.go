// Package server is the long-running admission-control daemon layered
// over the batch GPS analysis stack: it holds a live gpsmath.Server
// session set in memory, answers soft-QoS admission requests online
// (paper §7 — each session declares Pr{D >= d} <= eps), and serves
// per-session tail bounds and the feasible partition from immutable
// analysis snapshots.
//
// The core design is a single-writer, epoch-snapshot architecture.
// Admit and release requests are O(1) decisions made by one writer
// goroutine against incremental state (Σ required rates vs. the link
// rate — sound because weights equal required rates, so every admitted
// session is an H_1 session and Theorem 10 gives it exactly the Lemma 5
// bound its rate was sized against). The expensive O(N log N)
// AnalyzeServer pass never runs per request: the writer coalesces
// mutations and periodically publishes a new immutable Epoch (session
// set + full memoized analysis + revalidated feasible partition) via an
// atomic pointer. Readers serve bounds and partition queries lock-free
// from the current epoch. The mutation queue is bounded; when it fills,
// submissions fail fast with ErrBusy so the HTTP layer can shed load
// with 429 + Retry-After instead of blocking, and Close drains the
// queue and publishes a final epoch before returning (graceful SIGTERM
// semantics for cmd/gpsd).
package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	"repro/internal/ebb"
	"repro/internal/gpsmath"
	"repro/internal/ledger"
	"repro/internal/wal"
)

// AdmissionLog is the durability sink the writer appends every decided
// mutation to before replying (internal/wal.Log implements it). The
// daemon takes ownership: the log is snapshotted and closed when the
// writer drains.
type AdmissionLog interface {
	Append(ops []wal.Op) error
	// Snapshot persists st; the caller stamps st.Seq with the sequence
	// of the last op folded into it.
	Snapshot(st wal.State) error
	// NextSeq reports the sequence number the next append will get.
	NextSeq() uint64
	Close() error
}

// AuditSink observes the durable op stream (see Config.Audit).
type AuditSink interface {
	Record(op wal.Op)
}

// Config sizes a Daemon. The zero value of every field but Rate is
// usable; New applies the documented defaults.
type Config struct {
	// Rate is the GPS link rate admitted sessions share. Required.
	Rate float64
	// QueueDepth bounds the mutation queue; submissions beyond it are
	// shed with ErrBusy (default 4096).
	QueueDepth int
	// MaxBatch forces an epoch rebuild after this many mutations even
	// under continuous load, bounding how far published bounds can lag
	// the live session set (default 4096).
	MaxBatch int
	// MaxEpochAge bounds epoch staleness in wall time: the writer
	// rebuilds whenever the current epoch is older than this and
	// mutations are pending (default 100ms).
	MaxEpochAge time.Duration
	// Opts are the analysis options every epoch is computed under; nil
	// selects {Independent: true, Xi: XiOptimal}, the daemon's view that
	// admitted sessions arrive independently.
	Opts *gpsmath.Options
	// RetryAfter is the backpressure hint the HTTP layer attaches to
	// shed responses (default 1s).
	RetryAfter time.Duration
	// Log, when non-nil, makes every admit/release durable: the writer
	// appends the op before mutating state or replying, and a mutation
	// whose append fails is not applied (the caller sees ErrWAL). The
	// daemon owns the log and closes it on drain.
	Log AdmissionLog
	// Recovered seeds the writer state from a WAL recovery (wal.Open);
	// nil starts empty. The session set, admission order, running Σφ,
	// and id counter are restored bit-for-bit, so the first published
	// epoch matches an offline AnalyzeServer over the same op history.
	Recovered *wal.Recovered
	// Audit, when non-nil alongside Log, receives every op the log
	// accepted, already stamped with its assigned sequence
	// (internal/replication.Audit implements it). The call happens on
	// the writer goroutine after the append succeeds, so the sink sees
	// exactly the durable history in order; implementations must be
	// cheap (the replication audit trail just enqueues).
	Audit AuditSink
	// SnapshotEvery writes a WAL state snapshot after this many logged
	// mutations, bounding replay length on the next boot (default 131072).
	SnapshotEvery int
	// SelfCheckEvery runs a from-scratch analysis against every Nth
	// delta-built epoch and adopts it (plus a metric) on any bit
	// difference. Default 128; negative disables.
	SelfCheckEvery int

	// Crash, when non-nil, is consulted at the writer's cluster
	// durability boundaries (CrashClusterPrepare) — the same fault
	// injector the WAL takes through wal.Options.Crash, threaded here so
	// cmd/gpsd -crashpoint can kill between a journaled prepare and its
	// acknowledgement.
	Crash wal.Crashpoint
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4096
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 4096
	}
	if c.MaxEpochAge <= 0 {
		c.MaxEpochAge = 100 * time.Millisecond
	}
	if c.Opts == nil {
		c.Opts = &gpsmath.Options{Independent: true, Xi: gpsmath.XiOptimal}
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.SnapshotEvery <= 0 {
		c.SnapshotEvery = 131072
	}
	if c.SelfCheckEvery == 0 {
		c.SelfCheckEvery = 128
	}
	return c
}

// shardSlot places a writer inside the sharded facade. New's slot —
// the whole rate, no ledger, ids from 0 in steps of 1, a private rate
// memo — is the standalone daemon, and a one-shard facade's.
type shardSlot struct {
	// id and bits: session ids carry the shard id in their low bits, so
	// the writer assigns ids with a stride of 1<<bits starting at id.
	id   uint64
	bits uint
	// capacity is the slice of the link rate the writer admits against
	// and analyzes at. Per-shard capacities always sum to at most the
	// rate (the ledger enforces it), so per-shard analysis at capacity
	// is a sound hierarchical GPS decomposition of the link.
	capacity float64
	// ledger, when non-nil, lets the writer grow capacity on demand: an
	// admit that overflows the slice reserves a refill, batched in
	// quantum units, from the shared budget instead of rejecting, and
	// releases return surplus slack. Nil pins capacity.
	ledger  *ledger.Ledger
	quantum float64
	// rates is the required-rate memo every shard shares; nil builds a
	// private one.
	rates *RateMemo
}

// Errors the submission path can return. ErrBusy is the backpressure
// signal (queue full — retry later); ErrDraining means the daemon is
// shutting down and accepts no further mutations.
var (
	ErrBusy     = errors.New("server: admission queue full")
	ErrDraining = errors.New("server: daemon draining")
	// ErrWAL means the write-ahead log rejected the mutation's append;
	// the mutation was not applied (durability before visibility).
	ErrWAL = errors.New("server: write-ahead log append failed")
	// ErrPublish wraps an analysis refusal of a writer's population: the
	// previous epoch stays published and Health reads degraded until a
	// publish succeeds.
	ErrPublish = errors.New("server: epoch publish refused")
)

// record is the writer-owned state of one admitted session.
type record struct {
	ID      uint64
	Name    string
	Arrival ebb.Process
	Target  admission.Target
	G       float64    // required rate = GPS weight φ
	pos     int        // index in Daemon.shIDs, -1 once released (writer-owned)
	te      *typeEntry // owning type bucket (writer-owned)
	typePos int        // index in te.recs (writer-owned)
}

type opKind int

const (
	opAdmit opKind = iota
	opRelease
	opExec // test hook: run fn on the writer goroutine
	opPrepare
	opCommitTx
	opAbortTx
)

type op struct {
	kind   opKind
	name   string
	arr    ebb.Process
	target admission.Target
	g      float64       // precomputed required rate (opAdmit) or reserved φ (opPrepare)
	id     uint64        // opRelease
	txid   string        // opPrepare/opCommitTx/opAbortTx
	ttl    time.Duration // opPrepare
	fn     func()        // opExec
	reply  chan opResult
}

type opResult struct {
	ok       bool
	id       uint64
	free     float64 // headroom left after the decision
	deadline int64   // prepare expiry, unix nanoseconds (opPrepare)
	reason   string  // refusal detail (cluster ops)
	err      error   // non-nil when the WAL refused the mutation
}

// rateKey memoizes admission.RequiredRate per distinct (E.B.B., target)
// tuple; the bisection is a pure function of these five floats.
type rateKey struct{ rho, lambda, alpha, delay, eps float64 }

// rateCacheMax bounds the required-rate memo so adversarial request
// streams (every request a fresh tuple, as the fuzzer produces) cannot
// grow it without limit.
const rateCacheMax = 1 << 16

// typeKey identifies a declared session type: its E.B.B. triple, its
// GPS weight φ and its target. φ belongs to the key because two paths
// reserve it: a direct admit reserves the required rate, a cluster
// commit the coordinator's φ (= ρ), so one (arrival, target) can carry
// two weights and two different bounds.
type typeKey struct{ rho, lambda, alpha, phi, delay, eps float64 }

// sessionType is the type key of a session with arrival arr, weight phi
// and target tg.
func sessionType(arr ebb.Process, phi float64, tg admission.Target) typeKey {
	return typeKey{arr.Rho, arr.Lambda, arr.Alpha, phi, tg.Delay, tg.Eps}
}

// typeEntry tracks the admitted sessions of one type. Sessions of one
// type are indistinguishable to the per-session theory — same arrival,
// same φ, hence the same ρ/φ ratio, the same partition class and
// bit-identical bounds — so epoch bookkeeping folds over types instead
// of sessions.
type typeEntry struct {
	// recs holds the member records, swap-remove maintained via each
	// record's typePos back-pointer: membership updates are O(1) slice
	// moves on the decision path, with no per-op hashing beyond the
	// admit's one type-map lookup.
	recs []*record
}

func (te *typeEntry) count() int { return len(te.recs) }

// any returns an arbitrary member id; callers use it to pick the
// type's representative session in an epoch.
func (te *typeEntry) any() uint64 {
	if len(te.recs) == 0 {
		return 0
	}
	return te.recs[0].ID
}

func (d *Daemon) typeAdd(rec *record) {
	k := sessionType(rec.Arrival, rec.G, rec.Target)
	// One-entry cache: admission bursts are overwhelmingly same-type,
	// and a six-float compare beats hashing the 48-byte key.
	te := d.lastType
	if te == nil || d.lastTypeKey != k {
		te = d.types[k]
		if te == nil {
			te = &typeEntry{}
			d.types[k] = te
		}
		d.lastTypeKey, d.lastType = k, te
	}
	rec.te = te
	rec.typePos = len(te.recs)
	te.recs = append(te.recs, rec)
}

func (d *Daemon) typeRemove(rec *record) {
	te := rec.te
	if te == nil {
		return
	}
	last := len(te.recs) - 1
	if rec.typePos != last {
		moved := te.recs[last]
		te.recs[rec.typePos] = moved
		moved.typePos = rec.typePos
	}
	te.recs = te.recs[:last]
	rec.te = nil
	if last == 0 {
		delete(d.types, sessionType(rec.Arrival, rec.G, rec.Target))
		if d.lastType == te {
			d.lastType = nil
		}
	}
}

// Daemon is the live admission-control service. Build with New; all
// exported methods are safe for concurrent use.
type Daemon struct {
	cfg  Config
	slot shardSlot
	met  *Metrics

	ops     chan op
	mu      sync.RWMutex // guards closing against in-flight submits
	closing bool
	stopped chan struct{}

	epoch atomic.Pointer[Epoch]
	live  sync.Map // uint64 -> *record; written only by the writer

	rates *RateMemo

	// capBits mirrors the writer's capacity for lock-free scrape reads
	// (Float64bits; the writer updates it on every ledger move).
	capBits atomic.Uint64
	// degraded is set while the writer's latest publish attempt failed.
	degraded atomic.Bool

	// Writer-owned state (no locks: only the run goroutine touches it).
	sessions    map[uint64]*record
	used        float64 // Σ required rates of the admitted set
	capacity    float64 // admission headroom ceiling (== cfg.Rate unless a ledger resizes it)
	capDirty    bool    // capacity moved since the last analyzer refresh
	stride      uint64  // id increment: 1<<slot.bits
	nextID      uint64
	opsSince    int // mutations since the last published epoch
	dirty       bool
	lastRebuild time.Time
	walOps      int      // logged mutations since the last WAL snapshot
	walScratch  []wal.Op // reusable single-op batch for the hot path

	// Cluster two-phase state (writer-owned; see prepare.go). reserved
	// is always the from-scratch sum over prepares in slice order, so an
	// emptied pending set leaves it exactly 0.0. resBits/prepN mirror it
	// for lock-free Health reads.
	prepares []*prepareRec
	reserved float64
	resBits  atomic.Uint64
	prepN    atomic.Int64
	// resolvedTx is the recently-committed transaction memory (commit
	// idempotency + abort-after-commit compensation); clusterTx marks
	// which live sessions came from cluster commits (the coordinator's
	// orphan-sweep feed). Both writer-owned; see prepare.go.
	resolvedTx map[string]resolvedTxRec
	clusterTx  map[uint64]clusterTxRec

	// Incremental-epoch state (writer-owned). delta is the persistent
	// analyzer every decision is staged into. The shadow arrays mirror
	// the epoch-visible bookkeeping under an append-share /
	// copy-on-first-interior-write discipline so published epochs stay
	// immutable: shIDs (the admission order; admits append, releases
	// swap-remove) and shTargets change with every decision, the sorted
	// id index only at a publish.
	delta       *gpsmath.DeltaAnalyzer
	shadow      *shadowBacking // refcounted arrays the sh* slices alias
	shIDs       []uint64
	shTargets   []admission.Target
	shIDsSorted []uint64
	shPosSorted []int
	shShared    int // leading shadow slots a published epoch reads
	// touched lists the records whose sorted-index entries a publish
	// must fix: indexed records released since the last one, and records
	// a release moved below idxLow. Every slot at or above idxLow — the
	// lowest population since the last index update — holds a session
	// admitted since, so touched and that tail are all a publish reads.
	touched     []*record
	idxLow      int
	types       map[typeKey]*typeEntry
	lastTypeKey typeKey
	lastType    *typeEntry
	deltaBuilds int // delta-built epochs, drives the self-check cadence
	// retired lists the superseded epochs a reader still pinned at the
	// last reclaim; freeShadow holds the shadow backings no epoch reads;
	// recycled counts the epochs reclaim recycled.
	retired    []*Epoch
	freeShadow []*shadowBacking
	recycled   int

	// Snapshot offload: the writer captures the state synchronously
	// (cheap) and a background goroutine pays for the disk work, so
	// admits never stall behind the snapshot's fsyncs.
	snapBusy atomic.Bool
	snapWG   sync.WaitGroup
}

// New starts a daemon for a link of the given rate and returns it with
// an initial epoch already published. When cfg.Recovered carries a WAL
// history, the writer state is seeded from it first, so that initial
// epoch is the recovered admitted set, analyzed exactly as a fresh
// offline AnalyzeServer over the same op history would.
func New(cfg Config) (*Daemon, error) {
	var st *wal.State
	if cfg.Recovered != nil {
		folded, err := cfg.Recovered.SessionSet()
		if err != nil {
			return nil, fmt.Errorf("server: replaying recovered history: %w", err)
		}
		st = &folded
	}
	return newDaemon(cfg, shardSlot{capacity: cfg.Rate}, st)
}

// newDaemon starts the writer for slot with cfg.Recovered already
// folded into st (nil exactly when cfg.Recovered is), so the sharded
// facade, which folds each stripe for its capacity split, never folds
// one twice.
func newDaemon(cfg Config, slot shardSlot, st *wal.State) (*Daemon, error) {
	cfg = cfg.withDefaults()
	if err := validateRate(cfg.Rate); err != nil {
		return nil, err
	}
	rates := slot.rates
	if rates == nil {
		rates = NewRateMemo(rateCacheMax)
	}
	d := &Daemon{
		cfg:        cfg,
		slot:       slot,
		met:        NewMetrics(),
		rates:      rates,
		ops:        make(chan op, cfg.QueueDepth),
		stopped:    make(chan struct{}),
		sessions:   make(map[uint64]*record),
		types:      make(map[typeKey]*typeEntry),
		resolvedTx: make(map[string]resolvedTxRec),
		clusterTx:  make(map[uint64]clusterTxRec),
		capacity:   slot.capacity,
		stride:     1 << slot.bits,
		nextID:     slot.id,
	}
	if st != nil {
		if st.NextID != 0 {
			if st.NextID&(d.stride-1) != slot.id {
				return nil, fmt.Errorf("server: recovered id counter %d does not belong to shard %d/%d bits",
					st.NextID, slot.id, slot.bits)
			}
			d.nextID = st.NextID
		}
		d.ownShadow(len(st.Sessions)) // one backing sized for the recovered set
		for _, s := range st.Sessions {
			d.addRecord(&record{
				ID:      s.ID,
				Name:    s.Name,
				Arrival: ebb.Process{Rho: s.Rho, Lambda: s.Lambda, Alpha: s.Alpha},
				Target:  admission.Target{Delay: s.Delay, Eps: s.Eps},
				G:       s.G,
			})
		}
		d.used = st.Used // the live writer's running sum, not a recomputation
		for _, p := range st.Prepares {
			d.prepares = append(d.prepares, &prepareRec{
				txid: p.TxID, name: p.Name,
				arr:      ebb.Process{Rho: p.Rho, Lambda: p.Lambda, Alpha: p.Alpha},
				target:   admission.Target{Delay: p.Delay, Eps: p.Eps},
				g:        p.G,
				deadline: p.Deadline,
			})
		}
		d.recalcReserved()
		// Rebuild the cluster transaction memory from the recovered op
		// suffix: every replayed KindCommit carries both the transaction
		// id and the session id it assigned, so a coordinator retrying a
		// commit whose ack died with the old process still gets the
		// idempotent answer, and the orphan sweep can see which surviving
		// sessions were cluster-committed. Ages are stamped at boot —
		// conservative: a recovered session looks freshly committed, so
		// the sweep waits a full TTL before touching it. Ops folded into
		// a snapshot are not in the suffix; their sessions lose the
		// marking and are simply never orphan-released.
		bootNanos := time.Now().UnixNano()
		for _, o := range cfg.Recovered.Ops {
			switch o.Kind {
			case wal.KindCommit:
				d.resolvedTx[o.TxID] = resolvedTxRec{id: o.ID, at: bootNanos}
				if _, live := d.sessions[o.ID]; live {
					d.clusterTx[o.ID] = clusterTxRec{txid: o.TxID, at: bootNanos}
				}
			case wal.KindRelease:
				delete(d.clusterTx, o.ID)
			}
		}
		// In-doubt prepares from a coordinator that died before
		// resolving: anything past its TTL releases its reservation now,
		// journaled as KindExpire, before the daemon serves traffic. The
		// writer goroutine has not started, so appending directly is the
		// single-writer discipline, not a violation of it.
		d.expirePrepares(time.Now().UnixNano())
		d.met.WALRecoveredOps.Store(int64(len(cfg.Recovered.Ops)))
		// The history is read only here; holding it would keep the whole
		// decoded log reachable for the life of the process.
		d.cfg.Recovered = nil
	}
	d.capBits.Store(math.Float64bits(d.capacity))
	ep, err := d.buildEpoch(1)
	if err != nil {
		return nil, fmt.Errorf("server: recovered session set failed analysis: %w", err)
	}
	d.publish(ep)
	d.met.FullRebuilds.Add(1)
	d.lastRebuild = time.Now()
	d.dirty, d.opsSince = false, 0
	go d.run()
	return d, nil
}

// Metrics returns the daemon's counter set.
func (d *Daemon) Metrics() *Metrics { return d.met }

// Rate returns the configured link rate.
func (d *Daemon) Rate() float64 { return d.cfg.Rate }

// RetryAfter returns the configured backpressure hint.
func (d *Daemon) RetryAfter() time.Duration { return d.cfg.RetryAfter }

// QueueDepth returns the instantaneous mutation-queue occupancy.
func (d *Daemon) QueueDepth() int { return len(d.ops) }

// CurrentEpoch returns the most recently published immutable snapshot
// for the caller to keep: the epoch is marked escaped, so the writer
// never recycles its arrays and the collector frees them once the last
// reference goes. The serving paths pin instead (pinEpoch), which lets
// the writer reuse an epoch's arrays once its readers are done.
func (d *Daemon) CurrentEpoch() *Epoch {
	ep := d.pinEpoch()
	ep.escaped.Store(true)
	ep.unpin()
	return ep
}

// Pending reports whether the session is admitted in the live set even
// if it has not yet appeared in a published epoch (epoch lag), letting
// the HTTP layer distinguish "retry shortly" from "unknown session".
func (d *Daemon) Pending(id uint64) bool {
	_, ok := d.live.Load(id)
	return ok
}

// AdmitRequest is one session asking to join the link.
type AdmitRequest struct {
	Name    string
	Arrival ebb.Process
	Target  admission.Target
}

// AdmitResult is the daemon's decision. When Admitted is false, Reason
// says why; ID is assigned only on acceptance.
type AdmitResult struct {
	Admitted     bool
	ID           uint64
	RequiredRate float64
	Free         float64 // link headroom after the decision
	Reason       string
}

// Admit decides a request. Validation failures return an error (the
// request is malformed); a well-formed request that does not fit the
// link returns Admitted == false with a Reason. ErrBusy and ErrDraining
// report backpressure and shutdown respectively.
func (d *Daemon) Admit(req AdmitRequest) (AdmitResult, error) {
	g, rej, ok, err := sizeAdmit(d.rates, d.met, req)
	if !ok {
		return rej, err
	}
	return d.admitSized(req, g)
}

// sizeAdmit validates an admit request and looks up its required rate
// in the memo, counting the hit or miss on met. A request that is
// well-formed but unsatisfiable at any finite rate is a rejection, not
// a caller error: it comes back as rej with ok false and a nil error.
func sizeAdmit(rates *RateMemo, met *Metrics, req AdmitRequest) (g float64, rej AdmitResult, ok bool, err error) {
	if err := req.Arrival.Validate(); err != nil {
		return 0, AdmitResult{}, false, err
	}
	if err := req.Target.Validate(); err != nil {
		return 0, AdmitResult{}, false, err
	}
	g, hit, err := rates.Required(req.Arrival, req.Target)
	if err != nil {
		met.Rejects.Add(1)
		return 0, AdmitResult{Reason: err.Error()}, false, nil
	}
	if hit {
		met.CacheHits.Add(1)
	} else {
		met.CacheMisses.Add(1)
	}
	return g, AdmitResult{}, true, nil
}

// admitSized decides a validated request whose required rate g is
// already known.
func (d *Daemon) admitSized(req AdmitRequest, g float64) (AdmitResult, error) {
	res, err := d.submit(op{kind: opAdmit, name: req.Name, arr: req.Arrival,
		target: req.Target, g: g})
	if err != nil {
		return AdmitResult{}, err
	}
	if res.err != nil {
		return AdmitResult{}, res.err
	}
	out := AdmitResult{Admitted: res.ok, ID: res.id, RequiredRate: g, Free: res.free}
	if !res.ok {
		out.Reason = "insufficient link headroom"
	}
	return out, nil
}

// Release removes an admitted session by id. It reports whether the id
// was present; ErrBusy/ErrDraining as for Admit.
func (d *Daemon) Release(id uint64) (bool, error) {
	res, err := d.submit(op{kind: opRelease, id: id})
	if err != nil {
		return false, err
	}
	if res.err != nil {
		return false, res.err
	}
	return res.ok, nil
}

// exec runs fn on the writer goroutine and waits for it — a test hook
// for deterministically stalling or inspecting writer state.
func (d *Daemon) exec(fn func()) error {
	_, err := d.submit(op{kind: opExec, fn: fn})
	return err
}

// Rebuild forces an epoch publish on the writer goroutine and waits
// for it: the deterministic flush used by tests and the epoch
// benchmarks to publish per-op without retuning MaxBatch. A refused
// analysis comes back wrapped in ErrPublish.
func (d *Daemon) Rebuild() error {
	var err error
	if xerr := d.exec(func() { err = d.rebuild() }); xerr != nil {
		return xerr
	}
	return err
}

// replyPool recycles reply channels across requests: every use
// receives exactly the one result the writer sends (or nothing, when
// the request is shed before enqueueing), so a returned channel is
// always empty.
var replyPool = sync.Pool{New: func() any { return make(chan opResult, 1) }}

// submit enqueues without blocking: a full queue sheds the request.
// submit owns o.reply; callers leave it nil.
func (d *Daemon) submit(o op) (opResult, error) {
	reply := replyPool.Get().(chan opResult)
	o.reply = reply
	d.mu.RLock()
	if d.closing {
		d.mu.RUnlock()
		replyPool.Put(reply)
		return opResult{}, ErrDraining
	}
	select {
	case d.ops <- o:
		d.mu.RUnlock()
	default:
		d.mu.RUnlock()
		d.met.Shed.Add(1)
		replyPool.Put(reply)
		return opResult{}, ErrBusy
	}
	res := <-reply
	replyPool.Put(reply)
	return res, nil
}

// Close drains: no new mutations are accepted, everything already
// queued is decided and answered, a final epoch is published, and the
// writer exits. Safe to call more than once.
func (d *Daemon) Close(ctx context.Context) error {
	d.mu.Lock()
	already := d.closing
	d.closing = true
	d.mu.Unlock()
	if !already {
		close(d.ops)
	}
	select {
	case <-d.stopped:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// run is the single-writer loop: decide every queued mutation in O(1),
// and publish a fresh epoch whenever enough mutations accumulated
// (MaxBatch) or the current epoch grew stale (MaxEpochAge). The ticker
// covers the idle case where mutations stop arriving before a rebuild
// threshold is met.
func (d *Daemon) run() {
	ticker := time.NewTicker(d.cfg.MaxEpochAge)
	defer ticker.Stop()
	for {
		select {
		case o, ok := <-d.ops:
			if !ok {
				if d.dirty {
					d.rebuild()
				}
				d.closeLog()
				close(d.stopped)
				return
			}
			d.apply(o)
			// The snapshot cadence is checked after apply returns, never
			// inside logAppend: the captured state must already reflect
			// the op that crossed the threshold, or the snapshot's seq
			// stamp would claim one op more than the state holds.
			if d.cfg.Log != nil && d.walOps >= d.cfg.SnapshotEvery {
				d.walOps = 0
				d.walSnapshot()
			}
			if d.dirty && (d.opsSince >= d.cfg.MaxBatch ||
				time.Since(d.lastRebuild) >= d.cfg.MaxEpochAge) {
				d.rebuild()
			}
		case <-ticker.C:
			if len(d.prepares) > 0 {
				d.expirePrepares(time.Now().UnixNano())
			}
			if d.dirty {
				d.rebuild()
			}
		}
	}
}

// apply decides one mutation against the incremental writer state. The
// durability order is append-then-mutate: a decided mutation reaches
// the WAL before any in-memory state changes or the caller hears the
// answer, so a crash can lose an unanswered request but never an
// acknowledged one, and an append failure leaves the state untouched.
func (d *Daemon) apply(o op) {
	switch o.kind {
	case opExec:
		o.fn()
		o.reply <- opResult{ok: true}
		return
	case opPrepare:
		d.applyPrepare(o)
		return
	case opCommitTx:
		d.applyCommitTx(o)
		return
	case opAbortTx:
		d.applyAbortTx(o)
		return
	case opAdmit:
		if d.occupied()+o.g > d.capacity && !d.refillCapacity(o.g) {
			d.met.Rejects.Add(1)
			o.reply <- opResult{ok: false, free: d.capacity - d.occupied()}
			return
		}
		id := d.nextID + d.stride
		if err := d.logAppend(wal.Op{
			Kind: wal.KindAdmit, ID: id, Name: o.name,
			Rho: o.arr.Rho, Lambda: o.arr.Lambda, Alpha: o.arr.Alpha,
			Delay: o.target.Delay, Eps: o.target.Eps, G: o.g,
		}); err != nil {
			o.reply <- opResult{err: err, free: d.capacity - d.occupied()}
			return
		}
		d.nextID = id
		d.addRecord(&record{ID: id, Name: o.name, Arrival: o.arr, Target: o.target, G: o.g})
		d.met.Admits.Add(1)
		o.reply <- opResult{ok: true, id: id, free: d.capacity - d.occupied()}
	case opRelease:
		rec, ok := d.sessions[o.id]
		if !ok {
			d.met.ReleaseMisses.Add(1)
			o.reply <- opResult{ok: false, free: d.capacity - d.occupied()}
			return
		}
		if err := d.logAppend(wal.Op{Kind: wal.KindRelease, ID: o.id}); err != nil {
			o.reply <- opResult{err: err, free: d.capacity - d.occupied()}
			return
		}
		d.releaseRecord(rec)
		d.met.Releases.Add(1)
		o.reply <- opResult{ok: true, id: o.id, free: d.capacity - d.occupied()}
	}
}

// addRecord adds one admitted session to the writer state: the
// session map, the shadow arrays, the type fold, and the analyzer's
// staged batch. Shared by admit, cluster commit and recovery; runs on
// the writer goroutine only.
func (d *Daemon) addRecord(rec *record) {
	if len(d.shIDs) == cap(d.shIDs) {
		// Re-seat a full shadow backing explicitly: letting append
		// reallocate would silently detach the writer from the
		// refcounted arrays. Appends are safe against published epochs,
		// which hold shorter lengths.
		d.ownShadow(len(d.shIDs)/8 + 64)
	}
	rec.pos = len(d.shIDs)
	d.shIDs, d.shTargets = append(d.shIDs, rec.ID), append(d.shTargets, rec.Target)
	d.sessions[rec.ID] = rec
	d.used += rec.G
	d.live.Store(rec.ID, rec)
	d.typeAdd(rec)
	// The analyzer refuses only a malformed session; dropping it sends
	// the next publish through the verified constructor, which refuses
	// visibly.
	if d.delta != nil && d.delta.Admit(gpsmath.Session{Name: rec.Name, Phi: rec.G, Arrival: rec.Arrival}) != nil {
		d.delta = nil
	}
	d.dirty = true
	d.opsSince++
}

// releaseRecord performs the in-memory half of a release after its
// KindRelease is durable: swap-remove from the shadow arrays and the
// analyzer's staged batch (O(1); a batch's first release copies them),
// bookkeeping, capacity trim. Shared by the ordinary release path and
// the abort-after-commit compensation; runs on the writer goroutine
// only.
func (d *Daemon) releaseRecord(rec *record) {
	p, last := rec.pos, len(d.shIDs)-1
	if p < d.shShared {
		// A published epoch reads slot p: copy onto a backing the writer
		// owns, with spare capacity for the admits that follow. A release
		// at or past the published length leaves every slot an epoch
		// reads alone, the vacated one included.
		d.ownShadow(64)
	}
	moved := d.sessions[d.shIDs[last]]
	d.shIDs[p], d.shTargets[p] = d.shIDs[last], d.shTargets[last]
	d.shIDs, d.shTargets = d.shIDs[:last], d.shTargets[:last]
	moved.pos, rec.pos = p, -1
	d.idxLow = min(d.idxLow, last)
	if d.indexed(rec.ID) {
		d.touched = append(d.touched, rec)
	}
	if p < d.idxLow {
		d.touched = append(d.touched, moved)
	}
	if d.delta != nil && d.delta.Release(p) != nil {
		d.delta = nil
	}
	delete(d.sessions, rec.ID)
	d.used -= rec.G
	d.live.Delete(rec.ID)
	d.typeRemove(rec)
	delete(d.clusterTx, rec.ID)
	d.trimCapacity()
	d.dirty = true
	d.opsSince++
}

// refillCapacity grows the writer's capacity slice from the shared
// ledger when an admit overflows it: one CAS-batched reservation
// covers a run of future admits, so the cross-shard word is touched
// once per quantum, not per decision. Returns false — reject, exactly
// like a full standalone link — when there is no ledger or the global
// budget cannot cover the need.
func (d *Daemon) refillCapacity(g float64) bool {
	if d.slot.ledger == nil {
		return false
	}
	granted := d.slot.ledger.Reserve(d.occupied()+g-d.capacity, d.slot.quantum)
	if granted == 0 {
		return false
	}
	d.capacity += granted
	d.capBits.Store(math.Float64bits(d.capacity))
	d.capDirty = true
	d.met.LedgerRefills.Add(1)
	return true
}

// trimCapacity returns surplus slack to the ledger after a release,
// with hysteresis: only when more than two quantums sit idle, and
// always keeping at least one quantum of headroom, so admit/release
// churn at a stable population never ping-pongs the shared word.
func (d *Daemon) trimCapacity() {
	led := d.slot.ledger
	q := d.slot.quantum
	if led == nil || !(q > 0) {
		return
	}
	if excess := d.capacity - d.occupied(); excess > 2*q {
		give := (math.Floor(excess/q) - 1) * q
		if give > 0 {
			d.capacity -= give
			d.capBits.Store(math.Float64bits(d.capacity))
			led.Return(give)
			d.capDirty = true
			d.met.LedgerReturns.Add(1)
		}
	}
}

// logAppend makes one op durable and advances the snapshot cadence
// counter. Runs on the writer goroutine only.
func (d *Daemon) logAppend(o wal.Op) error {
	if d.cfg.Log == nil {
		return nil
	}
	d.walScratch = append(d.walScratch[:0], o)
	if err := d.cfg.Log.Append(d.walScratch); err != nil {
		d.met.WALAppendFailures.Add(1)
		return fmt.Errorf("%w: %v", ErrWAL, err)
	}
	d.met.WALAppends.Add(1)
	d.walOps++
	if d.cfg.Audit != nil {
		// Append stamped the assigned sequence into the scratch slice.
		d.cfg.Audit.Record(d.walScratch[0])
	}
	return nil
}

// walState captures the writer state in WAL snapshot form: the
// admission-order session slice and the running Σφ exactly as
// accumulated, so restore is bit-identical.
func (d *Daemon) walState() wal.State {
	st := wal.State{
		NextID:   d.nextID,
		Used:     d.used,
		Sessions: make([]wal.SessionRecord, len(d.shIDs)),
	}
	for i, id := range d.shIDs {
		rec := d.sessions[id]
		st.Sessions[i] = wal.SessionRecord{
			ID: id, Name: rec.Name,
			Rho: rec.Arrival.Rho, Lambda: rec.Arrival.Lambda, Alpha: rec.Arrival.Alpha,
			Delay: rec.Target.Delay, Eps: rec.Target.Eps, G: rec.G,
		}
	}
	if len(d.prepares) > 0 {
		st.Prepares = make([]wal.PrepareRecord, len(d.prepares))
		for i, p := range d.prepares {
			st.Prepares[i] = wal.PrepareRecord{
				TxID: p.txid, Name: p.name,
				Rho: p.arr.Rho, Lambda: p.arr.Lambda, Alpha: p.arr.Alpha,
				Delay: p.target.Delay, Eps: p.target.Eps, G: p.g,
				Deadline: p.deadline,
			}
		}
	}
	return st
}

// walSnapshot captures the writer's state synchronously — so it
// reflects exactly the ops appended so far — and hands the disk work
// to a background goroutine. If the previous snapshot is still being
// written, this one is skipped; the cadence counter was already reset,
// so the next threshold simply tries again.
func (d *Daemon) walSnapshot() {
	if !d.snapBusy.CompareAndSwap(false, true) {
		return
	}
	st := d.walState()
	st.Seq = d.cfg.Log.NextSeq() - 1
	d.snapWG.Add(1)
	go func() {
		defer d.snapWG.Done()
		defer d.snapBusy.Store(false)
		if err := d.cfg.Log.Snapshot(st); err != nil {
			d.met.WALSnapshotFailures.Add(1)
			return
		}
		d.met.WALSnapshots.Add(1)
	}()
}

// closeLog finishes the durability story on drain: wait out any
// in-flight background snapshot, take one final synchronous snapshot
// (so the next boot replays nothing), and close cleanly.
func (d *Daemon) closeLog() {
	if d.cfg.Log == nil {
		return
	}
	d.snapWG.Wait()
	st := d.walState()
	st.Seq = d.cfg.Log.NextSeq() - 1
	if err := d.cfg.Log.Snapshot(st); err != nil {
		d.met.WALSnapshotFailures.Add(1)
	} else {
		d.met.WALSnapshots.Add(1)
	}
	if err := d.cfg.Log.Close(); err != nil {
		d.met.WALAppendFailures.Add(1)
	}
}
