package server

// Cluster two-phase admission: the coordinator (internal/cluster)
// PREPAREs a reservation on every hop of a route, then COMMITs them all
// or ABORTs the ones already prepared. On this side of the protocol a
// prepare is a writer-goroutine mutation exactly like an admit — WAL
// append before any state change or reply — but the reserved weight is
// accounted outside the committed Σφ: d.reserved is recomputed from
// scratch after every prepare-set mutation, so a fully rolled-back
// admit leaves d.used bit-identical to its pre-admit value and
// d.reserved exactly 0.0, with no float drift a running +=/-= could
// accumulate. Prepares expire: every one carries an absolute deadline,
// the writer's ticker sweeps the pending set, and recovery expires
// in-doubt prepares from a crashed coordinator before serving traffic —
// a dead coordinator can never leak hop capacity.

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/admission"
	"repro/internal/ebb"
	"repro/internal/gpsmath"
	"repro/internal/wal"
)

// CrashClusterPrepare is the crashpoint consulted after a prepare is
// journaled but before the writer mutates state or replies: a kill here
// leaves an in-doubt prepare on disk with the coordinator seeing a
// transport error — the exact window the TTL-expiry recovery path and
// the fail-closed rollback both exist for.
const CrashClusterPrepare = "cluster.prepare"

// CrashClusterCommit is the same window on phase two: the commit is
// journaled (the session exists durably on this hop) but the reply
// never leaves the process. The coordinator sees a transport error on
// an op that actually happened — the lost-commit-ack scenario the
// resolved-transaction memory exists for.
const CrashClusterCommit = "cluster.commit"

// maxTxIDLen bounds the coordinator transaction id on the wire.
const maxTxIDLen = 128

// maxPrepareTTL bounds how long a reservation may outlive its
// coordinator.
const maxPrepareTTL = time.Hour

// prepareRec is the writer-owned state of one pending reservation.
type prepareRec struct {
	txid     string
	name     string
	arr      ebb.Process
	target   admission.Target
	g        float64 // reserved GPS weight φ
	deadline int64   // unix nanoseconds
}

// resolvedTxRec remembers one committed transaction after its prepare
// is gone: the assigned session id and when the resolution was
// observed. It is what makes commit idempotent-by-txid — a retried
// commit whose first acknowledgement was lost on the wire answers with
// the stored id instead of "unknown transaction", and an abort that
// arrives after the commit landed compensates by releasing the session
// (see applyAbortTx). Entries are swept after maxPrepareTTL; a
// coordinator retries within its hop timeout, so the horizon is
// generous. Rebuilt at boot from the recovered op suffix (KindCommit
// carries both ids); commits folded into a WAL snapshot lose their
// entry, which fails toward refusing a very late retry, never toward
// double-admitting.
type resolvedTxRec struct {
	id uint64
	at int64 // unix nanoseconds
}

// clusterTxRec marks one live session as cluster-committed: the
// coordinator transaction that created it and when. This is the feed
// for the coordinator's orphan sweep (ClusterSessions) — a restarted
// coordinator releases hop sessions it has no journal record of, once
// they are older than the prepare TTL. Sessions recovered from a WAL
// snapshot lose the marking and are never orphan-released; the safe
// direction (a leak needs a coordinator to lose its journal AND the
// hop to have snapshotted, and even then capacity is only held, never
// double-granted).
type clusterTxRec struct {
	txid string
	at   int64 // unix nanoseconds the commit was observed (boot time for recovered ones)
}

// ClusterSessionInfo is one cluster-committed live session as reported
// to the coordinator's orphan sweep.
type ClusterSessionInfo struct {
	ID       uint64
	TxID     string
	AgeNanos int64
}

// PrepareRequest is phase one of a cluster admit: reserve weight Phi
// under transaction TxID until TTL elapses or the coordinator resolves
// it. Phi is assigned by the coordinator (RPPS gives φ = ρ), not
// derived from the target like a standalone admit's required rate.
type PrepareRequest struct {
	TxID    string
	Name    string
	Arrival ebb.Process
	Target  admission.Target
	Phi     float64
	TTL     time.Duration
}

// Validate rejects malformed prepare requests with typed errors.
func (r PrepareRequest) Validate() error {
	if r.TxID == "" || len(r.TxID) > maxTxIDLen {
		return fmt.Errorf("%w: transaction id length %d, want 1..%d", gpsmath.ErrInvalidInput, len(r.TxID), maxTxIDLen)
	}
	if err := r.Arrival.Validate(); err != nil {
		return err
	}
	if err := r.Target.Validate(); err != nil {
		return err
	}
	if !(r.Phi > 0) || math.IsInf(r.Phi, 0) {
		return fmt.Errorf("%w: phi = %v, want positive finite", gpsmath.ErrInvalidInput, r.Phi)
	}
	if r.TTL <= 0 || r.TTL > maxPrepareTTL {
		return fmt.Errorf("%w: prepare ttl = %v, want in (0, %v]", gpsmath.ErrInvalidInput, r.TTL, maxPrepareTTL)
	}
	return nil
}

// PrepareResult is the hop's phase-one answer. Shard is the writer that
// holds the reservation; the coordinator must echo it on commit/abort
// so the resolution routes to the same single writer.
type PrepareResult struct {
	Prepared bool
	Shard    int
	Deadline int64 // unix nanoseconds
	Free     float64
	Reason   string
}

// CommitResult is the hop's phase-two answer: the assigned session id
// when the pending prepare was turned into an admitted session.
type CommitResult struct {
	Committed bool
	ID        uint64
	Reason    string
}

// Prepare implements Service: phase one on this writer (its own shard,
// slot.id).
func (d *Daemon) Prepare(req PrepareRequest) (PrepareResult, error) {
	if err := req.Validate(); err != nil {
		return PrepareResult{}, err
	}
	res, err := d.submit(op{kind: opPrepare, name: req.Name, arr: req.Arrival,
		target: req.Target, g: req.Phi, txid: req.TxID, ttl: req.TTL})
	if err != nil {
		return PrepareResult{}, err
	}
	if res.err != nil {
		return PrepareResult{}, res.err
	}
	return PrepareResult{Prepared: res.ok, Shard: int(d.slot.id),
		Deadline: res.deadline, Free: res.free, Reason: res.reason}, nil
}

// CommitPrepared implements Service: phase two. shard must name this
// writer (the coordinator echoes PrepareResult.Shard).
func (d *Daemon) CommitPrepared(txid string, shard int) (CommitResult, error) {
	if shard != int(d.slot.id) {
		return CommitResult{Reason: "unknown shard"}, nil
	}
	res, err := d.submit(op{kind: opCommitTx, txid: txid})
	if err != nil {
		return CommitResult{}, err
	}
	if res.err != nil {
		return CommitResult{}, res.err
	}
	return CommitResult{Committed: res.ok, ID: res.id, Reason: res.reason}, nil
}

// AbortPrepared implements Service: coordinator rollback. Aborting an
// unknown (already resolved or expired) transaction reports false with
// no error — rollback is idempotent from the coordinator's view.
func (d *Daemon) AbortPrepared(txid string, shard int) (bool, error) {
	if shard != int(d.slot.id) {
		return false, nil
	}
	res, err := d.submit(op{kind: opAbortTx, txid: txid})
	if err != nil {
		return false, err
	}
	if res.err != nil {
		return false, res.err
	}
	return res.ok, nil
}

// Reserved returns the weight currently held by pending prepares
// (lock-free mirror of the writer's recomputed sum).
func (d *Daemon) Reserved() float64 { return math.Float64frombits(d.resBits.Load()) }

// PrepareCount returns the number of pending prepares.
func (d *Daemon) PrepareCount() int { return int(d.prepN.Load()) }

// occupied is the writer's full admission footprint: committed Σφ plus
// pending reservations. The reserved==0 fast path keeps the standalone
// admit comparison bit-identical to the pre-cluster daemon (x + 0.0
// differs from x only at x == -0.0, which Σφ never is — but the guard
// makes the equivalence structural rather than arithmetic).
func (d *Daemon) occupied() float64 {
	if d.reserved == 0 {
		return d.used
	}
	return d.used + d.reserved
}

// findPrepare returns the pending index of txid, or -1. Linear: the
// pending set is a handful of in-flight coordinator transactions.
func (d *Daemon) findPrepare(txid string) int {
	for i, p := range d.prepares {
		if p.txid == txid {
			return i
		}
	}
	return -1
}

// removePrepareAt deletes pending index i preserving arrival order
// (walState emits prepares in slice order; WAL replay resolves them
// with order-preserving removal, so the orders must match bit for bit)
// and recomputes the reservation sum.
func (d *Daemon) removePrepareAt(i int) {
	d.prepares = append(d.prepares[:i], d.prepares[i+1:]...)
	d.recalcReserved()
}

// recalcReserved recomputes the reservation sum from scratch in slice
// order. Full recomputation (never +=/-=) is what makes rollback exact:
// an empty pending set sums to exactly 0.0 whatever history preceded
// it.
func (d *Daemon) recalcReserved() {
	sum := 0.0
	for _, p := range d.prepares {
		sum += p.g
	}
	d.reserved = sum
	d.resBits.Store(math.Float64bits(sum))
	d.prepN.Store(int64(len(d.prepares)))
}

// applyPrepare decides phase one on the writer goroutine. Same
// durability order as an admit — append, then mutate, then reply — with
// the CrashClusterPrepare point between append and mutate.
func (d *Daemon) applyPrepare(o op) {
	if d.findPrepare(o.txid) >= 0 {
		o.reply <- opResult{ok: false, reason: "duplicate transaction", free: d.capacity - d.occupied()}
		return
	}
	if d.occupied()+o.g > d.capacity && !d.refillCapacity(o.g) {
		d.met.ClusterPrepareRejects.Add(1)
		o.reply <- opResult{ok: false, reason: "insufficient link headroom", free: d.capacity - d.occupied()}
		return
	}
	deadline := time.Now().Add(o.ttl).UnixNano()
	if err := d.logAppend(wal.Op{
		Kind: wal.KindPrepare, Name: o.name, TxID: o.txid, Deadline: deadline,
		Rho: o.arr.Rho, Lambda: o.arr.Lambda, Alpha: o.arr.Alpha,
		Delay: o.target.Delay, Eps: o.target.Eps, G: o.g,
	}); err != nil {
		o.reply <- opResult{err: err, free: d.capacity - d.occupied()}
		return
	}
	if d.cfg.Crash != nil && d.cfg.Crash.Armed(CrashClusterPrepare) {
		// The prepare is journaled but unacknowledged: the coordinator
		// sees a dead hop and fails the admit closed; recovery finds the
		// in-doubt prepare and expires it after its TTL.
		d.cfg.Crash.Kill()
	}
	d.prepares = append(d.prepares, &prepareRec{
		txid: o.txid, name: o.name, arr: o.arr, target: o.target,
		g: o.g, deadline: deadline,
	})
	d.recalcReserved()
	d.met.ClusterPrepares.Add(1)
	o.reply <- opResult{ok: true, deadline: deadline, free: d.capacity - d.occupied()}
}

// applyCommitTx decides phase two on the writer goroutine. The
// capacity was reserved at prepare time, so commit never re-checks it:
// the weight moves from reserved to used. A commit that arrives past
// the deadline is refused and the prepare expired on the spot — the
// coordinator took longer than the TTL it asked for, and the hop may
// already have promised that capacity elsewhere.
func (d *Daemon) applyCommitTx(o op) {
	i := d.findPrepare(o.txid)
	if i < 0 {
		if r, ok := d.resolvedTx[o.txid]; ok {
			// Retried commit whose first acknowledgement was lost: the
			// transaction already resolved into a session. Answer with the
			// assigned id and journal nothing — idempotent by txid.
			d.met.ClusterCommitRetries.Add(1)
			o.reply <- opResult{ok: true, id: r.id, free: d.capacity - d.occupied()}
			return
		}
		o.reply <- opResult{ok: false, reason: "unknown transaction", free: d.capacity - d.occupied()}
		return
	}
	p := d.prepares[i]
	if p.deadline < time.Now().UnixNano() {
		if err := d.logAppend(wal.Op{Kind: wal.KindExpire, TxID: o.txid}); err != nil {
			o.reply <- opResult{err: err, free: d.capacity - d.occupied()}
			return
		}
		d.removePrepareAt(i)
		d.met.ClusterExpires.Add(1)
		o.reply <- opResult{ok: false, reason: "prepare expired", free: d.capacity - d.occupied()}
		return
	}
	id := d.nextID + d.stride
	if err := d.logAppend(wal.Op{Kind: wal.KindCommit, ID: id, TxID: o.txid}); err != nil {
		o.reply <- opResult{err: err, free: d.capacity - d.occupied()}
		return
	}
	if d.cfg.Crash != nil && d.cfg.Crash.Armed(CrashClusterCommit) {
		// The commit is journaled but unacknowledged: the coordinator
		// sees a dead hop on an op that durably happened. Its retry lands
		// on the rebooted hop's resolved-transaction memory; if the hop
		// stays down past the prepare TTL, the restarted coordinator's
		// orphan sweep releases the session instead.
		d.cfg.Crash.Kill()
	}
	now := time.Now().UnixNano()
	d.nextID = id
	d.removePrepareAt(i)
	d.addRecord(&record{ID: id, Name: p.name, Arrival: p.arr, Target: p.target, G: p.g})
	d.resolvedTx[o.txid] = resolvedTxRec{id: id, at: now}
	d.clusterTx[id] = clusterTxRec{txid: o.txid, at: now}
	d.met.ClusterCommits.Add(1)
	o.reply <- opResult{ok: true, id: id, free: d.capacity - d.occupied()}
}

// applyAbortTx rolls one reservation back on the writer goroutine. An
// abort for a transaction that already committed (the coordinator's
// commit ack was lost and its retry failed too, so it is unwinding the
// whole route) compensates: the committed session is released, journaled
// as an ordinary KindRelease, so no capacity is stranded.
func (d *Daemon) applyAbortTx(o op) {
	i := d.findPrepare(o.txid)
	if i < 0 {
		if r, ok := d.resolvedTx[o.txid]; ok {
			d.applyAbortAfterCommit(o, r.id)
			return
		}
		o.reply <- opResult{ok: false, reason: "unknown transaction", free: d.capacity - d.occupied()}
		return
	}
	if err := d.logAppend(wal.Op{Kind: wal.KindAbort, TxID: o.txid}); err != nil {
		o.reply <- opResult{err: err, free: d.capacity - d.occupied()}
		return
	}
	d.removePrepareAt(i)
	d.met.ClusterAborts.Add(1)
	o.reply <- opResult{ok: true, free: d.capacity - d.occupied()}
}

// applyAbortAfterCommit is the compensation path: the abort names a
// transaction whose prepare already resolved into session id. If the
// session is still live it is released exactly like an opRelease (same
// journal kind, same swap-remove), so the WAL fold stays a faithful
// model of the hop; if it is already gone the abort is a no-op.
func (d *Daemon) applyAbortAfterCommit(o op, id uint64) {
	rec, live := d.sessions[id]
	if !live {
		delete(d.resolvedTx, o.txid)
		o.reply <- opResult{ok: false, reason: "transaction resolved", free: d.capacity - d.occupied()}
		return
	}
	if err := d.logAppend(wal.Op{Kind: wal.KindRelease, ID: id}); err != nil {
		o.reply <- opResult{err: err, free: d.capacity - d.occupied()}
		return
	}
	d.releaseRecord(rec)
	delete(d.resolvedTx, o.txid)
	d.met.ClusterCompensations.Add(1)
	o.reply <- opResult{ok: true, id: id, free: d.capacity - d.occupied()}
}

// ClusterSessions lists the live cluster-committed sessions with their
// transaction ids and commit ages, captured on the writer goroutine so
// the view is a consistent snapshot. Order is by session id (the map
// iteration is randomized; the coordinator's sweep wants determinism).
func (d *Daemon) ClusterSessions() ([]ClusterSessionInfo, error) {
	var out []ClusterSessionInfo
	err := d.exec(func() {
		now := time.Now().UnixNano()
		for id, c := range d.clusterTx {
			out = append(out, ClusterSessionInfo{ID: id, TxID: c.txid, AgeNanos: now - c.at})
		}
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// expirePrepares sweeps the pending set at nowNanos, journaling a
// KindExpire for every reservation past its deadline. A failed append
// keeps the reservation — fail closed, holding capacity until the next
// sweep can make the release durable. Runs on the writer goroutine
// (the run-loop ticker) and synchronously from New before the writer
// starts (recovery of in-doubt prepares).
func (d *Daemon) expirePrepares(nowNanos int64) {
	for i := 0; i < len(d.prepares); {
		p := d.prepares[i]
		if p.deadline >= nowNanos {
			i++
			continue
		}
		if err := d.logAppend(wal.Op{Kind: wal.KindExpire, TxID: p.txid}); err != nil {
			i++
			continue
		}
		d.removePrepareAt(i)
		d.met.ClusterExpires.Add(1)
	}
	// Resolved-transaction retention rides the same sweep: a coordinator
	// retries a lost ack within its hop timeout, so anything older than
	// the maximum prepare TTL can only be garbage.
	for txid, r := range d.resolvedTx {
		if nowNanos-r.at > int64(maxPrepareTTL) {
			delete(d.resolvedTx, txid)
		}
	}
}
