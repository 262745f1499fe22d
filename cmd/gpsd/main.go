// Command gpsd is the long-running GPS admission-control daemon: it
// holds a live session set in memory, decides soft-QoS admission
// requests online (paper §7), and serves per-session tail bounds and
// the feasible partition from epoch snapshots of the full Theorem 7–12
// analysis.
//
//	gpsd -addr 127.0.0.1:7070 -rate 1000 -wal-dir /var/lib/gpsd/wal
//
// Endpoints: POST /v1/admit, DELETE /v1/sessions/{id},
// GET /v1/bounds/{id}, GET /v1/partition, GET /healthz, GET /metrics.
// SIGINT/SIGTERM drain gracefully: in-flight and queued decisions are
// answered, a final epoch is published, and the process exits 0.
//
// With -wal-dir set, every admit/release is appended to a checksummed
// write-ahead log before the client hears the answer, and on boot the
// daemon restores the newest valid snapshot plus the log suffix, so a
// SIGKILL or power loss never silently discards the admitted set the
// published bounds are quantified over. A torn final write (the
// expected crash artifact) is truncated away; interior log corruption
// refuses to start. The hidden -crashpoint flag arms a deterministic
// process crash at a named durability boundary for the crash-recovery
// harness (scripts/crash_smoke.sh and scripts/repl_smoke.sh); besides
// the wal.* points it accepts repl.ship, repl.ack.lost, and
// repl.promote on a follower.
//
// -shards sets the writer count (1 is one shard at the full link
// rate); each writer owns one stripe of the WAL. A WAL-backed primary
// also maintains a Merkle audit trail per stripe (audit.log) and serves
// the replication endpoints GET /v1/repl/status, GET /v1/repl/fetch,
// and POST /v1/repl/ack, so a warm standby can mirror it:
//
//	gpsd -follow http://primary:7070 -wal-dir /var/lib/gpsd-standby/wal
//
// A follower answers /healthz and /metrics (replication lag gauges)
// while refusing admission traffic with 503; POST /v1/promote fences
// replication, boots the admission daemon from the mirrored log —
// bit-identical to an offline fold of the shipped history — and
// atomically swaps the full serving surface in, including its own
// replication source for the next standby down the chain.
//
// Every daemon also speaks the cluster prepare protocol
// (POST /v1/prepare, /v1/commit, /v1/abort): a coordinator reserves a
// session's GPS weight with a TTL, journaled in the WAL like any
// admit, then commits or aborts it. With -topology the binary runs as
// that coordinator instead of a hop:
//
//	gpsd -topology configs/tree63.json -addr 127.0.0.1:7000
//
// serving POST /v1/cluster/admit, DELETE /v1/cluster/sessions/{id},
// and GET /v1/route-bounds/{id}: admits walk the route's hops with a
// two-phase prepare/commit and return end-to-end delay bounds composed
// by the internal/network CRST recursion; any unreachable hop aborts
// the admit and rolls the prepared hops back (fail closed). With
// -coord-wal-dir it journals every committed admit, and ships, audits
// and reports that journal on /metrics exactly as a hop does its WAL.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/prom"
	"repro/internal/replication"
	"repro/internal/server"
	"repro/internal/wal"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7070", "listen address (host:port; port 0 picks a free port)")
	addrFile := flag.String("addr-file", "", "write the bound address to this file once listening (for scripts driving -addr :0)")
	rate := flag.Float64("rate", 1000, "GPS link rate shared by admitted sessions")
	queue := flag.Int("queue", 4096, "mutation queue depth (full queue sheds with 429)")
	maxBatch := flag.Int("max-batch", 4096, "mutations coalesced before a forced epoch rebuild")
	epochAge := flag.Duration("epoch-age", 100*time.Millisecond, "max staleness of the published epoch")
	retryAfter := flag.Duration("retry-after", time.Second, "Retry-After hint on shed responses")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "max time to drain on SIGTERM")
	walDir := flag.String("wal-dir", "", "write-ahead log directory; empty runs without durability")
	walSync := flag.String("wal-sync", "batch", "WAL fsync policy: batch (group commit) or always (fsync per decision)")
	snapshotEvery := flag.Int("snapshot-every", 0, "WAL state snapshot cadence in logged mutations (0 = server default)")
	crashpoint := flag.String("crashpoint", "", "arm a deterministic crash at a durability boundary, e.g. wal.append.torn@3 or repl.ship@2 (fault-injection harness)")
	follow := flag.String("follow", "", "run as a warm standby mirroring this primary's base URL (requires -wal-dir)")
	followerID := flag.String("follower-id", "", "name this follower acks under (default host:pid)")
	pullInterval := flag.Duration("pull-interval", 250*time.Millisecond, "follower: delay between successful replication pulls")
	auditBatch := flag.Int("audit-batch", 0, "Merkle audit batch size in decision frames (0 = default 1024)")
	ackTTL := flag.Duration("repl-ack-ttl", replication.DefaultAckTTL, "expire a silent follower's ack after this inactivity so it stops holding WAL segments (0 = never expire)")
	shards := flag.Int("shards", 0, "shard writer count: 0 auto-detects (existing WAL layout, else min(GOMAXPROCS,8)); 1 runs one shard at the full rate")
	topology := flag.String("topology", "", "run as a cluster coordinator over this topology JSON instead of a hop daemon")
	prepareTTL := flag.Duration("prepare-ttl", 10*time.Second, "coordinator: TTL each hop journals with a prepare")
	hopTimeout := flag.Duration("hop-timeout", 2*time.Second, "coordinator: per-hop RPC timeout; a slower hop counts as partitioned")
	coordWALDir := flag.String("coord-wal-dir", "", "coordinator: journal directory for end-to-end admissions (a restart recovers and re-serves them); empty keeps the coordinator stateless")
	flag.Parse()

	if err := run(config{
		addr: *addr, addrFile: *addrFile, rate: *rate,
		queue: *queue, maxBatch: *maxBatch,
		epochAge: *epochAge, retryAfter: *retryAfter, drainTimeout: *drainTimeout,
		walDir: *walDir, walSync: *walSync, snapshotEvery: *snapshotEvery,
		crashpoint: *crashpoint,
		follow:     *follow, followerID: *followerID, pullInterval: *pullInterval,
		auditBatch: *auditBatch, ackTTL: *ackTTL,
		shards:   *shards,
		topology: *topology, prepareTTL: *prepareTTL, hopTimeout: *hopTimeout,
		coordWALDir: *coordWALDir,
	}); err != nil {
		log.Fatalf("gpsd: %v", err)
	}
}

type config struct {
	addr, addrFile                     string
	rate                               float64
	queue, maxBatch                    int
	epochAge, retryAfter, drainTimeout time.Duration

	walDir, walSync string
	snapshotEvery   int
	crashpoint      string

	follow, followerID string
	pullInterval       time.Duration
	auditBatch         int
	ackTTL             time.Duration

	shards int

	topology               string
	prepareTTL, hopTimeout time.Duration
	coordWALDir            string
}

// shardCount decides the shard count for a hop's WAL: an existing log
// keeps its recorded layout, so restart-after-crash never needs the
// original flags (wal.OpenStriped refuses a -shards that contradicts
// it). Otherwise the flag decides, with 0 meaning min(GOMAXPROCS, 8).
func shardCount(cfg config) (int, error) {
	if cfg.shards < 0 {
		return 0, fmt.Errorf("-shards %d, want >= 0", cfg.shards)
	}
	if cfg.shards > 0 {
		return cfg.shards, nil
	}
	if cfg.walDir != "" {
		if n, err := wal.StripeCount(cfg.walDir); err != nil || n > 0 {
			return n, err
		}
	}
	return max(min(runtime.GOMAXPROCS(0), 8), 1), nil
}

func (cfg *config) crashPlan() (*faults.CrashPlan, error) {
	if cfg.crashpoint == "" {
		return nil, nil
	}
	plan, err := faults.ParseCrashPlan(cfg.crashpoint)
	if err != nil {
		return nil, err
	}
	log.Printf("gpsd: armed crashpoint %s@%d", plan.Point, plan.Nth)
	return plan, nil
}

// walOptions translates the sync-policy flag.
func walOptions(cfg config, plan *faults.CrashPlan) (wal.Options, error) {
	opts := wal.Options{Crash: plan}
	switch cfg.walSync {
	case "batch":
		opts.Sync = wal.SyncBatch
	case "always":
		opts.Sync = wal.SyncAlways
	default:
		return opts, fmt.Errorf("-wal-sync %q, want batch or always", cfg.walSync)
	}
	return opts, nil
}

// journal is a primary's open WAL — one stripe per writer, each with
// its Merkle audit trail — and the replication source shipping it
// while holding every stripe's prune watermark. A hop and the
// -topology coordinator's route journal open and ship it the same way.
type journal struct {
	logs     []*wal.Log
	recs     []*wal.Recovered
	audits   []*replication.Audit
	src      *replication.Source
	stopHold func()
}

// openJournal opens (or creates with n stripes) the WAL under dir and
// one audit trail per stripe, and starts holding prune watermarks:
// nothing is pruned until a stripe's audit trail confirms durability,
// and any follower that has acked keeps its stripes covered until it
// expires. Each trail opens after recovery, backfills any leaves the
// last run never flushed, and — given the recovered head — cuts back a
// trail that ran ahead of a truncated log, so every chain covers
// exactly the durable history its writer is about to extend.
func openJournal(cfg config, dir string, n int, plan *faults.CrashPlan) (*journal, error) {
	opts, err := walOptions(cfg, plan)
	if err != nil {
		return nil, err
	}
	logs, recs, err := wal.OpenStriped(dir, n, opts)
	if err != nil {
		if errors.Is(err, wal.ErrCorrupt) {
			return nil, fmt.Errorf("refusing to start on interior log corruption: %w", err)
		}
		return nil, fmt.Errorf("opening WAL: %w", err)
	}
	j := &journal{logs: logs, recs: recs, audits: make([]*replication.Audit, len(logs))}
	for i, l := range logs {
		walHead := l.NextSeq() - 1
		j.audits[i], err = replication.OpenAudit(wal.StripeDir(dir, len(logs), i), replication.AuditOptions{BatchN: cfg.auditBatch, WALHead: &walHead})
		if err != nil {
			j.discard()
			return nil, fmt.Errorf("opening audit trail (stripe %d): %w", i, err)
		}
	}
	replayed, torn := 0, int64(0)
	for _, rec := range recs {
		replayed += len(rec.Ops)
		torn += rec.TornBytes
	}
	log.Printf("gpsd: WAL %s recovered (%d stripe(s)): %d replayed ops, %d torn bytes truncated",
		dir, len(logs), replayed, torn)

	host, _ := os.Hostname()
	ttl := cfg.ackTTL
	if ttl <= 0 {
		ttl = -1 // flag 0 = never expire (Source 0 means its default)
	}
	j.src = &replication.Source{
		Dir:    dir,
		NodeID: fmt.Sprintf("%s:%d", host, os.Getpid()),
		Logs:   logs,
		Audits: j.audits,
		AckTTL: ttl,
	}
	j.stopHold = j.src.HoldPrunes(500 * time.Millisecond)
	return j, nil
}

// close stops the watermark hold and closes the audit trails; the logs
// themselves belong to their writers, which snapshot and close them on
// drain.
func (j *journal) close() error {
	if j.stopHold != nil {
		j.stopHold()
	}
	var err error
	for _, a := range j.audits {
		if a == nil {
			continue
		}
		if aerr := a.Close(); err == nil {
			err = aerr
		}
	}
	return err
}

// discard closes everything a failed boot opened, logs included: no
// writer took ownership of them.
func (j *journal) discard() {
	j.close()
	for _, l := range j.logs {
		l.Close()
	}
}

// role is one way a gpsd process serves — hop primary, standby, or
// coordinator: its serving surface, the metric writers concatenated
// onto its GET /metrics, and the drain that runs once the listener has
// shut down.
type role struct {
	mux     *http.ServeMux
	metrics []func(io.Writer)
	close   func(context.Context) error
}

// newRole serves api under a mux whose GET /metrics runs every metric
// writer of the role in order, starting with metrics.
func newRole(api http.Handler, metrics func(io.Writer), close func(context.Context) error) *role {
	r := &role{mux: http.NewServeMux(), metrics: []func(io.Writer){metrics}, close: close}
	r.mux.Handle("/", api)
	r.mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", prom.ContentType)
		for _, write := range r.metrics {
			write(w)
		}
	})
	return r
}

// attach serves the journal's replication endpoints and source metrics
// next to r's own, and closes the journal after r's drain. A nil
// journal (no -wal-dir, a stateless coordinator) attaches nothing.
func (j *journal) attach(r *role) {
	if j == nil {
		return
	}
	j.src.Mount(r.mux)
	r.metrics = append(r.metrics, j.src.WriteMetrics)
	drain := r.close
	r.close = func(ctx context.Context) error {
		err := drain(ctx)
		if jerr := j.close(); err == nil && jerr != nil {
			err = fmt.Errorf("closing audit trail: %w", jerr)
		}
		return err
	}
}

// bootPrimary opens the hop's WAL stripes, audit trails and shipping,
// starts the sharded admission service over them, and returns it with
// the hop role serving it. The same path serves every shard count,
// first boot, restart-after-crash, and promote-from-standby — which is
// what makes a promoted epoch bit-identical to a recovered one.
func bootPrimary(cfg config, plan *faults.CrashPlan) (*server.Sharded, *role, error) {
	if cfg.walDir != "" {
		// A coordinator journal holds route records no hop daemon can
		// replay; refuse it with a pointer at the right invocation
		// (promoting a coordinator standby's mirror lands here too).
		if isCoord, err := wal.IsCoordDir(cfg.walDir); err != nil {
			return nil, nil, err
		} else if isCoord {
			return nil, nil, fmt.Errorf("%s holds a coordinator journal; boot it with -topology ... -coord-wal-dir %s", cfg.walDir, cfg.walDir)
		}
	}
	shards, err := shardCount(cfg)
	if err != nil {
		return nil, nil, err
	}
	scfg := server.Config{
		Rate:          cfg.rate,
		QueueDepth:    cfg.queue,
		MaxBatch:      cfg.maxBatch,
		MaxEpochAge:   cfg.epochAge,
		RetryAfter:    cfg.retryAfter,
		SnapshotEvery: cfg.snapshotEvery,
	}
	if plan != nil {
		// The server consults its own crashpoints (cluster.prepare) in
		// addition to the WAL-boundary ones the log options carry.
		scfg.Crash = plan
	}
	var (
		jl     *journal
		alogs  []server.AdmissionLog
		recs   []*wal.Recovered
		asinks []server.AuditSink
	)
	if cfg.walDir != "" {
		if jl, err = openJournal(cfg, cfg.walDir, shards, plan); err != nil {
			return nil, nil, err
		}
		recs = jl.recs
		for i := range jl.logs {
			alogs = append(alogs, jl.logs[i])
			asinks = append(asinks, jl.audits[i])
		}
	}
	svc, err := server.NewSharded(scfg, shards, alogs, recs, asinks)
	if err != nil {
		if jl != nil {
			jl.discard()
		}
		return nil, nil, err
	}
	hv := svc.Health()
	log.Printf("gpsd: hop at rate %g, %d shard(s), queue %d, epoch age %v, %d recovered sessions",
		cfg.rate, hv.Shards, cfg.queue, cfg.epochAge, hv.Sessions)
	r := newRole(server.NewHandler(svc), svc.WriteMetrics, func(ctx context.Context) error {
		// Each writer snapshots and closes the WAL stripe it owns.
		if err := svc.Close(ctx); err != nil {
			return fmt.Errorf("daemon drain: %w", err)
		}
		hv := svc.Health()
		log.Printf("gpsd: drained at epoch %d with %d sessions across %d shard(s)",
			hv.EpochSeq, hv.Sessions, hv.Shards)
		return nil
	})
	jl.attach(r)
	return svc, r, nil
}

// openCoordJournal adopts (or creates) the coordinator's route
// journal: a one-stripe WAL whose layout marker is written durably
// before the first segment. A directory already holding a hop WAL is
// refused, and the previous life's route records come back as its one
// recovered stripe. The journal ships and audits exactly like a hop's.
func openCoordJournal(cfg config, plan *faults.CrashPlan) (*journal, error) {
	dir := cfg.coordWALDir
	isCoord, err := wal.IsCoordDir(dir)
	if err != nil {
		return nil, err
	}
	if !isCoord {
		if n, err := wal.StripeCount(dir); err != nil {
			return nil, err
		} else if n > 0 {
			return nil, fmt.Errorf("%s holds a hop WAL; refusing to journal coordinator route records into it", dir)
		}
		if err := wal.WriteCoordMarker(dir); err != nil {
			return nil, fmt.Errorf("marking coordinator WAL: %w", err)
		}
	}
	return openJournal(cfg, dir, 1, plan)
}

// coordinatorRole is the -topology mode: the control plane that admits
// sessions over routes through the configured hop daemons with the
// two-phase protocol, composing per-hop CRST bounds into end-to-end
// guarantees. With -coord-wal-dir it journals every committed admit
// and release, so a restart re-serves its previous life's sessions
// bit-identically and reconciles against the hops, and it ships,
// audits and reports the journal exactly as a hop does its WAL;
// without it the coordinator is stateless and prepares orphaned by its
// death expire on the hops' TTL clocks.
func coordinatorRole(cfg config, plan *faults.CrashPlan) (*role, error) {
	if cfg.follow != "" || cfg.walDir != "" {
		return nil, errors.New("-topology runs a coordinator; -follow and -wal-dir apply to hop daemons (the coordinator's journal is -coord-wal-dir)")
	}
	topo, err := cluster.LoadTopology(cfg.topology)
	if err != nil {
		return nil, err
	}
	ccfg := cluster.Config{
		Topology:   topo,
		PrepareTTL: cfg.prepareTTL,
		HopTimeout: cfg.hopTimeout,
	}
	if plan != nil {
		ccfg.Crash = plan
	}
	var jl *journal
	if cfg.coordWALDir != "" {
		if jl, err = openCoordJournal(cfg, plan); err != nil {
			return nil, err
		}
		ccfg.Log = jl.logs[0]
		ccfg.Recovered = jl.recs[0]
		ccfg.Audit = jl.audits[0]
	}
	coord, err := cluster.New(ccfg)
	if err != nil {
		if jl != nil {
			jl.discard()
		}
		return nil, err
	}
	m := coord.Metrics()
	log.Printf("gpsd: coordinator over %d hop(s) from %s (prepare TTL %v, hop timeout %v): %d session(s) recovered (%d dropped by reconcile, %d orphaned hop sessions released)",
		len(topo.Nodes), cfg.topology, cfg.prepareTTL, cfg.hopTimeout,
		coord.Sessions(), m.ReconcileDrops.Load(), m.OrphanReleases.Load())
	r := newRole(cluster.NewHandler(coord), coord.WriteMetrics, func(context.Context) error {
		if err := coord.Close(); err != nil {
			return fmt.Errorf("closing journal: %w", err)
		}
		log.Printf("gpsd: coordinator stopped with %d committed sessions", coord.Sessions())
		return nil
	})
	jl.attach(r)
	return r, nil
}

// standbyRole is the -follow mode: a warm standby mirroring the
// primary's WAL into -wal-dir. It answers /healthz and its replication
// metrics, refuses admission traffic, and on POST /v1/promote fences
// replication, boots the hop role from the mirror, and swaps that
// role's whole serving surface into sw.
func standbyRole(cfg config, plan *faults.CrashPlan, sw *swapHandler) (*role, error) {
	if cfg.walDir == "" {
		return nil, errors.New("-follow requires -wal-dir (the mirror directory)")
	}
	id := cfg.followerID
	if id == "" {
		host, _ := os.Hostname()
		id = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	fol, err := replication.NewFollower(replication.FollowerOptions{
		ID:         id,
		PrimaryURL: cfg.follow,
		Dir:        cfg.walDir,
		Interval:   cfg.pullInterval,
		Crash:      plan,
	})
	if err != nil {
		return nil, err
	}
	folCtx, folCancel := context.WithCancel(context.Background())
	folDone := make(chan error, 1)
	go func() { folDone <- fol.Run(folCtx) }()
	// The done channel is one-shot; a retried promote after a failed
	// one (or shutdown after it) must not block on a second drain, so
	// the cancel+wait pair latches in a Once.
	var folStopOnce sync.Once
	folStop := func() {
		folStopOnce.Do(func() {
			folCancel()
			<-folDone
		})
	}
	log.Printf("gpsd: standby %s mirroring %s into %s", id, cfg.follow, cfg.walDir)

	var (
		promoteMu sync.Mutex
		promoted  *role
	)
	promote := func(w http.ResponseWriter, r *http.Request) {
		promoteMu.Lock()
		defer promoteMu.Unlock()
		if promoted != nil {
			writeJSONStatus(w, http.StatusConflict, map[string]any{"error": "already promoted"})
			return
		}
		// Stop the pull loop before fencing so Promote's final drain is
		// the only pull in flight.
		folStop()
		res, perr := fol.Promote(r.Context())
		if errors.Is(perr, replication.ErrPromoted) {
			// An earlier promote fenced the follower but failed to boot
			// the daemon (promoted is still nil under promoteMu): retry
			// just the boot from the already-sealed mirror.
			res, perr = replication.PromoteResult{AckSeq: fol.AckSeq()}, nil
		}
		if perr != nil {
			status := http.StatusServiceUnavailable
			if errors.Is(perr, replication.ErrDiverged) {
				status = http.StatusConflict
			}
			writeJSONStatus(w, status, map[string]any{"error": perr.Error()})
			return
		}
		boot := cfg
		boot.crashpoint = "" // the plan already fired or is follower-scoped
		svc, node, berr := bootPrimary(boot, nil)
		if berr != nil {
			writeJSONStatus(w, http.StatusInternalServerError, map[string]any{"error": berr.Error()})
			return
		}
		promoted = node
		sw.set(node.mux)
		hv := svc.Health()
		log.Printf("gpsd: promoted at verified seq %d (drained=%v): epoch %d with %d sessions",
			res.AckSeq, res.Drained, hv.EpochSeq, hv.Sessions)
		writeJSONStatus(w, http.StatusOK, map[string]any{
			"promoted": true,
			"ack_seq":  res.AckSeq,
			"drained":  res.Drained,
			"sessions": hv.Sessions,
		})
	}
	return newRole(standbyAPI(fol, promote), fol.WriteMetrics, func(ctx context.Context) error {
		// Stop pulling whether or not a promote (failed or not) already
		// did; folStop is idempotent. An unpromoted mirror stays on disk
		// for the next boot.
		folStop()
		promoteMu.Lock()
		node := promoted
		promoteMu.Unlock()
		if node == nil {
			log.Printf("gpsd: standby stopped at verified seq %d", fol.AckSeq())
			return nil
		}
		return node.close(ctx)
	}), nil
}

// swapHandler atomically replaces the entire serving surface — the
// standby→primary transition is one pointer store.
type swapHandler struct{ h atomic.Pointer[http.Handler] }

func (s *swapHandler) set(h http.Handler) { s.h.Store(&h) }
func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	(*s.h.Load()).ServeHTTP(w, r)
}

func run(cfg config) error {
	plan, err := cfg.crashPlan()
	if err != nil {
		return err
	}
	sw := &swapHandler{}
	var r *role
	switch {
	case cfg.topology != "":
		r, err = coordinatorRole(cfg, plan)
	case cfg.follow != "":
		r, err = standbyRole(cfg, plan, sw)
	default:
		_, r, err = bootPrimary(cfg, plan)
	}
	if err != nil {
		return err
	}
	sw.set(r.mux)
	return serve(cfg, sw, r.close)
}

// serve listens on cfg.addr, writes the bound address to cfg.addrFile,
// and serves h until SIGINT or SIGTERM; it then stops the listener,
// letting in-flight requests finish within the drain timeout, and runs
// drain.
func serve(cfg config, h http.Handler, drain func(context.Context) error) error {
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	bound := ln.Addr().String()
	if cfg.addrFile != "" {
		if err := os.WriteFile(cfg.addrFile, []byte(bound), 0o644); err != nil {
			return fmt.Errorf("writing addr file: %w", err)
		}
	}
	log.Printf("gpsd: listening on %s", bound)

	srv := &http.Server{Handler: h}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case s := <-sig:
		log.Printf("gpsd: %v, draining", s)
	case err := <-errc:
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), cfg.drainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("http shutdown: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return drain(ctx)
}

// standbyAPI is the pre-promotion surface: health and lag are
// observable, admission traffic is refused with 503 (the standby must
// not decide), and POST /v1/promote runs the handed-in transition.
func standbyAPI(f *replication.Follower, promote http.HandlerFunc) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		segs, secs := f.Lag()
		body := map[string]any{
			"status":          "standby",
			"ack_seq":         f.AckSeq(),
			"segments_behind": segs,
			"seconds_behind":  secs,
		}
		status := http.StatusOK
		if err := f.Diverged(); err != nil {
			body["status"] = "diverged"
			body["error"] = err.Error()
			status = http.StatusConflict
		}
		writeJSONStatus(w, status, body)
	})
	mux.HandleFunc("POST /v1/promote", promote)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		writeJSONStatus(w, http.StatusServiceUnavailable,
			map[string]any{"error": "standby: not serving admission traffic until promoted"})
	})
	return mux
}

func writeJSONStatus(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
