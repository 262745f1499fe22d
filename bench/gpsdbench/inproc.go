package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/replication"
	"repro/internal/server"
	"repro/internal/wal"
)

// inprocBackend builds the traced run's stacks in this process, from the
// same constructors cmd/gpsd wires (wal.Open/OpenStriped,
// replication.OpenAudit, server.New/NewSharded, server.NewHandler,
// cluster.New/NewHandler) with the same defaults, and puts a timing
// wrapper at every layer boundary. Only the replication source, which
// no request passes through, is left out.
type inprocBackend struct {
	tr    *tracer
	watch *epochWatch
}

// inprocNode is one in-process serving stack behind a loopback listener.
type inprocNode struct {
	name  string
	srv   *http.Server
	addr  string
	done  chan error
	close func(ctx context.Context) error

	daemons []*server.Daemon // the writers: one, or one per shard
	memo    *server.Metrics  // where required-rate memo lookups count
}

func (n *inprocNode) url() string { return "http://" + n.addr }

// stop shuts the listener down, then drains the stack the way gpsd's
// SIGTERM path does.
func (n *inprocNode) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := n.srv.Shutdown(ctx)
	if serr := <-n.done; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := n.close(ctx); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// kill has no abrupt equivalent in process: the stack is drained, and
// its directories are discarded with the set-up.
func (n *inprocNode) kill() { _ = n.stop() }

func serve(name string, h http.Handler, closeFn func(context.Context) error) (*inprocNode, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = closeFn(context.Background())
		return nil, err
	}
	n := &inprocNode{name: name, srv: &http.Server{Handler: h}, addr: ln.Addr().String(), done: make(chan error, 1), close: closeFn}
	go func() { n.done <- n.srv.Serve(ln) }()
	return n, nil
}

func (b *inprocBackend) startNode(o nodeOpts) (node, error) {
	node := b.tr.nodeIndex(o.name)
	opts := wal.Options{Sync: wal.SyncBatch}
	var logs []*wal.Log
	var recs []*wal.Recovered
	var err error
	if o.shards > 1 {
		logs, recs, err = wal.OpenStriped(o.walDir, o.shards, opts)
	} else {
		var l *wal.Log
		var rec *wal.Recovered
		l, rec, err = wal.Open(o.walDir, opts)
		logs, recs = []*wal.Log{l}, []*wal.Recovered{rec}
	}
	if err != nil {
		return nil, fmt.Errorf("%s: opening WAL: %w", o.name, err)
	}
	audits := make([]*replication.Audit, len(logs))
	closeAll := func() {
		for _, a := range audits {
			if a != nil {
				a.Close()
			}
		}
		for _, l := range logs {
			l.Close()
		}
	}
	alogs := make([]server.AdmissionLog, len(logs))
	asinks := make([]server.AuditSink, len(logs))
	for i, l := range logs {
		dir := o.walDir
		if o.shards > 1 {
			dir = filepath.Join(o.walDir, wal.StripeDirName(i))
		}
		head := l.NextSeq() - 1
		if audits[i], err = replication.OpenAudit(dir, replication.AuditOptions{WALHead: &head}); err != nil {
			closeAll()
			return nil, fmt.Errorf("%s: opening audit trail: %w", o.name, err)
		}
		alogs[i] = &tracedLog{Log: l, tr: b.tr, node: node}
		asinks[i] = &tracedAudit{sink: audits[i], tr: b.tr, node: node}
	}

	cfg := server.Config{Rate: o.rate}
	var svc server.Service
	var daemons []*server.Daemon
	var memo *server.Metrics
	var closeSvc func(context.Context) error
	if o.shards > 1 {
		sh, err := server.NewSharded(cfg, o.shards, alogs, recs, asinks)
		if err != nil {
			closeAll()
			return nil, err
		}
		for i := 0; i < sh.Shards(); i++ {
			daemons = append(daemons, sh.Shard(i))
		}
		svc, memo, closeSvc = sh, sh.Metrics(), sh.Close
	} else {
		cfg.Log, cfg.Recovered, cfg.Audit = alogs[0], recs[0], asinks[0]
		d, err := server.New(cfg)
		if err != nil {
			closeAll()
			return nil, err
		}
		daemons = []*server.Daemon{d}
		svc, memo, closeSvc = d, d.Metrics(), d.Close
	}
	ts := &tracedService{Service: svc, tr: b.tr, node: node, watch: b.watch, daemons: daemons}
	n, err := serve(o.name, b.tr.middleware(server.NewHandler(ts), spHTTP, node), func(ctx context.Context) error {
		err := closeSvc(ctx) // each writer snapshots and closes its WAL
		for _, a := range audits {
			if aerr := a.Close(); err == nil {
				err = aerr
			}
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	n.daemons, n.memo = daemons, memo
	b.watch.add(n)
	return n, nil
}

func (b *inprocBackend) startCoord(name, topoPath, journal string) (node, error) {
	node := b.tr.nodeIndex(name)
	topo, err := cluster.LoadTopology(topoPath)
	if err != nil {
		return nil, err
	}
	if err := wal.WriteCoordMarker(journal); err != nil {
		return nil, err
	}
	clog, rec, err := wal.Open(journal, wal.Options{Sync: wal.SyncBatch})
	if err != nil {
		return nil, err
	}
	head := clog.NextSeq() - 1
	audit, err := replication.OpenAudit(journal, replication.AuditOptions{WALHead: &head})
	if err != nil {
		clog.Close()
		return nil, err
	}
	hosts := map[string]uint8{}
	for _, hn := range topo.Nodes {
		if u := strings.TrimPrefix(hn.URL, "http://"); u != hn.URL {
			hosts[u] = b.tr.nodeIndex(hopName(hn.Name))
		}
	}
	coord, err := cluster.New(cluster.Config{
		Topology: topo,
		Client:   &http.Client{Transport: &tracedTransport{base: http.DefaultTransport.(*http.Transport).Clone(), tr: b.tr, hosts: hosts}},
		Log:      clog, Recovered: rec,
		Audit: &tracedAudit{sink: audit, tr: b.tr, node: node},
	})
	if err != nil {
		audit.Close()
		clog.Close()
		return nil, err
	}
	return serve(name, b.tr.middleware(cluster.NewHandler(coord), spCoord, node), func(context.Context) error {
		err := coord.Close()
		if aerr := audit.Close(); err == nil {
			err = aerr
		}
		return err
	})
}

// hopName maps a topology node name ("node1") to the name its hop
// daemon was started under ("hop1").
func hopName(topoName string) string { return "hop" + strings.TrimPrefix(topoName, "node") }

// --- wrappers ----------------------------------------------------------

// tracedService times every Service call the HTTP layer makes.
type tracedService struct {
	server.Service
	tr      *tracer
	node    uint8
	watch   *epochWatch
	daemons []*server.Daemon
}

func (s *tracedService) Admit(req server.AdmitRequest) (server.AdmitResult, error) {
	if !s.tr.on.Load() {
		res, err := s.Service.Admit(req)
		s.watch.admitted(s.daemons, res.ID, res.Admitted && err == nil)
		return res, err
	}
	sp := s.tr.start(0)
	res, err := s.Service.Admit(req)
	s.tr.end(sp, spService, opAdmit, s.node, res.ID, [16]byte{})
	s.watch.admitted(s.daemons, res.ID, res.Admitted && err == nil)
	return res, err
}

func (s *tracedService) Release(id uint64) (bool, error) {
	s.watch.released(s.daemons, id)
	if !s.tr.on.Load() {
		return s.Service.Release(id)
	}
	sp := s.tr.start(0)
	ok, err := s.Service.Release(id)
	s.tr.end(sp, spService, opRelease, s.node, id, [16]byte{})
	return ok, err
}

func (s *tracedService) Bounds(id uint64, q, dly float64) (server.BoundsReport, bool) {
	if !s.tr.on.Load() {
		return s.Service.Bounds(id, q, dly)
	}
	sp := s.tr.start(0)
	rep, ok := s.Service.Bounds(id, q, dly)
	s.tr.end(sp, spService, opBounds, s.node, id, [16]byte{})
	return rep, ok
}

func (s *tracedService) Prepare(req server.PrepareRequest) (server.PrepareResult, error) {
	if !s.tr.on.Load() {
		return s.Service.Prepare(req)
	}
	sp := s.tr.start(0)
	res, err := s.Service.Prepare(req)
	s.tr.end(sp, spService, opPrepare, s.node, 0, parseTx(req.TxID))
	return res, err
}

func (s *tracedService) CommitPrepared(txid string, shard int) (server.CommitResult, error) {
	if !s.tr.on.Load() {
		res, err := s.Service.CommitPrepared(txid, shard)
		s.watch.admitted(s.daemons, res.ID, res.Committed && err == nil)
		return res, err
	}
	sp := s.tr.start(0)
	res, err := s.Service.CommitPrepared(txid, shard)
	s.tr.end(sp, spService, opCommit, s.node, res.ID, parseTx(txid))
	s.watch.admitted(s.daemons, res.ID, res.Committed && err == nil)
	return res, err
}

func (s *tracedService) AbortPrepared(txid string, shard int) (bool, error) {
	if !s.tr.on.Load() {
		return s.Service.AbortPrepared(txid, shard)
	}
	sp := s.tr.start(0)
	ok, err := s.Service.AbortPrepared(txid, shard)
	s.tr.end(sp, spService, opAbort, s.node, 0, parseTx(txid))
	return ok, err
}

// walOp names the operation a logged op belongs to.
func walOp(k wal.Kind) uint8 {
	switch k {
	case wal.KindAdmit, wal.KindRouteAdmit:
		return opAdmit
	case wal.KindRelease, wal.KindRouteRelease:
		return opRelease
	case wal.KindPrepare:
		return opPrepare
	case wal.KindCommit:
		return opCommit
	case wal.KindAbort:
		return opAbort
	}
	return opOther
}

// tracedLog times the writer's WAL appends and snapshots.
type tracedLog struct {
	*wal.Log
	tr   *tracer
	node uint8
}

func (l *tracedLog) Append(ops []wal.Op) error {
	if !l.tr.on.Load() {
		return l.Log.Append(ops)
	}
	sp := l.tr.start(0)
	err := l.Log.Append(ops)
	for _, o := range ops {
		l.tr.end(sp, spWAL, walOp(o.Kind), l.node, o.ID, parseTx(o.TxID))
	}
	return err
}

func (l *tracedLog) Snapshot(st wal.State) error {
	if !l.tr.on.Load() {
		return l.Log.Snapshot(st)
	}
	sp := l.tr.start(0)
	err := l.Log.Snapshot(st)
	l.tr.end(sp, spSnapshot, opOther, l.node, 0, [16]byte{})
	return err
}

// tracedAudit times an audit sink's Record; it serves hop daemons and
// the coordinator alike.
type tracedAudit struct {
	sink interface{ Record(wal.Op) }
	tr   *tracer
	node uint8
}

func (a *tracedAudit) Record(o wal.Op) {
	if !a.tr.on.Load() {
		a.sink.Record(o)
		return
	}
	sp := a.tr.start(0)
	a.sink.Record(o)
	a.tr.end(sp, spAudit, walOp(o.Kind), a.node, o.ID, parseTx(o.TxID))
}

// tracedTransport times the coordinator's hop round trips and hands the
// hop its span id.
type tracedTransport struct {
	base  http.RoundTripper
	tr    *tracer
	hosts map[string]uint8 // hop host:port -> node index
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !t.tr.on.Load() {
		return t.base.RoundTrip(req)
	}
	op, key := pathOp(req.Method, req.URL.Path)
	var tx [16]byte
	if req.Body != nil {
		b, err := io.ReadAll(req.Body)
		req.Body.Close()
		if err != nil {
			return nil, err
		}
		tx = txOf(b)
		req.Body = io.NopCloser(bytes.NewReader(b))
	}
	sp := t.tr.start(0)
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.FormatUint(sp.id, 10))
	resp, err := t.base.RoundTrip(req)
	t.tr.end(sp, spRPC, op, t.hosts[req.URL.Host], key, tx)
	return resp, err
}

// pathOp classifies a request of the node or coordinator API and pulls
// the session id out of its path.
func pathOp(method, path string) (uint8, uint64) {
	last := path[strings.LastIndexByte(path, '/')+1:]
	id, _ := strconv.ParseUint(last, 10, 64)
	switch {
	case method == http.MethodPost && (path == "/v1/admit" || path == "/v1/cluster/admit"):
		return opAdmit, 0
	case method == http.MethodDelete:
		return opRelease, id
	case method == http.MethodGet && (strings.HasPrefix(path, "/v1/bounds/") || strings.HasPrefix(path, "/v1/route-bounds/")):
		return opBounds, id
	case path == "/v1/prepare":
		return opPrepare, 0
	case path == "/v1/commit":
		return opCommit, 0
	case path == "/v1/abort":
		return opAbort, 0
	}
	return opOther, 0
}

// txOf finds a "txid" string field in a JSON body without decoding it.
func txOf(b []byte) [16]byte {
	const k = `"txid":"`
	i := bytes.Index(b, []byte(k))
	if i < 0 {
		return [16]byte{}
	}
	b = b[i+len(k):]
	if j := bytes.IndexByte(b, '"'); j >= 0 {
		return parseTx(string(b[:j]))
	}
	return [16]byte{}
}

// idOf finds an "id" string field in a JSON body without decoding it.
func idOf(b []byte) uint64 { return idOfField(b, `"id":"`) }

// idOfField parses the decimal string value that follows key in b.
func idOfField(b []byte, key string) uint64 {
	i := bytes.Index(b, []byte(key))
	if i < 0 {
		return 0
	}
	b = b[i+len(key):]
	j := bytes.IndexByte(b, '"')
	if j < 0 {
		return 0
	}
	id, _ := strconv.ParseUint(string(b[:j]), 10, 64)
	return id
}

// hopRefs lists the hop sessions a coordinator admit reply names: each
// entry of its "hops" array carries the topology node index before the
// hop session id.
func (t *tracer) hopRefs(b []byte) []hopRef {
	var refs []hopRef
	for {
		i := bytes.Index(b, []byte(`"node":`))
		if i < 0 {
			return refs
		}
		b = b[i+len(`"node":`):]
		j := 0
		for j < len(b) && b[j] >= '0' && b[j] <= '9' {
			j++
		}
		node, err := strconv.Atoi(string(b[:j]))
		if err != nil {
			return refs
		}
		id := idOfField(b, `"hop_id":"`)
		refs = append(refs, hopRef{node: t.nodeIndex("hop" + strconv.Itoa(node+1)), id: id})
	}
}

// captureWriter keeps a copy of a (small) JSON reply for key extraction.
type captureWriter struct {
	http.ResponseWriter
	body []byte
}

func (w *captureWriter) Write(b []byte) (int, error) {
	w.body = append(w.body, b...)
	return w.ResponseWriter.Write(b)
}

// teeBody keeps a copy of what a handler reads of the request body.
type teeBody struct {
	io.ReadCloser
	buf []byte
}

func (t *teeBody) Read(p []byte) (int, error) {
	n, err := t.ReadCloser.Read(p)
	t.buf = append(t.buf, p[:n]...)
	return n, err
}

// middleware times one HTTP handler and records which request it
// served: the session id from the path or the reply, the transaction
// id from the body, and — for a coordinator admit — the hop sessions
// the reply names.
func (t *tracer) middleware(next http.Handler, name, node uint8) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
		op, key := pathOp(r.Method, r.URL.Path)
		// Keys come from the path where it names the session; otherwise
		// from the request body (the transaction) or the reply (the
		// assigned id), copied only for those requests.
		var tb *teeBody
		if op == opPrepare || op == opCommit || op == opAbort {
			tb = &teeBody{ReadCloser: r.Body}
			r.Body = tb
		}
		var cw *captureWriter
		if op == opAdmit || op == opCommit {
			cw = &captureWriter{ResponseWriter: w}
			w = cw
		}
		sp := t.start(parent)
		next.ServeHTTP(w, r)
		var tx [16]byte
		switch {
		case op == opAdmit && name == spCoord:
			key, tx = idOf(cw.body), txOf(cw.body)
			t.addHops(sp.id, t.hopRefs(cw.body))
		case op == opAdmit:
			key = idOf(cw.body)
		case op == opCommit:
			key = idOf(cw.body)
			tx = txOf(tb.buf)
		case op == opPrepare || op == opAbort:
			tx = txOf(tb.buf)
		}
		t.end(sp, name, op, node, key, tx)
	})
}

// --- epoch watcher -------------------------------------------------------

// epochWatch observes the in-process writers from outside: when each
// admitted session first appears in a published epoch (the in-process
// visibility delay), the deepest mutation queue, and the heap's peak.
type epochWatch struct {
	clk  *clock
	tr   *tracer
	stop chan struct{}
	done chan struct{}

	mu      sync.Mutex
	nodes   []*inprocNode
	pending map[*server.Daemon]map[uint64]int64 // admitted, not yet seen -> when
	last    map[*server.Daemon]*server.Epoch
	record  bool
	visible []int64
	queue   int
	heap    uint64
}

func newEpochWatch(clk *clock, tr *tracer) *epochWatch {
	w := &epochWatch{clk: clk, tr: tr, stop: make(chan struct{}), done: make(chan struct{}),
		pending: map[*server.Daemon]map[uint64]int64{}, last: map[*server.Daemon]*server.Epoch{}}
	go w.loop()
	return w
}

func (w *epochWatch) add(n *inprocNode) {
	w.mu.Lock()
	w.nodes = append(w.nodes, n)
	for _, d := range n.daemons {
		w.pending[d] = map[uint64]int64{}
	}
	w.mu.Unlock()
}

// owner returns the writer that assigned id: ids carry the shard in
// their low bits.
func owner(daemons []*server.Daemon, id uint64) *server.Daemon {
	if len(daemons) == 1 {
		return daemons[0]
	}
	bits := 0
	for 1<<bits < len(daemons) {
		bits++
	}
	k := int(id & (1<<bits - 1))
	if k >= len(daemons) {
		return nil
	}
	return daemons[k]
}

func (w *epochWatch) admitted(daemons []*server.Daemon, id uint64, ok bool) {
	if !ok {
		return
	}
	now := w.clk.now()
	w.mu.Lock()
	if d := owner(daemons, id); d != nil {
		w.pending[d][id] = now
	}
	w.mu.Unlock()
}

func (w *epochWatch) released(daemons []*server.Daemon, id uint64) {
	w.mu.Lock()
	if d := owner(daemons, id); d != nil {
		delete(w.pending[d], id)
	}
	w.mu.Unlock()
}

// setRecording starts or stops collecting samples.
func (w *epochWatch) setRecording(on bool) {
	w.mu.Lock()
	w.record = on
	w.mu.Unlock()
}

func (w *epochWatch) loop() {
	defer close(w.done)
	t := time.NewTicker(time.Millisecond)
	defer t.Stop()
	heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	for tick := 0; ; tick++ {
		select {
		case <-w.stop:
			return
		case <-t.C:
		}
		if tick%10 == 0 {
			metrics.Read(heap)
		}
		now := w.clk.now()
		w.mu.Lock()
		queue := 0
		for _, n := range w.nodes {
			for _, d := range n.daemons {
				queue += d.QueueDepth()
				ep := d.CurrentEpoch()
				if ep == w.last[d] {
					continue
				}
				w.last[d] = ep
				for id, at := range w.pending[d] {
					if _, ok := ep.IndexOf(id); ok {
						if w.record {
							w.visible = append(w.visible, now-at)
						}
						delete(w.pending[d], id)
					}
				}
			}
		}
		if w.record {
			w.queue = max(w.queue, queue)
			// The stack's heap, not the tracer's span buffers.
			w.heap = max(w.heap, heap[0].Value.Uint64()-uint64(w.tr.held.Load()))
		}
		w.mu.Unlock()
	}
}

func (w *epochWatch) close() {
	close(w.stop)
	<-w.done
}
