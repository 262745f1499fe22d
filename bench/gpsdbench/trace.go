package main

import (
	"bufio"
	"encoding/hex"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"unsafe"
)

// spanHeader carries the caller's span id across an HTTP hop, so the
// server-side span can name its parent. It is in canonical form, so
// setting it needs no canonicalisation.
const spanHeader = "X-Gpsdbench-Span"

// Span names: one per layer boundary the traced run wraps.
const (
	spClient   uint8 = iota // a client request, send to full reply
	spHTTP                  // a node's HTTP handler (server.NewHandler)
	spCoord                 // the coordinator's HTTP handler (cluster.NewHandler)
	spService               // a server.Service call
	spWAL                   // server.AdmissionLog.Append (one span per op)
	spSnapshot              // server.AdmissionLog.Snapshot
	spAudit                 // an audit sink's Record
	spRPC                   // one coordinator-to-hop round trip
	nSpanNames
)

var spanNames = [nSpanNames]string{"client", "http", "coord", "service", "wal.append", "wal.snapshot", "audit.record", "rpc"}

// Operations a span served.
const (
	opOther uint8 = iota
	opAdmit
	opRelease
	opBounds
	opPrepare
	opCommit
	opAbort
)

var opNames = []string{"other", "admit", "release", "bounds", "prepare", "commit", "abort"}

// span is one timed call at a layer boundary. It holds no pointers, so
// a run's hundreds of thousands of spans cost the collector nothing to
// scan. Key and Tx identify the request the call served (a session id,
// a hop session id, a cluster transaction id): calls on a writer
// goroutine, which carries no request context, join their request
// through them.
type span struct {
	id, parent uint64
	start, end int64
	key        uint64
	tx         [16]byte
	name, op   uint8
	node       uint8
}

func (s *span) dur() int64 { return s.end - s.start }

// tracer keeps every span in memory until the run ends. on is the one
// switch every wrapper reads: off, wrappers call straight through.
type tracer struct {
	clk  *clock
	on   atomic.Bool
	next atomic.Uint64
	held atomic.Int64 // bytes of span blocks allocated

	// One buffer per span name: each is mostly appended to by one
	// goroutine at a time (a client, a handler, a writer), so the
	// recording goroutines rarely contend.
	bufs [nSpanNames]spanBuf

	mu sync.Mutex
	// hops maps a coordinator admit span to the hop sessions it created,
	// which join the hop releases of the matching cluster release.
	hops  map[uint64][]hopRef
	nodes []string // node index -> name
}

// spanBuf holds spans in fixed-size blocks, so appends never copy old
// spans.
type spanBuf struct {
	mu     sync.Mutex
	blocks [][]span
}

type hopRef struct {
	node uint8
	id   uint64
}

const spanBlock = 1 << 14

func newTracer(clk *clock) *tracer {
	return &tracer{clk: clk, hops: map[uint64][]hopRef{}}
}

// nodeIndex registers a node name and returns its index.
func (t *tracer) nodeIndex(name string) uint8 {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, n := range t.nodes {
		if n == name {
			return uint8(i)
		}
	}
	t.nodes = append(t.nodes, name)
	return uint8(len(t.nodes) - 1)
}

// openSpan is a span whose call is still running.
type openSpan struct {
	id, parent uint64
	start      int64
}

func (t *tracer) start(parent uint64) openSpan {
	return openSpan{id: t.next.Add(1), parent: parent, start: t.clk.now()}
}

// end records s as finished now.
func (t *tracer) end(s openSpan, name, op, node uint8, key uint64, tx [16]byte) {
	t.add(span{id: s.id, parent: s.parent, start: s.start, end: t.clk.now(), key: key, tx: tx, name: name, op: op, node: node})
}

func (t *tracer) add(s span) {
	b := &t.bufs[s.name]
	b.mu.Lock()
	n := len(b.blocks)
	if n == 0 || len(b.blocks[n-1]) == spanBlock {
		b.blocks = append(b.blocks, make([]span, 0, spanBlock))
		t.held.Add(spanBlock * int64(unsafe.Sizeof(span{})))
		n++
	}
	b.blocks[n-1] = append(b.blocks[n-1], s)
	b.mu.Unlock()
}

func (t *tracer) addHops(id uint64, refs []hopRef) {
	t.mu.Lock()
	t.hops[id] = refs
	t.mu.Unlock()
}

// all returns every span recorded so far.
func (t *tracer) all() []span {
	var out []span
	for i := range t.bufs {
		b := &t.bufs[i]
		b.mu.Lock()
		for _, blk := range b.blocks {
			out = append(out, blk...)
		}
		b.mu.Unlock()
	}
	return out
}

// parseTx decodes a hex cluster transaction id; anything else is zero.
func parseTx(s string) [16]byte {
	var tx [16]byte
	if len(s) == 32 {
		_, _ = hex.Decode(tx[:], []byte(s))
	}
	return tx
}

// spanJSON is one line of trace.jsonl.
type spanJSON struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Op     string `json:"op"`
	Node   string `json:"node"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Self   int64  `json:"self"`
	Key    uint64 `json:"key,omitempty"`
	Tx     string `json:"tx,omitempty"`
}

// writeJSONL writes the linked spans one JSON object per line, with
// names spelled out and each span's self time.
func (t *tracer) writeJSONL(path string, spans []span, self map[uint64]int64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		s := &spans[i]
		j := spanJSON{ID: s.id, Parent: s.parent, Name: spanNames[s.name], Op: opNames[s.op],
			Start: s.start, End: s.end, Self: self[s.id], Key: s.key}
		if int(s.node) < len(t.nodes) {
			j.Node = t.nodes[s.node]
		}
		if s.tx != ([16]byte{}) {
			j.Tx = hex.EncodeToString(s.tx[:])
		}
		if err := enc.Encode(&j); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
