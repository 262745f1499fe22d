package replication

import (
	"encoding/hex"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wal"
)

// Source is the primary side of replication: three read-mostly HTTP
// handlers over the WAL directory, plus the prune-watermark hold that
// keeps every stripe's history on disk until its consumers have it.
// It never appends to the log — shipping is pull-based, so a slow or
// absent follower costs the primary nothing but retained segments (and
// the prune watermark guarantees exactly that retention). Every gpsd
// primary wires one the same way: a hop over its shard stripes, a
// coordinator over its one-stripe route journal.
type Source struct {
	// Dir is the WAL directory to ship.
	Dir string
	// NodeID names this primary in manifests.
	NodeID string
	// Logs are the WAL stripes under Dir in stripe order, as
	// wal.OpenStriped returned them. One log is Dir itself and ships as
	// a single directory; two or more ship the stripes marker and every
	// stripe-NN/ directory.
	Logs []*wal.Log
	// Audits, when set, line up with Logs: stripe i's Merkle audit
	// trail. Each trail's durable tail caps its stripe's prune
	// watermark, any frozen trail raises gpsd_audit_fatal, and a
	// one-stripe manifest carries the chain head.
	Audits []*Audit
	// OnAck, when set, runs after every recorded ack.
	OnAck func()
	// AckTTL expires a follower's ack entry after this much ack
	// inactivity, so a permanently dead follower (or a one-shot client
	// that posted an arbitrary follower_id once — the endpoint is
	// unauthenticated) cannot pin the prune watermark and grow the disk
	// forever. 0 means DefaultAckTTL; negative disables expiry. An
	// expired follower that returns may find its promised history
	// pruned and stall with a permanent lag — wiping its mirror
	// directory reseeds it.
	AckTTL time.Duration
	// Now stubs time for tests; nil means time.Now.
	Now func() time.Time

	mu      sync.Mutex
	acks    map[string]ackEntry
	holding atomic.Bool // HoldPrunes owns the logs' prune watermarks

	fetches      atomic.Int64
	bytesShipped atomic.Int64
	acksTotal    atomic.Int64
}

// DefaultAckTTL is how long a silent follower's ack keeps holding
// segments before it expires (Source.AckTTL overrides).
const DefaultAckTTL = 5 * time.Minute

// ackEntry is one follower's progress plus its liveness stamp. A
// follower of a multi-stripe primary also reports stripeSeqs, its
// per-stripe verified heads; a one-stripe follower's seq is its head.
type ackEntry struct {
	seq        uint64
	stripeSeqs []uint64
	last       time.Time
}

func (s *Source) now() time.Time {
	if s.Now != nil {
		return s.Now()
	}
	return time.Now()
}

// expireLocked drops followers whose newest ack is older than the TTL.
// Called lazily under s.mu from every reader, so the watermark loop's
// periodic MinAck enforces expiry even when no acks arrive at all.
func (s *Source) expireLocked() {
	ttl := s.AckTTL
	if ttl == 0 {
		ttl = DefaultAckTTL
	}
	if ttl < 0 {
		return
	}
	now := s.now()
	for id, e := range s.acks {
		if now.Sub(e.last) > ttl {
			delete(s.acks, id)
		}
	}
}

// Mount registers the replication endpoints on mux.
func (s *Source) Mount(mux *http.ServeMux) {
	mux.HandleFunc("GET /v1/repl/status", s.handleStatus)
	mux.HandleFunc("GET /v1/repl/fetch", s.handleFetch)
	mux.HandleFunc("POST /v1/repl/ack", s.handleAck)
}

// MinAck returns the lowest sequence of stripe i acked by every live
// follower (acked within AckTTL), and whether any exists. A primary
// with no live followers holds nothing back on their behalf. On a
// multi-stripe primary, a follower that never reported stripe i pins
// it whole.
func (s *Source) MinAck(i int) (uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked()
	min, any := uint64(0), false
	for _, e := range s.acks {
		seq := e.seq
		if len(s.Logs) > 1 {
			if i >= len(e.stripeSeqs) {
				return 0, true
			}
			seq = e.stripeSeqs[i]
		}
		if !any || seq < min {
			min, any = seq, true
		}
	}
	return min, any
}

// UpdateWatermarks sets each stripe's prune watermark to the highest
// sequence that both its audit trail has made durable and every live
// follower has acked, so pruning never outruns either consumer.
func (s *Source) UpdateWatermarks() {
	for i, l := range s.Logs {
		mark := uint64(math.MaxUint64)
		if s.Audits != nil {
			mark = s.Audits[i].DurableSeq()
		}
		if min, ok := s.MinAck(i); ok && min < mark {
			mark = min
		}
		l.SetPruneWatermark(mark)
	}
}

// HoldPrunes takes over the logs' prune watermarks: they start fully
// held at 0, so nothing is pruned before the audit trails confirm
// durability, and are recomputed by UpdateWatermarks after every
// follower ack and every interval until stop is called.
func (s *Source) HoldPrunes(interval time.Duration) (stop func()) {
	for _, l := range s.Logs {
		l.SetPruneWatermark(0)
	}
	s.holding.Store(true)
	s.UpdateWatermarks()
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				s.UpdateWatermarks()
			case <-quit:
				return
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(quit)
			<-done
		})
	}
}

// head is the summed durable head over every stripe, so followers and
// smoke checks see one monotone head at any stripe count.
func (s *Source) head() uint64 {
	var sum uint64
	for _, l := range s.Logs {
		sum += l.NextSeq() - 1
	}
	return sum
}

// Acks returns a copy of the per-follower ack table (live entries
// only).
func (s *Source) Acks() map[string]uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked()
	out := make(map[string]uint64, len(s.acks))
	for k, e := range s.acks {
		out[k] = e.seq
	}
	return out
}

// manifestFiles lists the shippable files in apply order: segments by
// sequence, then snapshots, then the audit trail. A multi-stripe
// primary leads with the stripe-count marker and then lists each
// stripe's files in that per-stripe order under "stripe-NN/" names, so
// the follower mirrors the exact on-disk layout a promoted daemon
// boots from.
func (s *Source) manifestFiles() ([]ManifestFile, error) {
	if len(s.Logs) <= 1 {
		return s.dirFiles(s.Dir, "")
	}
	info, err := os.Stat(filepath.Join(s.Dir, wal.StripesFileName))
	if err != nil {
		return nil, err
	}
	out := []ManifestFile{{Name: wal.StripesFileName, Size: info.Size()}}
	for i := range s.Logs {
		sub := wal.StripeDirName(i)
		files, err := s.dirFiles(filepath.Join(s.Dir, sub), sub+"/")
		if err != nil {
			return nil, err
		}
		out = append(out, files...)
	}
	return out, nil
}

// dirFiles lists one WAL directory's shippable files in apply order,
// prefixing every name with prefix.
func (s *Source) dirFiles(dir, prefix string) ([]ManifestFile, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) && prefix != "" {
			return nil, nil // stripe dir not created yet
		}
		return nil, err
	}
	var segs, snaps []ManifestFile
	var audit, marker *ManifestFile
	for _, e := range entries {
		name := e.Name()
		info, err := e.Info()
		if err != nil {
			continue // raced a prune
		}
		mf := ManifestFile{Name: prefix + name, Size: info.Size()}
		switch {
		case IsShippableSegment(name):
			segs = append(segs, mf)
		case IsShippableSnapshot(name):
			snaps = append(snaps, mf)
		case name == AuditFileName:
			a := mf
			audit = &a
		case name == wal.CoordMarkerName && prefix == "":
			// A coordinator journal's layout marker leads the manifest
			// (like the stripe-count file) so a promoted standby's mirror
			// is a complete coordinator directory.
			m := mf
			marker = &m
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].Name < segs[j].Name })
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].Name < snaps[j].Name })
	out := append(segs, snaps...)
	if audit != nil {
		out = append(out, *audit)
	}
	if marker != nil {
		out = append([]ManifestFile{*marker}, out...)
	}
	return out, nil
}

func (s *Source) handleStatus(w http.ResponseWriter, r *http.Request) {
	files, err := s.manifestFiles()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	m := Manifest{
		NodeID:   s.NodeID,
		HeadSeq:  s.head(),
		UnixNano: s.now().UnixNano(),
		Files:    files,
	}
	if n := len(s.Logs); n > 1 {
		m.Stripes = n
		m.StripeHeads = make([]uint64, n)
		for i, l := range s.Logs {
			m.StripeHeads[i] = l.NextSeq() - 1
		}
	}
	if len(s.Audits) == 1 {
		a := s.Audits[0]
		head, _, _ := a.Head()
		m.AuditGenesis = a.GenesisSeq()
		m.AuditBatchN = a.BatchN()
		m.AuditHead = hex.EncodeToString(head[:])
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(m)
}

func (s *Source) handleFetch(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("file")
	if !isShippableName(name) {
		http.Error(w, "not a shippable file", http.StatusBadRequest)
		return
	}
	off, err := strconv.ParseInt(r.URL.Query().Get("off"), 10, 64)
	if err != nil || off < 0 {
		http.Error(w, "bad offset", http.StatusBadRequest)
		return
	}
	f, err := os.Open(filepath.Join(s.Dir, name))
	if err != nil {
		if os.IsNotExist(err) {
			http.Error(w, "file pruned", http.StatusGone)
			return
		}
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	// Snapshot the size once: the file may keep growing while we
	// stream, and a consistent FileSize lets the follower bound-check
	// every chunk.
	size := info.Size()
	if off > size {
		http.Error(w, "offset beyond file", http.StatusRequestedRangeNotSatisfiable)
		return
	}
	s.fetches.Add(1)
	w.Header().Set("Content-Type", "application/octet-stream")
	if _, err := io.WriteString(w, shipMagic); err != nil {
		return
	}
	buf := make([]byte, 0, shipMaxChunk+64)
	payload := make([]byte, shipMaxChunk)
	for off < size {
		n := size - off
		if n > shipMaxChunk {
			n = shipMaxChunk
		}
		if _, err := f.ReadAt(payload[:n], off); err != nil {
			return // cut the stream: no end chunk means the follower discards nothing but retries
		}
		buf = buf[:0]
		buf, err = AppendChunk(buf, FileChunk{Name: name, Off: off, FileSize: size, Payload: payload[:n]})
		if err != nil {
			return
		}
		if _, err := w.Write(buf); err != nil {
			return
		}
		s.bytesShipped.Add(n)
		off += n
	}
	_, _ = w.Write(AppendEnd(nil))
}

func (s *Source) handleAck(w http.ResponseWriter, r *http.Request) {
	var a Ack
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&a); err != nil || a.FollowerID == "" {
		http.Error(w, "bad ack", http.StatusBadRequest)
		return
	}
	s.mu.Lock()
	if s.acks == nil {
		s.acks = map[string]ackEntry{}
	}
	// Acks are monotone per follower — a delayed duplicate can't lower
	// the watermark — but any ack refreshes liveness.
	e, ok := s.acks[a.FollowerID]
	if !ok || a.AckSeq > e.seq {
		e.seq = a.AckSeq
	}
	if len(a.StripeSeqs) > len(e.stripeSeqs) {
		grown := make([]uint64, len(a.StripeSeqs))
		copy(grown, e.stripeSeqs)
		e.stripeSeqs = grown
	}
	for i, seq := range a.StripeSeqs {
		if seq > e.stripeSeqs[i] {
			e.stripeSeqs[i] = seq
		}
	}
	e.last = s.now()
	s.acks[a.FollowerID] = e
	s.mu.Unlock()
	s.acksTotal.Add(1)
	if s.holding.Load() {
		s.UpdateWatermarks()
	}
	if s.OnAck != nil {
		s.OnAck()
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(AckReply{HeadSeq: s.head()})
}

// WriteMetrics renders the primary-side replication metrics.
func (s *Source) WriteMetrics(w io.Writer) {
	if s.Audits != nil {
		fatal := int64(0)
		for _, a := range s.Audits {
			if a.Err() != nil {
				fatal = 1
			}
		}
		writeGauge(w, "gpsd_audit_fatal", "1 when any stripe's audit sink latched a fatal error and froze its trail (that stripe's prune watermark held)", fatal)
	}
	acks := s.Acks()
	writeCounter(w, "gpsd_repl_fetches_total", "replication fetch requests served", s.fetches.Load())
	writeCounter(w, "gpsd_repl_shipped_bytes_total", "file bytes shipped to followers", s.bytesShipped.Load())
	writeCounter(w, "gpsd_repl_acks_total", "follower acks received", s.acksTotal.Load())
	writeGauge(w, "gpsd_repl_followers", "followers that have acked at least once", int64(len(acks)))
	if len(acks) > 0 {
		lowest := uint64(math.MaxUint64)
		for _, seq := range acks {
			lowest = min(lowest, seq)
		}
		writeGauge(w, "gpsd_repl_min_acked_seq", "lowest follower-acked op sequence", int64(lowest))
	}
}

// IsShippableSegment reports whether name is a WAL segment file.
func IsShippableSegment(name string) bool { return filepath.Base(name) == name && isSeg(name) }

// IsShippableSnapshot reports whether name is a WAL snapshot file.
func IsShippableSnapshot(name string) bool { return filepath.Base(name) == name && isSnap(name) }

// splitStripePrefix splits a manifest name into its stripe directory
// prefix ("" for flat-layout names) and base name, accepting only the
// exact "stripe-NN/" shape — anything else with a separator is
// rejected wholesale, so fetch paths can never escape the WAL
// directory.
func splitStripePrefix(name string) (prefix, base string, ok bool) {
	i := strings.IndexByte(name, '/')
	if i < 0 {
		return "", name, true
	}
	prefix, base = name[:i], name[i+1:]
	if strings.ContainsAny(base, "/\\") || !isStripeDir(prefix) {
		return "", "", false
	}
	return prefix, base, true
}

// isStripeDir matches exactly the wal.StripeDirName shape.
func isStripeDir(s string) bool {
	if len(s) < len("stripe-00") || !strings.HasPrefix(s, "stripe-") {
		return false
	}
	for _, c := range s[len("stripe-"):] {
		if c < '0' || c > '9' {
			return false
		}
	}
	return len(s) <= len("stripe-")+4
}

func isShippableName(name string) bool {
	if name == "" || strings.Contains(name, "..") || strings.ContainsAny(name, "\\") {
		return false
	}
	if name == wal.StripesFileName || name == wal.CoordMarkerName {
		return true
	}
	_, base, ok := splitStripePrefix(name)
	if !ok || base != filepath.Base(base) {
		return false
	}
	return isSeg(base) || isSnap(base) || base == AuditFileName
}
