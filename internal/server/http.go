package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"time"

	"repro/internal/admission"
	"repro/internal/ebb"
	"repro/internal/prom"
)

// maxAdmitBody bounds the /v1/admit request body; a well-formed request
// is a handful of numbers, so anything larger is shed before decoding.
const maxAdmitBody = 1 << 16

// admitWire is the JSON shape of POST /v1/admit: an E.B.B. triple and a
// soft-QoS target Pr{D >= delay} <= eps.
type admitWire struct {
	Name   string  `json:"name"`
	Rho    float64 `json:"rho"`
	Lambda float64 `json:"lambda"`
	Alpha  float64 `json:"alpha"`
	Delay  float64 `json:"delay"`
	Eps    float64 `json:"eps"`
}

type admitResponse struct {
	Admitted     bool    `json:"admitted"`
	ID           string  `json:"id,omitempty"`
	RequiredRate float64 `json:"required_rate,omitempty"`
	Free         float64 `json:"free"`
	Reason       string  `json:"reason,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
	Retry bool   `json:"retry,omitempty"`
}

// decodeAdmit parses and validates an admission request body. Every
// malformed body — bad JSON, unknown fields, out-of-range numbers
// (which is how NaN/Inf arrive, since JSON cannot encode them
// natively), non-positive or non-finite parameters — yields an error;
// it never panics. The fuzz target FuzzAdmitDecode pins both halves of
// that contract.
func decodeAdmit(r io.Reader) (AdmitRequest, error) {
	var w admitWire
	if err := decodeBody(r, &w); err != nil {
		return AdmitRequest{}, err
	}
	req := AdmitRequest{
		Name:    w.Name,
		Arrival: ebb.Process{Rho: w.Rho, Lambda: w.Lambda, Alpha: w.Alpha},
		Target:  admission.Target{Delay: w.Delay, Eps: w.Eps},
	}
	if err := req.Arrival.Validate(); err != nil {
		return AdmitRequest{}, err
	}
	if err := req.Target.Validate(); err != nil {
		return AdmitRequest{}, err
	}
	return req, nil
}

// statusRecorder captures the status code a handler wrote so the
// metrics middleware can classify it.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// NewHandler builds the admission service's HTTP surface:
//
//	POST   /v1/admit          admission decision (429 + Retry-After under backpressure)
//	DELETE /v1/sessions/{id}  release
//	GET    /v1/bounds/{id}    per-session tails from the published epoch (?q=&d=)
//	GET    /v1/partition      feasible partition H_1..H_L (?shard= selects one shard)
//	GET    /healthz           liveness + epoch/session gauges
//	GET    /metrics           Prometheus text format
//
// svc is either a standalone *Daemon or the *Sharded facade — the
// routes and wire shapes are identical either way. Every response is
// JSON except /metrics; every handler observation (status class,
// latency) lands in the service's HTTPMetrics.
func NewHandler(svc Service) http.Handler {
	h := &handler{svc: svc}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/admit", h.handleAdmit)
	mux.HandleFunc("POST /v1/prepare", h.handlePrepare)
	mux.HandleFunc("POST /v1/commit", h.handleCommit)
	mux.HandleFunc("POST /v1/abort", h.handleAbort)
	mux.HandleFunc("DELETE /v1/sessions/{id}", h.handleRelease)
	mux.HandleFunc("GET /v1/cluster/sessions", h.handleClusterSessions)
	mux.HandleFunc("GET /v1/bounds/{id}", h.handleBounds)
	mux.HandleFunc("GET /v1/partition", h.handlePartition)
	mux.HandleFunc("GET /healthz", h.handleHealthz)
	mux.HandleFunc("GET /metrics", h.handleMetrics)
	met := svc.HTTPMetrics()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		mux.ServeHTTP(rec, r)
		met.ObserveHTTP(rec.status, time.Since(start))
	})
}

// handler adapts a Service to the HTTP wire shapes.
type handler struct {
	svc Service
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeBackpressure is the shed path: the client is asked to retry
// after the configured hint instead of the daemon blocking or queueing
// without bound.
func (h *handler) writeBackpressure(w http.ResponseWriter, err error) {
	w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(h.svc.RetryAfter().Seconds()))))
	status := http.StatusTooManyRequests
	if errors.Is(err, ErrDraining) {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, errorResponse{Error: err.Error(), Retry: true})
}

func (h *handler) handleAdmit(w http.ResponseWriter, r *http.Request) {
	req, err := decodeAdmit(r.Body)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	res, err := h.svc.Admit(req)
	if err != nil {
		h.writeBackpressure(w, err)
		return
	}
	resp := admitResponse{Admitted: res.Admitted, RequiredRate: res.RequiredRate,
		Free: res.Free, Reason: res.Reason}
	if res.Admitted {
		resp.ID = strconv.FormatUint(res.ID, 10)
	}
	writeJSON(w, http.StatusOK, resp)
}

// prepareWire is the JSON shape of POST /v1/prepare: the admit payload
// plus the coordinator transaction id, the weight to reserve, and the
// reservation TTL in milliseconds.
type prepareWire struct {
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

type prepareResponse struct {
	Prepared bool    `json:"prepared"`
	Shard    int     `json:"shard"`
	Deadline int64   `json:"deadline_unix_nano,omitempty"`
	Free     float64 `json:"free"`
	Reason   string  `json:"reason,omitempty"`
}

// txWire is the JSON shape of POST /v1/commit and /v1/abort: the
// transaction id plus the shard echoed from the prepare response.
type txWire struct {
	TxID  string `json:"txid"`
	Shard int    `json:"shard"`
}

// decodeBody decodes one JSON object into v with the admit path's
// strictness: bounded body, unknown fields refused, and one request per
// body — trailing data is a malformed request.
func decodeBody(r io.Reader, v any) error {
	dec := json.NewDecoder(io.LimitReader(r, maxAdmitBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decode: %w", err)
	}
	if dec.More() {
		return errors.New("decode: trailing data after request object")
	}
	return nil
}

func (h *handler) handlePrepare(w http.ResponseWriter, r *http.Request) {
	var pw prepareWire
	if err := decodeBody(r.Body, &pw); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	req := PrepareRequest{
		TxID:    pw.TxID,
		Name:    pw.Name,
		Arrival: ebb.Process{Rho: pw.Rho, Lambda: pw.Lambda, Alpha: pw.Alpha},
		Target:  admission.Target{Delay: pw.Delay, Eps: pw.Eps},
		Phi:     pw.Phi,
		TTL:     time.Duration(pw.TTLms) * time.Millisecond,
	}
	res, err := h.svc.Prepare(req)
	if err != nil {
		if errors.Is(err, ErrBusy) || errors.Is(err, ErrDraining) || errors.Is(err, ErrWAL) {
			h.writeBackpressure(w, err)
			return
		}
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, prepareResponse{Prepared: res.Prepared, Shard: res.Shard,
		Deadline: res.Deadline, Free: res.Free, Reason: res.Reason})
}

func (h *handler) handleCommit(w http.ResponseWriter, r *http.Request) {
	var tw txWire
	if err := decodeBody(r.Body, &tw); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	res, err := h.svc.CommitPrepared(tw.TxID, tw.Shard)
	if err != nil {
		h.writeBackpressure(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"committed": res.Committed,
		"id":        strconv.FormatUint(res.ID, 10),
		"reason":    res.Reason,
	})
}

func (h *handler) handleAbort(w http.ResponseWriter, r *http.Request) {
	var tw txWire
	if err := decodeBody(r.Body, &tw); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	ok, err := h.svc.AbortPrepared(tw.TxID, tw.Shard)
	if err != nil {
		h.writeBackpressure(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"aborted": ok})
}

// clusterSessionWire is one entry of GET /v1/cluster/sessions: a live
// cluster-committed session, the transaction that created it, and its
// age in milliseconds (hop-clock, so the coordinator's TTL comparison
// does not depend on clock agreement).
type clusterSessionWire struct {
	ID    string `json:"id"`
	TxID  string `json:"txid"`
	AgeMs int64  `json:"age_ms"`
}

func (h *handler) handleClusterSessions(w http.ResponseWriter, r *http.Request) {
	infos, err := h.svc.ClusterSessions()
	if err != nil {
		h.writeBackpressure(w, err)
		return
	}
	out := make([]clusterSessionWire, len(infos))
	for i, s := range infos {
		out[i] = clusterSessionWire{
			ID:    strconv.FormatUint(s.ID, 10),
			TxID:  s.TxID,
			AgeMs: s.AgeNanos / int64(time.Millisecond),
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"sessions": out})
}

func parseID(r *http.Request) (uint64, error) {
	return strconv.ParseUint(r.PathValue("id"), 10, 64)
}

func (h *handler) handleRelease(w http.ResponseWriter, r *http.Request) {
	id, err := parseID(r)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "malformed session id"})
		return
	}
	ok, err := h.svc.Release(id)
	if err != nil {
		h.writeBackpressure(w, err)
		return
	}
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "unknown session id"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"released": true, "id": strconv.FormatUint(id, 10)})
}

// boundsWire is the JSON shape of GET /v1/bounds/{id}.
type boundsWire struct {
	ID          string  `json:"id"`
	Name        string  `json:"name"`
	Epoch       uint64  `json:"epoch"`
	G           float64 `json:"g"`
	Rho         float64 `json:"rho"`
	Theorem     string  `json:"theorem"`
	Q           float64 `json:"q"`
	BacklogProb float64 `json:"backlog_prob"`
	Delay       float64 `json:"delay"`
	DelayProb   float64 `json:"delay_prob"`
	TargetDelay float64 `json:"target_delay"`
	TargetEps   float64 `json:"target_eps"`
	AchievedEps float64 `json:"achieved_eps"`
	MeetsTarget bool    `json:"meets_target"`
}

func parseEvalPoint(r *http.Request, key string) (float64, error) {
	s := r.URL.Query().Get(key)
	if s == "" {
		return 0, nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		return 0, fmt.Errorf("query %s = %q, want nonnegative finite", key, s)
	}
	return v, nil
}

func (h *handler) handleBounds(w http.ResponseWriter, r *http.Request) {
	id, err := parseID(r)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "malformed session id"})
		return
	}
	q, err := parseEvalPoint(r, "q")
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	dly, err := parseEvalPoint(r, "d")
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	rep, ok := h.svc.Bounds(id, q, dly)
	if !ok {
		if h.svc.Pending(id) {
			// Admitted after the current epoch was built: the next
			// rebuild (bounded by MaxEpochAge) will carry it.
			w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(h.svc.EpochAgeBound().Seconds()))+1))
			writeJSON(w, http.StatusTooEarly, errorResponse{Error: "session not yet in published epoch", Retry: true})
			return
		}
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "unknown session id"})
		return
	}
	writeJSON(w, http.StatusOK, boundsWire{
		ID:          strconv.FormatUint(rep.ID, 10),
		Name:        rep.Name,
		Epoch:       rep.Epoch,
		G:           rep.G,
		Rho:         rep.Rho,
		Theorem:     rep.Theorem,
		Q:           rep.Q,
		BacklogProb: rep.BacklogProb,
		Delay:       rep.Delay,
		DelayProb:   rep.DelayProb,
		TargetDelay: rep.TargetDelay,
		TargetEps:   rep.TargetEps,
		AchievedEps: rep.AchievedEps,
		MeetsTarget: rep.MeetsTarget,
	})
}

// partitionWire is the JSON shape of GET /v1/partition: the feasible
// partition H_1..H_L of the published epoch(s), by session id.
type partitionWire struct {
	Epoch    uint64     `json:"epoch"`
	Sessions int        `json:"sessions"`
	Classes  [][]string `json:"classes"`
}

func (h *handler) handlePartition(w http.ResponseWriter, r *http.Request) {
	shard := -1
	if s := r.URL.Query().Get("shard"); s != "" {
		v, err := strconv.ParseUint(s, 10, 16)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: "malformed shard index"})
			return
		}
		shard = int(v)
	}
	view, err := h.svc.Partition(shard)
	if err != nil {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "unknown shard index"})
		return
	}
	out := partitionWire{Epoch: view.Epoch, Sessions: view.Sessions, Classes: [][]string{}}
	for _, class := range view.Classes {
		ids := make([]string, len(class))
		for k, id := range class {
			ids[k] = strconv.FormatUint(id, 10)
		}
		out.Classes = append(out.Classes, ids)
	}
	writeJSON(w, http.StatusOK, out)
}

func (h *handler) handleHealthz(w http.ResponseWriter, r *http.Request) {
	hv := h.svc.Health()
	status, code := "ok", http.StatusOK
	switch {
	case hv.Draining:
		status, code = "draining", http.StatusServiceUnavailable
	case hv.Degraded:
		// Still 200: the node serves its last published epoch, and
		// consumers decode the body, not the code.
		status = "degraded"
	}
	body := map[string]any{
		"status":   status,
		"epoch":    hv.EpochSeq,
		"sessions": hv.Sessions,
		"used":     hv.Used,
		"rate":     hv.Rate,
		"shards":   hv.Shards,
	}
	// The shape is a wire contract (walcheck bit-compares it); the
	// cluster reservation gauges ride along only when prepares are
	// pending — additive, decoded by name, so existing consumers keep
	// working.
	if hv.Prepares > 0 {
		body["reserved"] = hv.Reserved
		body["prepares"] = hv.Prepares
	}
	writeJSON(w, code, body)
}

func (h *handler) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", prom.ContentType)
	h.svc.WriteMetrics(w)
}
