package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"repro/internal/admission"
	"repro/internal/ebb"
	"repro/internal/prom"
)

// maxBody bounds coordinator request bodies, matching the hop daemons'
// admit-path strictness.
const maxBody = 1 << 16

// admitWire is the JSON shape of POST /v1/cluster/admit: the E.B.B.
// triple, the end-to-end delay target, and the route as topology node
// indices.
type admitWire struct {
	Name   string  `json:"name"`
	Rho    float64 `json:"rho"`
	Lambda float64 `json:"lambda"`
	Alpha  float64 `json:"alpha"`
	Delay  float64 `json:"delay"`
	Eps    float64 `json:"eps"`
	Route  []int   `json:"route"`
}

// hopWire is one hop's delay tail in a bound reply.
type hopWire struct {
	Node      int     `json:"node"`
	Name      string  `json:"name"`
	HopID     string  `json:"hop_id,omitempty"`
	G         float64 `json:"g"`
	Theta     float64 `json:"theta"`
	Prefactor float64 `json:"prefactor"`
	Rate      float64 `json:"rate"`
}

// boundWire carries an end-to-end guarantee. Floats round-trip
// bit-exactly through encoding/json (shortest-representation
// encoding), so offline tooling can compare these against its own
// analysis with Float64bits.
type boundWire struct {
	Delay        float64 `json:"delay"`
	Eps          float64 `json:"eps"`
	AchievedEps  float64 `json:"achieved_eps"`
	EnvPrefactor float64 `json:"env_prefactor"`
	EnvRate      float64 `json:"env_rate"`
}

type admitResponse struct {
	Admitted bool      `json:"admitted"`
	ID       string    `json:"id,omitempty"`
	TxID     string    `json:"txid,omitempty"`
	Reason   string    `json:"reason,omitempty"`
	E2E      boundWire `json:"e2e"`
	Hops     []hopWire `json:"hops,omitempty"`
}

type routeBoundsResponse struct {
	ID   string    `json:"id"`
	Name string    `json:"name"`
	E2E  boundWire `json:"e2e"`
	Hops []hopWire `json:"hops"`
}

type errorReply struct {
	Error string `json:"error"`
	Retry bool   `json:"retry,omitempty"`
}

func wireBound(b Bound) boundWire {
	return boundWire{
		Delay:        b.Delay,
		Eps:          b.Eps,
		AchievedEps:  b.AchievedEps,
		EnvPrefactor: b.EnvPrefactor,
		EnvRate:      b.EnvRate,
	}
}

func wireHops(hops []HopDelay) []hopWire {
	out := make([]hopWire, len(hops))
	for k, h := range hops {
		out[k] = hopWire{
			Node:      h.Node,
			Name:      h.Name,
			G:         h.G,
			Theta:     h.Theta,
			Prefactor: h.Prefactor,
			Rate:      h.Rate,
		}
		if h.HopID != 0 {
			out[k].HopID = strconv.FormatUint(h.HopID, 10)
		}
	}
	return out
}

type coordHandler struct {
	c *Coordinator
}

// NewHandler serves the coordinator API:
//
//	POST   /v1/cluster/admit          admit a session over a route
//	DELETE /v1/cluster/sessions/{id}  release an end-to-end session
//	GET    /v1/route-bounds/{id}      the session's composed guarantee
//	GET    /healthz                   liveness and committed-set size
//	GET    /metrics                   Prometheus text counters
func NewHandler(c *Coordinator) http.Handler {
	h := &coordHandler{c: c}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/cluster/admit", h.handleAdmit)
	mux.HandleFunc("DELETE /v1/cluster/sessions/{id}", h.handleRelease)
	mux.HandleFunc("GET /v1/route-bounds/{id}", h.handleRouteBounds)
	mux.HandleFunc("GET /healthz", h.handleHealthz)
	mux.HandleFunc("GET /metrics", h.handleMetrics)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func decodeBody(r io.Reader, v any) error {
	dec := json.NewDecoder(io.LimitReader(r, maxBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decode: %w", err)
	}
	if dec.More() {
		return errors.New("decode: trailing data after request object")
	}
	return nil
}

func (h *coordHandler) handleAdmit(w http.ResponseWriter, r *http.Request) {
	var aw admitWire
	if err := decodeBody(r.Body, &aw); err != nil {
		writeJSON(w, http.StatusBadRequest, errorReply{Error: err.Error()})
		return
	}
	res, err := h.c.Admit(AdmitRequest{
		Name:    aw.Name,
		Arrival: ebb.Process{Rho: aw.Rho, Lambda: aw.Lambda, Alpha: aw.Alpha},
		Route:   aw.Route,
		Target:  admission.Target{Delay: aw.Delay, Eps: aw.Eps},
	})
	if err != nil {
		if errors.Is(err, ErrPartition) || errors.Is(err, ErrDurability) {
			// Fail closed: the cluster's state is unchanged (modulo
			// TTL-bounded hop prepares); the client may retry.
			writeJSON(w, http.StatusServiceUnavailable, errorReply{Error: err.Error(), Retry: true})
			return
		}
		writeJSON(w, http.StatusBadRequest, errorReply{Error: err.Error()})
		return
	}
	resp := admitResponse{
		Admitted: res.Admitted,
		TxID:     res.TxID,
		Reason:   res.Reason,
		E2E:      wireBound(res.Bound),
		Hops:     wireHops(res.Hops),
	}
	if res.Admitted {
		resp.ID = strconv.FormatUint(res.ID, 10)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (h *coordHandler) handleRelease(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorReply{Error: "malformed session id"})
		return
	}
	ok, err := h.c.Release(id)
	// Order matters: a partial release comes back (true, err) and must
	// map to 503-retryable, never to 404 — a client that read "not
	// found" would stop retrying and strand the hops' remaining
	// capacity. Only (false, nil), a genuinely unknown id, is a 404.
	if err != nil {
		writeJSON(w, http.StatusServiceUnavailable, errorReply{Error: err.Error(), Retry: true})
		return
	}
	if !ok {
		writeJSON(w, http.StatusNotFound, errorReply{Error: "unknown session id"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"released": true, "id": strconv.FormatUint(id, 10)})
}

func (h *coordHandler) handleRouteBounds(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorReply{Error: "malformed session id"})
		return
	}
	rb, ok, err := h.c.RouteBounds(id)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorReply{Error: err.Error()})
		return
	}
	if !ok {
		writeJSON(w, http.StatusNotFound, errorReply{Error: "unknown session id"})
		return
	}
	writeJSON(w, http.StatusOK, routeBoundsResponse{
		ID:   strconv.FormatUint(rb.ID, 10),
		Name: rb.Name,
		E2E:  wireBound(rb.Bound),
		Hops: wireHops(rb.Hops),
	})
}

func (h *coordHandler) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"mode":     "coordinator",
		"nodes":    len(h.c.cfg.Topology.Nodes),
		"sessions": h.c.Sessions(),
	})
}

func (h *coordHandler) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", prom.ContentType)
	h.c.WriteMetrics(w)
}
