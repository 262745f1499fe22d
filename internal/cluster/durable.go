package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"repro/internal/ebb"
	"repro/internal/network"
	"repro/internal/wal"
)

// Coordinator durability (DESIGN.md §15). The journal is an ordinary
// flat wal.Log whose op stream holds only route kinds: one
// KindRouteAdmit per committed end-to-end admission, one
// KindRouteRelease tombstone per release, appended durably before the
// caller sees the reply. Recovery is wal.FoldRoutes — a pure function
// of the op stream from empty, mirroring the live coordinator's
// swap-remove so session order (which feeds the CRST network build and
// is bit-load-bearing) survives the restart exactly.

// CrashCoordAppend is the coordinator crashpoint between journaling a
// route record and mutating memory or replying — the boundary the
// every-prefix recovery test SIGKILLs at. A coordinator killed here has
// the record on disk but never answered the client.
const CrashCoordAppend = "cluster.coord.append"

// journal appends one route op to the coordinator's log (a no-op
// without one), feeds the audit sink the seq-stamped op, and consults
// the crashpoint. Callers append before mutating memory or replying.
func (c *Coordinator) journal(o wal.Op) error {
	if c.cfg.Log != nil {
		ops := []wal.Op{o}
		if err := c.cfg.Log.Append(ops); err != nil {
			return err
		}
		if c.cfg.Audit != nil {
			c.cfg.Audit.Record(ops[0])
		}
	}
	if c.cfg.Crash != nil && c.cfg.Crash.Armed(CrashCoordAppend) {
		c.cfg.Crash.Kill()
	}
	return nil
}

// removeSessionAt swap-removes sessions[idx], maintaining byID. The
// move exactly mirrors wal.FoldRoutes, so an offline fold of the
// journal reproduces the live session order bit for bit.
func (c *Coordinator) removeSessionAt(idx int) {
	last := len(c.sessions) - 1
	id := c.sessions[idx].ID
	if idx != last {
		moved := c.sessions[last]
		c.sessions[idx] = moved
		c.byID[moved.ID] = idx
	}
	c.sessions[last] = wal.RouteSessionRecord{}
	c.sessions = c.sessions[:last]
	delete(c.byID, id)
}

// foldRecovered rebuilds the session set from the previous life's
// journal. Coordinator logs never snapshot, so a snapshot in the
// directory means it is not a coordinator WAL.
func (c *Coordinator) foldRecovered(rec *wal.Recovered) error {
	if rec.State.Seq != 0 {
		return fmt.Errorf("cluster: WAL carries a snapshot at seq %d; coordinator journals fold from empty (is this a hop WAL?)", rec.State.Seq)
	}
	st, err := wal.FoldRoutes(rec.Ops)
	if err != nil {
		return fmt.Errorf("cluster: recovering journal: %w", err)
	}
	n := len(c.cfg.Topology.Nodes)
	for i, s := range st.Sessions {
		for _, m := range s.Route {
			if m < 0 || m >= n {
				return fmt.Errorf("cluster: recovered session %d routes through node %d of a %d-node topology (journal does not match -topology)", s.ID, m, n)
			}
		}
		c.byID[s.ID] = i
	}
	c.sessions = st.Sessions
	if st.NextID >= c.nextID {
		c.nextID = st.NextID + 1
	}
	return nil
}

// reconcile squares the recovered session set with the hops' durable
// truth, best effort — an unreachable hop defers to the next restart or
// an operator retry:
//
//   - a journaled admit whose hop sessions expired is dropped. The
//     tombstone is journaled first, so even when releasing its
//     surviving hop sessions fails they become unreferenced orphans the
//     next sweep reclaims;
//   - an unjournaled hop session older than the prepare TTL is
//     orphan-released: it can only be the residue of an admit whose
//     coordinator died between hop commit and journal append. Younger
//     ones may belong to an admit in flight elsewhere (a warm standby
//     mid-promotion), so the TTL guards them.
func (c *Coordinator) reconcile() {
	for i := 0; i < len(c.sessions); {
		s := c.sessions[i]
		gone := false
		for k, m := range s.Route {
			exists, known := c.probeHopSession(m, s.HopIDs[k])
			if known && !exists {
				gone = true
				break
			}
		}
		if !gone {
			i++
			continue
		}
		if err := c.journal(wal.Op{Kind: wal.KindRouteRelease, ID: s.ID}); err != nil {
			// Keep it: a conservative model beats a lost tombstone.
			i++
			continue
		}
		c.releaseHops(s.Route, s.HopIDs)
		c.removeSessionAt(i) // the swapped-in tail element lands at i; re-check it
		c.met.ReconcileDrops.Add(1)
	}

	referenced := make(map[int]map[uint64]bool)
	for _, s := range c.sessions {
		for k, m := range s.Route {
			if referenced[m] == nil {
				referenced[m] = make(map[uint64]bool)
			}
			referenced[m][s.HopIDs[k]] = true
		}
	}
	ttlMs := c.cfg.PrepareTTL.Milliseconds()
	for m := range c.cfg.Topology.Nodes {
		entries, err := c.hopClusterSessions(m)
		if err != nil {
			continue
		}
		for _, e := range entries {
			if referenced[m][e.id] || e.ageMs <= ttlMs {
				continue
			}
			if c.releaseHop(m, e.id) == nil {
				c.met.OrphanReleases.Add(1)
			}
		}
	}
}

// probeHopSession asks node m whether hop session hopID still exists.
// 200 and 425 (admitted but not yet in a published epoch) mean yes,
// 404 means no; anything else — transport failure, a shedding hop — is
// unknown and the caller keeps its state.
func (c *Coordinator) probeHopSession(m int, hopID uint64) (exists, known bool) {
	resp, err := c.client.Get(fmt.Sprintf("%s/v1/bounds/%d", c.cfg.Topology.hopBase(m), hopID))
	if err != nil {
		return false, false
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
	switch resp.StatusCode {
	case http.StatusOK, http.StatusTooEarly:
		return true, true
	case http.StatusNotFound:
		return false, true
	default:
		return false, false
	}
}

// hopClusterEntry is one live cluster-committed session on a hop, with
// its age on the hop's own clock.
type hopClusterEntry struct {
	id    uint64
	txid  string
	ageMs int64
}

// hopClusterSessions fetches node m's cluster-committed session list —
// the orphan sweep's feed.
func (c *Coordinator) hopClusterSessions(m int) ([]hopClusterEntry, error) {
	resp, err := c.client.Get(c.cfg.Topology.hopBase(m) + "/v1/cluster/sessions")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		return nil, fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	var wire struct {
		Sessions []struct {
			ID    string `json:"id"`
			TxID  string `json:"txid"`
			AgeMs int64  `json:"age_ms"`
		} `json:"sessions"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&wire); err != nil {
		return nil, err
	}
	out := make([]hopClusterEntry, 0, len(wire.Sessions))
	for _, s := range wire.Sessions {
		id, err := parseUint(s.ID)
		if err != nil {
			return nil, fmt.Errorf("cluster sessions id %q: %v", s.ID, err)
		}
		out = append(out, hopClusterEntry{id: id, txid: s.TxID, ageMs: s.AgeMs})
	}
	return out, nil
}

// BuildNetwork assembles the CRST model for a committed set: topology
// nodes plus every recorded session in order with φ = ρ at each hop.
// The live coordinator analyzes exactly this network (its committed
// records, plus an admit's candidate last), and offline tooling
// (tools/walcheck) builds it from the folded journal, so RouteBounds
// reproduce bit for bit. Route and Phi slices are freshly built so the
// analysis never aliases coordinator state.
func BuildNetwork(topo Topology, sessions []wal.RouteSessionRecord) network.Network {
	nw := network.Network{Nodes: make([]network.Node, len(topo.Nodes))}
	for m, n := range topo.Nodes {
		nw.Nodes[m] = network.Node{Name: n.Name, Rate: n.Rate}
	}
	for _, s := range sessions {
		phi := make([]float64, len(s.Route))
		for k := range phi {
			phi[k] = s.Rho
		}
		nw.Sessions = append(nw.Sessions, network.Session{
			Name:    s.Name,
			Arrival: ebb.Process{Rho: s.Rho, Lambda: s.Lambda, Alpha: s.Alpha},
			Route:   append([]int(nil), s.Route...),
			Phi:     phi,
		})
	}
	return nw
}

// Close closes the coordinator's journal, if any.
func (c *Coordinator) Close() error {
	if c.cfg.Log != nil {
		return c.cfg.Log.Close()
	}
	return nil
}
