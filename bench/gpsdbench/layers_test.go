package main

import (
	"math"
	"testing"
)

// TestSelfTimesNode links a hand-built node admit — client, handler,
// Service call, and the writer's WAL append and audit record joined by
// session id — next to a concurrent admit of another session, and
// checks every self time and the admit's layer breakdown.
func TestSelfTimesNode(t *testing.T) {
	spans := []span{
		{id: 1, start: 0, end: 100, name: spClient, op: opAdmit},
		{id: 2, parent: 1, start: 10, end: 90, name: spHTTP, op: opAdmit, key: 7},
		{id: 3, start: 20, end: 80, name: spService, op: opAdmit, key: 7},
		{id: 4, start: 30, end: 40, name: spWAL, op: opAdmit, key: 7},
		{id: 5, start: 45, end: 50, name: spAudit, op: opAdmit, key: 7},
		// A second admit overlapping in time: its writer spans must not
		// join the first admit's tree.
		{id: 6, start: 5, end: 95, name: spHTTP, op: opAdmit, key: 8},
		{id: 7, start: 15, end: 85, name: spService, op: opAdmit, key: 8},
		{id: 8, start: 41, end: 44, name: spWAL, op: opAdmit, key: 8},
	}
	l := link(spans, nil, -1)
	for id, want := range map[uint64]int64{1: 20, 2: 20, 3: 45, 4: 10, 5: 5, 6: 20, 7: 67, 8: 3} {
		if got := l.self[id]; got != want {
			t.Errorf("span %d self = %d, want %d", id, got, want)
		}
	}
	for id, want := range map[uint64]uint64{3: 2, 4: 3, 5: 3, 7: 6, 8: 7} {
		if got := l.spans[l.byID[id]].parent; got != want {
			t.Errorf("span %d parent = %d, want %d", id, got, want)
		}
	}
	med, total, n := l.admitBreakdown(-1)
	if n != 1 || total != 100e-3 {
		t.Fatalf("breakdown over %d admits, total %v us; want 1 admit of 0.1 us", n, total)
	}
	want := map[string]float64{"loopback": 20e-3, "http": 20e-3, "service": 45e-3, "wal.append": 10e-3, "audit.record": 5e-3}
	sum := 0.0
	for k, v := range want {
		if med[k] != v {
			t.Errorf("breakdown %s = %v us, want %v", k, med[k], v)
		}
		sum += med[k]
	}
	if math.Abs(sum-total) > 1e-12 {
		t.Errorf("layers sum to %v of %v", sum, total)
	}
}

// TestSelfTimesCluster links a hand-built cluster admit (prepare and
// commit round trips joined by transaction id) and a cluster release
// (its hop release joined through the hop session the admit created).
func TestSelfTimesCluster(t *testing.T) {
	const coord, hop = 0, 1
	tx := [16]byte{1, 2, 3}
	spans := []span{
		{id: 1, start: 0, end: 1000, name: spClient, op: opAdmit},
		{id: 2, parent: 1, start: 50, end: 950, node: coord, name: spCoord, op: opAdmit, key: 1, tx: tx},
		{id: 3, start: 100, end: 400, node: hop, name: spRPC, op: opPrepare, tx: tx},
		{id: 4, parent: 3, start: 150, end: 350, node: hop, name: spHTTP, op: opPrepare, tx: tx},
		{id: 5, start: 200, end: 300, node: hop, name: spService, op: opPrepare, tx: tx},
		{id: 6, start: 220, end: 240, node: hop, name: spWAL, op: opPrepare, tx: tx},
		{id: 7, start: 500, end: 800, node: hop, name: spRPC, op: opCommit, tx: tx},
		{id: 8, start: 820, end: 840, node: coord, name: spAudit, op: opAdmit, key: 1},
		// The release of cluster session 1 frees hop session 42.
		{id: 9, start: 2000, end: 2500, name: spClient, op: opRelease},
		{id: 10, parent: 9, start: 2050, end: 2450, node: coord, name: spCoord, op: opRelease, key: 1},
		{id: 11, start: 2100, end: 2300, node: hop, name: spRPC, op: opRelease, key: 42},
	}
	hops := map[uint64][]hopRef{2: {{node: hop, id: 42}}}
	l := link(spans, hops, coord)
	for id, want := range map[uint64]uint64{3: 2, 5: 4, 6: 5, 7: 2, 8: 2, 11: 10} {
		if got := l.spans[l.byID[id]].parent; got != want {
			t.Errorf("span %d parent = %d, want %d", id, got, want)
		}
	}
	for id, want := range map[uint64]int64{1: 100, 2: 900 - 300 - 300 - 20, 3: 100, 4: 100, 5: 80, 6: 20, 7: 300, 10: 200} {
		if got := l.self[id]; got != want {
			t.Errorf("span %d self = %d, want %d", id, got, want)
		}
	}
	med, total, _ := l.admitBreakdown(coord)
	sum := 0.0
	for _, v := range med {
		sum += v
	}
	if math.Abs(sum-total) > 1e-12 || med["hop.net"] != 0.4 || med["coord"] != 0.28 {
		t.Errorf("breakdown %v sums to %v of %v", med, sum, total)
	}
}

// TestReplyKeys reads the request keys the middleware needs out of a
// coordinator admit reply without decoding it.
func TestReplyKeys(t *testing.T) {
	body := []byte(`{"admitted":true,"id":"9","txid":"0102030405060708090a0b0c0d0e0f10",` +
		`"e2e":{"delay":200,"eps":0.5,"achieved_eps":0.004,"env_prefactor":1,"env_rate":0.1},` +
		`"hops":[{"node":0,"name":"node1","hop_id":"12","g":0.1,"theta":1,"prefactor":1,"rate":1},` +
		`{"node":2,"name":"node3","hop_id":"5","g":0.1,"theta":1,"prefactor":1,"rate":1}]}`)
	tr := newTracer(&clock{})
	if id := idOf(body); id != 9 {
		t.Errorf("id = %d, want 9", id)
	}
	if tx := txOf(body); tx != [16]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16} {
		t.Errorf("tx = %x", tx)
	}
	refs := tr.hopRefs(body)
	want := []hopRef{{tr.nodeIndex("hop1"), 12}, {tr.nodeIndex("hop3"), 5}}
	if len(refs) != len(want) || refs[0] != want[0] || refs[1] != want[1] {
		t.Errorf("hop refs %v, want %v", refs, want)
	}
}
