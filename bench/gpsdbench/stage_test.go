package main

import (
	"context"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/wal"
)

// TestStageRoundTrip stages a small population and recovers it the way
// gpsd boots: wal.Open must return exactly the staged session set, and
// a daemon booted on it must publish the same Σφ bit for bit.
func TestStageRoundTrip(t *testing.T) {
	gs, err := typeRates(palette4)
	if err != nil {
		t.Fatal(err)
	}
	g := newGen(3, 0)
	types := make([]int, 257)
	for i := range types {
		types[i] = g.intn(len(palette4))
	}
	st := stageState(palette4, gs, types)
	dir := t.TempDir()
	if err := stageWAL(dir, st); err != nil {
		t.Fatal(err)
	}

	l, rec, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := rec.SessionSet()
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Ops) != 0 {
		t.Errorf("recovered %d ops to replay, want a snapshot alone", len(rec.Ops))
	}
	if !reflect.DeepEqual(got.Sessions, st.Sessions) || got.NextID != st.NextID {
		t.Fatalf("recovered set differs: %d sessions next-id %d, staged %d next-id %d",
			len(got.Sessions), got.NextID, len(st.Sessions), st.NextID)
	}
	if math.Float64bits(got.Used) != math.Float64bits(st.Used) {
		t.Fatalf("recovered Σφ bits %#x, staged %#x", math.Float64bits(got.Used), math.Float64bits(st.Used))
	}

	d, err := server.New(server.Config{Rate: st.Used / loadFactor, Log: l, Recovered: rec})
	if err != nil {
		t.Fatal(err)
	}
	h := d.Health()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := d.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if h.Sessions != len(types) || math.Float64bits(h.Used) != math.Float64bits(st.Used) {
		t.Fatalf("booted daemon: %d sessions, Σφ bits %#x; staged %d, %#x",
			h.Sessions, math.Float64bits(h.Used), len(types), math.Float64bits(st.Used))
	}
}
