package server

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/ebb"
	"repro/internal/gpsmath"
)

// testTypes is a small palette of declared session types, mirroring the
// service-class traffic a daemon sees in production.
var testTypes = []AdmitRequest{
	{Name: "voice", Arrival: ebb.Process{Rho: 0.05, Lambda: 1, Alpha: 2}, Target: admission.Target{Delay: 20, Eps: 1e-4}},
	{Name: "video", Arrival: ebb.Process{Rho: 0.30, Lambda: 2, Alpha: 0.8}, Target: admission.Target{Delay: 40, Eps: 1e-3}},
	{Name: "data", Arrival: ebb.Process{Rho: 0.10, Lambda: 1.5, Alpha: 1.2}, Target: admission.Target{Delay: 80, Eps: 1e-2}},
	{Name: "bulk", Arrival: ebb.Process{Rho: 0.20, Lambda: 1, Alpha: 0.5}, Target: admission.Target{Delay: 160, Eps: 5e-2}},
}

func newTestDaemon(t *testing.T, cfg Config) *Daemon {
	t.Helper()
	d, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := d.Close(ctx); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return d
}

// forceRebuild publishes an epoch deterministically by running the
// rebuild on the writer goroutine.
func forceRebuild(t *testing.T, d *Daemon) *Epoch {
	t.Helper()
	if err := d.Rebuild(); err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	return d.CurrentEpoch()
}

func TestAdmitReleaseLifecycle(t *testing.T) {
	d := newTestDaemon(t, Config{Rate: 100, MaxEpochAge: time.Hour})
	var ids []uint64
	for i, req := range testTypes {
		res, err := d.Admit(req)
		if err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
		if !res.Admitted {
			t.Fatalf("admit %d rejected: %s", i, res.Reason)
		}
		if res.RequiredRate <= req.Arrival.Rho {
			t.Errorf("admit %d: required rate %v <= rho %v", i, res.RequiredRate, req.Arrival.Rho)
		}
		ids = append(ids, res.ID)
	}
	ep := forceRebuild(t, d)
	if ep.Sessions() != len(testTypes) {
		t.Fatalf("epoch has %d sessions, want %d", ep.Sessions(), len(testTypes))
	}
	// Weights = required rates with Σφ <= r collapses the partition to a
	// single class and every session is Guaranteed under revalidation.
	if got := ep.Analysis.Partition.L(); got != 1 {
		t.Errorf("partition has %d classes, want 1 (all H_1)", got)
	}
	if ep.Guaranteed != len(testTypes) || ep.Degraded != 0 || ep.Infeasible != 0 {
		t.Errorf("revalidation: %d/%d/%d guaranteed/degraded/infeasible, want %d/0/0",
			ep.Guaranteed, ep.Degraded, ep.Infeasible, len(testTypes))
	}
	if ep.TargetsMet != len(testTypes) {
		t.Errorf("targets met = %d, want %d (Theorem 10 honors the sizing bound)", ep.TargetsMet, len(testTypes))
	}
	for _, id := range ids {
		rep, ok := ep.BoundsFor(id, 0, 0)
		if !ok {
			t.Fatalf("BoundsFor(%d): not in epoch", id)
		}
		if !rep.MeetsTarget {
			t.Errorf("session %d: achieved eps %v > target %v", id, rep.AchievedEps, rep.TargetEps)
		}
		if math.IsNaN(rep.DelayProb) || rep.DelayProb < 0 || rep.DelayProb > 1 {
			t.Errorf("session %d: delay prob %v outside [0,1]", id, rep.DelayProb)
		}
	}

	ok, err := d.Release(ids[1])
	if err != nil || !ok {
		t.Fatalf("release: ok=%v err=%v", ok, err)
	}
	if ok, _ := d.Release(ids[1]); ok {
		t.Error("double release reported found")
	}
	ep = forceRebuild(t, d)
	if ep.Sessions() != len(testTypes)-1 {
		t.Fatalf("epoch has %d sessions after release, want %d", ep.Sessions(), len(testTypes)-1)
	}
	if _, ok := ep.BoundsFor(ids[1], 0, 0); ok {
		t.Error("released session still served from epoch")
	}
}

func TestAdmitRejectsBeyondCapacity(t *testing.T) {
	// Rate sized so the first video session fits but not a second.
	req := testTypes[1]
	g, err := admission.RequiredRate(req.Arrival, req.Target)
	if err != nil {
		t.Fatal(err)
	}
	d := newTestDaemon(t, Config{Rate: 1.5 * g, MaxEpochAge: time.Hour})
	first, err := d.Admit(req)
	if err != nil || !first.Admitted {
		t.Fatalf("first admit: %+v err=%v", first, err)
	}
	second, err := d.Admit(req)
	if err != nil {
		t.Fatalf("second admit errored: %v", err)
	}
	if second.Admitted {
		t.Fatalf("second admit accepted beyond capacity (free %v, g %v)", second.Free, g)
	}
	if second.Reason == "" {
		t.Error("rejection carries no reason")
	}
	if got := d.Metrics().Rejects.Load(); got != 1 {
		t.Errorf("rejects counter = %d, want 1", got)
	}
	// Release frees the headroom again.
	if ok, _ := d.Release(first.ID); !ok {
		t.Fatal("release of admitted session failed")
	}
	third, err := d.Admit(req)
	if err != nil || !third.Admitted {
		t.Fatalf("admit after release: %+v err=%v", third, err)
	}
}

func TestAdmitValidation(t *testing.T) {
	d := newTestDaemon(t, Config{Rate: 10, MaxEpochAge: time.Hour})
	bad := []AdmitRequest{
		{Arrival: ebb.Process{Rho: math.NaN(), Lambda: 1, Alpha: 1}, Target: admission.Target{Delay: 10, Eps: 1e-3}},
		{Arrival: ebb.Process{Rho: math.Inf(1), Lambda: 1, Alpha: 1}, Target: admission.Target{Delay: 10, Eps: 1e-3}},
		{Arrival: ebb.Process{Rho: -1, Lambda: 1, Alpha: 1}, Target: admission.Target{Delay: 10, Eps: 1e-3}},
		{Arrival: ebb.Process{Rho: 0.1, Lambda: 1, Alpha: 1}, Target: admission.Target{Delay: 0, Eps: 1e-3}},
		{Arrival: ebb.Process{Rho: 0.1, Lambda: 1, Alpha: 1}, Target: admission.Target{Delay: 10, Eps: 0}},
		{Arrival: ebb.Process{Rho: 0.1, Lambda: 1, Alpha: 1}, Target: admission.Target{Delay: 10, Eps: 1.5}},
	}
	for i, req := range bad {
		if _, err := d.Admit(req); err == nil {
			t.Errorf("bad request %d accepted", i)
		}
	}
	if got := d.Metrics().Admits.Load(); got != 0 {
		t.Errorf("admits counter = %d after only invalid requests", got)
	}
}

// TestEpochDifferential is the acceptance differential: bounds served
// from a published epoch must be bit-identical to a fresh offline
// AnalyzeServer on the same session set.
func TestEpochDifferential(t *testing.T) {
	d := newTestDaemon(t, Config{Rate: 200, MaxEpochAge: time.Hour})
	var ids []uint64
	for i := 0; i < 24; i++ {
		res, err := d.Admit(testTypes[i%len(testTypes)])
		if err != nil || !res.Admitted {
			t.Fatalf("admit %d: %+v err=%v", i, res, err)
		}
		ids = append(ids, res.ID)
	}
	// Some churn so the epoch's session ordering exercises swap-removal.
	for _, k := range []int{3, 17, 8} {
		if ok, err := d.Release(ids[k]); err != nil || !ok {
			t.Fatalf("release %d: ok=%v err=%v", k, ok, err)
		}
		ids = append(ids[:k], ids[k+1:]...)
	}
	ep := forceRebuild(t, d)
	if ep.Sessions() != 21 {
		t.Fatalf("epoch has %d sessions, want 21", ep.Sessions())
	}

	fresh, err := gpsmath.AnalyzeServer(ep.Server, gpsmath.Options{Independent: true, Xi: gpsmath.XiOptimal})
	if err != nil {
		t.Fatalf("offline AnalyzeServer: %v", err)
	}
	if !reflect.DeepEqual(fresh.Partition, ep.Analysis.Partition) {
		t.Errorf("epoch partition differs from offline partition:\n%v\n%v",
			ep.Analysis.Partition, fresh.Partition)
	}
	qs := []float64{0.5, 2, 10, 40}
	ds := []float64{1, 10, 50, 200}
	for i := range ep.Server.Sessions {
		for _, q := range qs {
			got := ep.Analysis.BestBacklogTailValue(i, q)
			want := fresh.BestBacklogTailValue(i, q)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("session %d backlog tail at q=%v: epoch %x offline %x",
					i, q, math.Float64bits(got), math.Float64bits(want))
			}
		}
		for _, dl := range ds {
			got := ep.Analysis.BestDelayTailValue(i, dl)
			want := fresh.BestDelayTailValue(i, dl)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("session %d delay tail at d=%v: epoch %x offline %x",
					i, dl, math.Float64bits(got), math.Float64bits(want))
			}
		}
	}
	// The HTTP-facing report path evaluates through the same analysis.
	for _, id := range ids {
		rep, ok := ep.BoundsFor(id, 3, 25)
		if !ok {
			t.Fatalf("BoundsFor(%d) missing", id)
		}
		i, ok := ep.IndexOf(id)
		if !ok {
			t.Fatalf("IndexOf(%d) missing", id)
		}
		if math.Float64bits(rep.BacklogProb) != math.Float64bits(fresh.BestBacklogTailValue(i, 3)) ||
			math.Float64bits(rep.DelayProb) != math.Float64bits(fresh.BestDelayTailValue(i, 25)) {
			t.Fatalf("BoundsFor(%d) not bit-identical to offline analysis", id)
		}
	}
}

func TestBackpressureShedsWithErrBusy(t *testing.T) {
	d := newTestDaemon(t, Config{Rate: 100, QueueDepth: 1, MaxEpochAge: time.Hour})
	gate := make(chan struct{})
	started := make(chan struct{})
	go d.exec(func() { close(started); <-gate })
	<-started
	// Writer is stalled; fill the single queue slot...
	done := make(chan error, 1)
	go func() {
		_, err := d.Admit(testTypes[0])
		done <- err
	}()
	// ...and wait until the slot is occupied before expecting a shed.
	for i := 0; d.QueueDepth() == 0 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	if _, err := d.Admit(testTypes[1]); !errors.Is(err, ErrBusy) {
		t.Errorf("admit against full queue: err = %v, want ErrBusy", err)
	}
	if got := d.Metrics().Shed.Load(); got != 1 {
		t.Errorf("shed counter = %d, want 1", got)
	}
	close(gate)
	if err := <-done; err != nil {
		t.Errorf("queued admit after unblock: %v", err)
	}
}

func TestDrainSemantics(t *testing.T) {
	d, err := New(Config{Rate: 100, MaxEpochAge: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Admit(testTypes[0])
	if err != nil || !res.Admitted {
		t.Fatalf("admit: %+v err=%v", res, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := d.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// The final epoch was published during drain and carries the session.
	ep := d.CurrentEpoch()
	if ep.Sessions() != 1 {
		t.Errorf("final epoch has %d sessions, want 1", ep.Sessions())
	}
	if _, err := d.Admit(testTypes[1]); !errors.Is(err, ErrDraining) {
		t.Errorf("admit after close: err = %v, want ErrDraining", err)
	}
	if _, err := d.Release(res.ID); !errors.Is(err, ErrDraining) {
		t.Errorf("release after close: err = %v, want ErrDraining", err)
	}
	if err := d.Close(ctx); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

func TestRequiredRateMemo(t *testing.T) {
	d := newTestDaemon(t, Config{Rate: 1000, MaxEpochAge: time.Hour})
	for i := 0; i < 10; i++ {
		if _, err := d.Admit(testTypes[0]); err != nil {
			t.Fatal(err)
		}
	}
	m := d.Metrics()
	if m.CacheMisses.Load() != 1 {
		t.Errorf("cache misses = %d for one distinct tuple, want 1", m.CacheMisses.Load())
	}
	if m.CacheHits.Load() != 9 {
		t.Errorf("cache hits = %d, want 9", m.CacheHits.Load())
	}
}

func TestNewRejectsBadRate(t *testing.T) {
	for _, rate := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := New(Config{Rate: rate}); err == nil {
			t.Errorf("New accepted rate %v", rate)
		}
	}
}
