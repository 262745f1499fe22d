package server

import (
	"context"
	"errors"
	"math"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/ebb"
	"repro/internal/gpsmath"
	"repro/internal/wal"
)

// palette1Req is node-131k's session type, the one BenchmarkEpochDelta
// admits.
var palette1Req = AdmitRequest{Name: "bench",
	Arrival: ebb.Process{Rho: 0.05, Lambda: 1, Alpha: 1.2}, Target: admission.Target{Delay: 40, Eps: 1e-3}}

// palette1Rate is the link rate that loads n palette1 sessions to 0.75,
// as gpsdbench's node workloads do.
func palette1Rate(t *testing.T, n int) float64 {
	t.Helper()
	g, err := admission.RequiredRate(palette1Req.Arrival, palette1Req.Target)
	if err != nil {
		t.Fatal(err)
	}
	return g * float64(n) / 0.75
}

// admitN admits n palette1Req sessions from a few concurrent clients.
func admitN(t *testing.T, d *Daemon, n int) {
	t.Helper()
	const clients = 4
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		k := n / clients
		if c < n%clients {
			k++
		}
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for ; k > 0; k-- {
				if res, err := d.Admit(palette1Req); err != nil || !res.Admitted {
					errs <- errors.Join(err, errors.New("admit refused"))
					return
				}
			}
		}(k)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
}

// TestRestartBootsOversumPopulation is the restart reproduction: a
// WAL-backed daemon admits 25,000 palette1 sessions at load 0.75, a
// population whose plain decomposed rates ρ + (r - Σρ)/N sum past the
// link, and closes. A daemon booted over the same WAL must publish the
// analysis walcheck's offline fold computes, bit for bit. Until the
// rates were settled against one exact Σr <= r test, the boot's
// verified constructor refused the population its own live refreshes
// had served.
func TestRestartBootsOversumPopulation(t *testing.T) {
	const n = 25000
	rate := palette1Rate(t, n)
	dir := filepath.Join(t.TempDir(), "wal")
	l, rec, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(Config{Rate: rate, MaxEpochAge: time.Hour, MaxBatch: 500, Log: l, Recovered: rec})
	if err != nil {
		t.Fatal(err)
	}
	admitN(t, d, n)
	if err := d.Rebuild(); err != nil {
		t.Fatalf("live publish: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := d.Close(ctx); err != nil {
		t.Fatal(err)
	}
	l, rec, err = wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := rec.SessionSet()
	if err != nil {
		t.Fatal(err)
	}
	booted := newTestDaemon(t, Config{Rate: rate, MaxEpochAge: time.Hour, Log: l, Recovered: rec})
	ep := booted.CurrentEpoch()
	if ep.Sessions() != n || len(st.Sessions) != n {
		t.Fatalf("booted %d sessions, WAL folds to %d, want %d", ep.Sessions(), len(st.Sessions), n)
	}

	// walcheck's offline fold: the recovered set, analyzed from scratch
	// under the daemon's options.
	srv := gpsmath.Server{Rate: rate, Sessions: make([]gpsmath.Session, n)}
	for i, s := range st.Sessions {
		srv.Sessions[i] = gpsmath.Session{Name: s.Name, Phi: s.G,
			Arrival: ebb.Process{Rho: s.Rho, Lambda: s.Lambda, Alpha: s.Alpha}}
	}
	fresh, err := gpsmath.AnalyzeServer(srv, gpsmath.Options{Independent: true, Xi: gpsmath.XiOptimal})
	if err != nil {
		t.Fatalf("offline fold: %v", err)
	}
	an := ep.Analysis
	for i := range fresh.Rates {
		if math.Float64bits(an.Rates[i]) != math.Float64bits(fresh.Rates[i]) || an.Ordering[i] != fresh.Ordering[i] {
			t.Fatalf("position %d: booted rate %v at session %d, offline %v at %d",
				i, an.Rates[i], an.Ordering[i], fresh.Rates[i], fresh.Ordering[i])
		}
	}
	if !reflect.DeepEqual(an.Partition, fresh.Partition) {
		t.Fatal("booted partition differs from the offline fold's")
	}
	for _, i := range []int{0, n / 2, n - 1} {
		if got, want := an.BestDelayTailValue(i, 40), fresh.BestDelayTailValue(i, 40); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("session %d: booted delay bound %v, offline %v", i, got, want)
		}
	}
}

// TestLivePublishOversumPopulation is the live reproduction: a daemon
// with no WAL holds 25,000 palette1 sessions and runs 300 publishes of
// one release and one admit each, the self-check at its default
// cadence. Every publish must succeed and no self-check may fail.
// Until the refresh and the verified constructor shared one exact
// Σr <= r test, the 128th delta publish's self-check refused the
// population and every later publish went to the refusing constructor.
func TestLivePublishOversumPopulation(t *testing.T) {
	const n = 25000
	d := newTestDaemon(t, Config{Rate: palette1Rate(t, n), MaxEpochAge: time.Hour, MaxBatch: 500})
	admitN(t, d, n)
	ids := append([]uint64(nil), forceRebuild(t, d).IDs...)
	failed := 0
	for k := 0; k < 300; k++ {
		x := (k * 7919) % len(ids)
		if ok, err := d.Release(ids[x]); err != nil || !ok {
			t.Fatalf("release: ok=%v err=%v", ok, err)
		}
		res, err := d.Admit(palette1Req)
		if err != nil || !res.Admitted {
			t.Fatalf("admit: %+v, %v", res, err)
		}
		ids[x] = res.ID
		if err := d.Rebuild(); errors.Is(err, ErrPublish) {
			failed++
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if failed != 0 {
		t.Errorf("%d of 300 publishes refused", failed)
	}
	if d.met.SelfChecks.Load() == 0 {
		t.Error("no self-check ran")
	}
	if f := d.met.SelfCheckFailures.Load(); f != 0 {
		t.Errorf("%d self-check failures", f)
	}
}
