package server

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ebb"
	"repro/internal/gpsmath"
	"repro/internal/source"
	"repro/internal/wal"
)

// copyDir snapshots a WAL directory file-by-file: with SyncAlways every
// acknowledged mutation is on disk before the caller hears the answer,
// so a copy taken between synchronous ops is exactly what a SIGKILL at
// that instant would leave behind.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCrashRecoveryEveryPrefix is the durability acceptance test: a
// seeded admit/release churn runs against a WAL-backed daemon in
// SyncAlways mode, and after EVERY acknowledged mutation the log
// directory is copied — each copy is a possible crash point. Every
// prefix must recover into a daemon whose first epoch is bit-identical
// to a fresh offline wal.Replay + AnalyzeServer over that op history.
func TestCrashRecoveryEveryPrefix(t *testing.T) {
	const rate = 150.0
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	l, rec, err := wal.Open(walDir, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	d := newTestDaemon(t, Config{
		Rate:        rate,
		MaxEpochAge: time.Hour,
		Log:         l,
		Recovered:   rec,
		// A small cadence forces several snapshot+prune cycles inside the
		// history, so prefixes land on every phase of the rotation.
		SnapshotEvery: 7,
	})

	rng := source.NewRNG(42)
	var ids []uint64
	var prefixes []string
	for step := 0; step < 40; step++ {
		if len(ids) > 0 && rng.Float64() < 0.35 {
			k := rng.Intn(len(ids))
			ok, err := d.Release(ids[k])
			if err != nil || !ok {
				t.Fatalf("step %d release: ok=%v err=%v", step, ok, err)
			}
			ids = append(ids[:k], ids[k+1:]...)
		} else {
			res, err := d.Admit(testTypes[rng.Intn(len(testTypes))])
			if err != nil {
				t.Fatalf("step %d admit: %v", step, err)
			}
			if res.Admitted {
				ids = append(ids, res.ID)
			}
		}
		// Quiesce the background snapshotter before copying: the writer
		// launches a cadence snapshot before dequeuing the next op, so
		// an exec barrier followed by the WaitGroup makes the directory
		// stable. A racing prune would otherwise make the copy a
		// non-atomic scan rather than a point-in-time crash image.
		if err := d.exec(func() {}); err != nil {
			t.Fatal(err)
		}
		d.snapWG.Wait()
		p := filepath.Join(dir, fmt.Sprintf("prefix-%02d", step))
		copyDir(t, walDir, p)
		prefixes = append(prefixes, p)
	}
	for i, p := range prefixes {
		verifyRecoveredPrefix(t, p, rate, i)
	}
}

// verifyRecoveredPrefix boots a daemon from one copied log prefix and
// bit-compares its first epoch against the independent offline
// construction over the same history.
func verifyRecoveredPrefix(t *testing.T, walDir string, rate float64, prefix int) {
	t.Helper()
	rec, err := wal.Read(walDir)
	if err != nil {
		t.Fatalf("prefix %d: recovery: %v", prefix, err)
	}
	st, err := rec.SessionSet()
	if err != nil {
		t.Fatalf("prefix %d: folding history: %v", prefix, err)
	}
	d := newTestDaemon(t, Config{Rate: rate, MaxEpochAge: time.Hour, Recovered: rec})
	ep := d.CurrentEpoch()

	if ep.Sessions() != len(st.Sessions) {
		t.Fatalf("prefix %d: epoch has %d sessions, history implies %d", prefix, ep.Sessions(), len(st.Sessions))
	}
	if math.Float64bits(ep.Used) != math.Float64bits(st.Used) {
		t.Fatalf("prefix %d: epoch Σφ bits %#x, history implies %#x",
			prefix, math.Float64bits(ep.Used), math.Float64bits(st.Used))
	}
	for i, s := range st.Sessions {
		if ep.IDs[i] != s.ID {
			t.Fatalf("prefix %d: admission order diverged at %d: epoch id %d, history id %d",
				prefix, i, ep.IDs[i], s.ID)
		}
	}
	if len(st.Sessions) == 0 {
		if ep.Analysis != nil {
			t.Fatalf("prefix %d: empty recovered set carries an analysis", prefix)
		}
		return
	}

	// The independent construction: fold the ops, build the server by
	// hand, analyze from scratch.
	srv := gpsmath.Server{Rate: rate, Sessions: make([]gpsmath.Session, len(st.Sessions))}
	dmax := make([]float64, len(st.Sessions))
	eps := make([]float64, len(st.Sessions))
	required := make([]float64, len(st.Sessions))
	for i, s := range st.Sessions {
		srv.Sessions[i] = gpsmath.Session{
			Name: s.Name, Phi: s.G,
			Arrival: ebb.Process{Rho: s.Rho, Lambda: s.Lambda, Alpha: s.Alpha},
		}
		dmax[i], eps[i], required[i] = s.Delay, s.Eps, s.G
	}
	fresh, err := gpsmath.AnalyzeServer(srv, gpsmath.Options{Independent: true, Xi: gpsmath.XiOptimal})
	if err != nil {
		t.Fatalf("prefix %d: offline AnalyzeServer: %v", prefix, err)
	}
	if !reflect.DeepEqual(ep.Analysis.Partition, fresh.Partition) {
		t.Fatalf("prefix %d: recovered partition differs from offline partition:\n%v\n%v",
			prefix, ep.Analysis.Partition, fresh.Partition)
	}
	for i := range st.Sessions {
		q := fresh.SessionG(i) * dmax[i]
		if got, want := ep.Analysis.BestBacklogTailValue(i, q), fresh.BestBacklogTailValue(i, q); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("prefix %d: session %d backlog bound bits %#x vs offline %#x",
				prefix, i, math.Float64bits(got), math.Float64bits(want))
		}
		if got, want := ep.Analysis.BestDelayTailValue(i, dmax[i]), fresh.BestDelayTailValue(i, dmax[i]); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("prefix %d: session %d delay bound bits %#x vs offline %#x",
				prefix, i, math.Float64bits(got), math.Float64bits(want))
		}
	}
	met := 0
	if _, probs, err := fresh.AdmissionDecision(dmax, eps); err == nil {
		for i, p := range probs {
			if p <= eps[i] {
				met++
			}
		}
	}
	if ep.TargetsMet != met {
		t.Fatalf("prefix %d: epoch TargetsMet %d, offline %d", prefix, ep.TargetsMet, met)
	}
	rep, err := srv.ClassifyUnderRate(required, rate)
	if err != nil {
		t.Fatalf("prefix %d: ClassifyUnderRate: %v", prefix, err)
	}
	g, dg, inf := rep.Counts()
	if ep.Guaranteed != g || ep.Degraded != dg || ep.Infeasible != inf {
		t.Fatalf("prefix %d: revalidation %d/%d/%d, offline %d/%d/%d",
			prefix, ep.Guaranteed, ep.Degraded, ep.Infeasible, g, dg, inf)
	}
}

// TestRateCacheCapConcurrentDistinctKeys is the regression test for the
// check-then-LoadOrStore overshoot: many goroutines missing on distinct
// keys at once must never grow the memo past its bound, and the size
// counter must agree with the map's real population afterwards.
func TestRateCacheCapConcurrentDistinctKeys(t *testing.T) {
	const cap = 8
	rates, met := NewRateMemo(cap), NewMetrics()
	const workers = 16
	const perWorker = 12
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < perWorker; i++ {
				// Half the keys are shared across workers (exercising the
				// lost per-key race that must return its reservation), half
				// are distinct per worker.
				delay := 20 + float64(i)
				if i%2 == 1 {
					delay += float64(w) / 100
				}
				req := testTypes[0]
				req.Target.Delay = delay
				if _, rej, ok, err := sizeAdmit(rates, met, req); !ok {
					t.Errorf("worker %d sizeAdmit: %v %v", w, err, rej.Reason)
					return
				}
			}
		}(w)
	}
	close(start)
	wg.Wait()

	size := rates.size.Load()
	if size > cap {
		t.Errorf("rate cache size %d exceeds cap %d", size, cap)
	}
	entries := 0
	rates.cache.Range(func(_, _ any) bool {
		entries++
		return true
	})
	if entries > cap {
		t.Errorf("rate cache holds %d entries, cap %d", entries, cap)
	}
	if int64(entries) != size {
		t.Errorf("size counter %d disagrees with %d stored entries", size, entries)
	}
}

// TestWriteMetricsBeforeFirstEpoch guards the scrape-vs-startup race: a
// daemon that has not published an epoch yet must render zeros, not
// panic the metrics handler.
func TestWriteMetricsBeforeFirstEpoch(t *testing.T) {
	d := &Daemon{cfg: Config{Rate: 100}.withDefaults(), met: NewMetrics()}
	var b strings.Builder
	d.WriteMetrics(&b) // must not panic on the nil epoch
	out := b.String()
	for _, want := range []string{"gpsd_epoch_seq 0", "gpsd_sessions 0", "gpsd_utilization 0"} {
		if !strings.Contains(out, want) {
			t.Errorf("pre-epoch scrape missing %q", want)
		}
	}
}

// TestLatencySummaryConsistentUnderConcurrency hammers ObserveHTTP from
// many goroutines while scraping: every summary must be internally
// consistent (count never behind what the quantiles describe would
// imply going negative or NaN), and the final count must equal the
// number of observations.
func TestLatencySummaryConsistentUnderConcurrency(t *testing.T) {
	m := NewMetrics()
	const workers = 8
	const perWorker = 500
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			p50, p99, n := m.http.Snapshot()
			if n < 0 || math.IsNaN(p50) || math.IsNaN(p99) {
				t.Errorf("inconsistent summary: p50=%v p99=%v n=%d", p50, p99, n)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				m.ObserveHTTP(200, time.Duration(w*perWorker+i)*time.Microsecond)
			}
		}(w)
	}
	wg.Wait()
	<-done
	_, _, n := m.http.Snapshot()
	if n != workers*perWorker {
		t.Errorf("observed %d, want %d", n, workers*perWorker)
	}
}
