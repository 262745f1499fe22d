package ledger

import (
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/source"
)

func TestNewRejectsBadBudget(t *testing.T) {
	for _, b := range []float64{0, -1, math.Inf(1), math.NaN()} {
		if _, err := New(b); err == nil {
			t.Errorf("New(%v) accepted", b)
		}
	}
}

// TestReserveQuantumRounding pins the batching contract: a Reserve for
// less than a quantum grants a whole quantum, a Reserve near the
// budget edge clamps to the remaining headroom, and a Reserve the
// headroom cannot cover at all is refused with 0 and counted.
func TestReserveQuantumRounding(t *testing.T) {
	l, err := New(100)
	if err != nil {
		t.Fatal(err)
	}
	if got := l.Reserve(1, 16); got != 16 {
		t.Fatalf("Reserve(1, 16) = %v, want one whole quantum", got)
	}
	if got := l.Reserve(17, 16); got != 32 {
		t.Fatalf("Reserve(17, 16) = %v, want two quantums", got)
	}
	// 48 reserved; asking for 40 rounds to 48 but only 52 remain — the
	// grant still covers need, rounded down to the headroom.
	if got := l.Reserve(50, 16); got != 52 {
		t.Fatalf("Reserve(50, 16) = %v, want the 52 remaining", got)
	}
	if got := l.Reserve(1, 16); got != 0 {
		t.Fatalf("Reserve(1, 16) at a full budget = %v, want 0", got)
	}
	if st := l.Stats(); st.Rejects != 1 || st.Refills != 3 {
		t.Fatalf("stats = %+v, want 3 refills and 1 reject", st)
	}
	l.Return(2)
	if got := l.Reserve(1, 16); got != 2 {
		t.Fatalf("Reserve(1, 16) after Return(2) = %v, want the 2 returned", got)
	}
	if got, want := l.Reserved(), 100.0; got != want {
		t.Fatalf("Reserved = %v, want %v", got, want)
	}
	if l.Free() != 0 {
		t.Fatalf("Free = %v, want 0", l.Free())
	}
	l.Return(1e9) // over-return clamps at zero, never goes negative
	if got := l.Reserved(); got != 0 {
		t.Fatalf("Reserved after over-return = %v, want 0", got)
	}
	if l.Reserve(0, 16) != 0 || l.Reserve(-1, 16) != 0 || l.Reserve(math.NaN(), 16) != 0 {
		t.Fatal("non-positive need must grant nothing")
	}
}

// TestConcurrentReserveReturnNeverExceedsBudget hammers one ledger
// from many goroutines while a sampler asserts the safety invariant —
// the reserved sum never exceeds the budget — and the participants
// assert the liveness one: every nonzero grant covers the need it was
// asked for.
func TestConcurrentReserveReturnNeverExceedsBudget(t *testing.T) {
	const (
		budget  = 1000.0
		quantum = budget / (8 * 16)
		workers = 8
		iters   = 2000
	)
	l, err := New(budget)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		for {
			if r := l.Reserved(); r > budget || r < 0 || math.IsNaN(r) {
				t.Errorf("reserved sum %v outside [0, %v]", r, budget)
				return
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()

	var wg sync.WaitGroup
	var granted atomic.Uint64 // Float64bits-free tally: count of grants
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := source.NewRNG(uint64(w)*2654435761 + 7)
			held := 0.0
			for i := 0; i < iters; i++ {
				if rng.Float64() < 0.6 {
					need := quantum * (0.1 + 2*rng.Float64())
					got := l.Reserve(need, quantum)
					if got != 0 {
						if got < need {
							t.Errorf("grant %v does not cover need %v", got, need)
							return
						}
						held += got
						granted.Add(1)
					}
				} else if held > 0 {
					back := held * rng.Float64()
					l.Return(back)
					held -= back
				}
			}
			l.Return(held)
		}(w)
	}
	wg.Wait()
	close(stop)
	<-samplerDone

	if granted.Load() == 0 {
		t.Fatal("no Reserve ever succeeded; the test exercised nothing")
	}
	// Every worker returned everything it held, so the ledger must be
	// (approximately — returns fold in commit order) empty again, and
	// never below zero.
	if r := l.Reserved(); r < 0 || r > 1e-6*budget {
		t.Fatalf("reserved sum %v after full return, want ~0", r)
	}
	st := l.Stats()
	if st.Refills != int64(granted.Load()) {
		t.Fatalf("refill counter %d, workers saw %d grants", st.Refills, granted.Load())
	}
}

// TestBootCapacitiesDeterministic pins the recovery contract: the
// split is a pure function of (used, budget, quantum) — two calls are
// bit-identical — every shard's capacity covers its recovered load,
// and the slices never sum past the budget.
func TestBootCapacitiesDeterministic(t *testing.T) {
	used := []float64{3.25, 0, 117.0078125, 42.625}
	const budget, quantum = 1000.0, 1000.0 / (4 * 16)
	caps, err := BootCapacities(used, budget, quantum)
	if err != nil {
		t.Fatal(err)
	}
	again, err := BootCapacities(used, budget, quantum)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(caps, again) {
		t.Fatalf("not deterministic: %v vs %v", caps, again)
	}
	sum := 0.0
	for i, c := range caps {
		if c < used[i] {
			t.Errorf("shard %d capacity %v strands recovered load %v", i, c, used[i])
		}
		if c > used[i]+quantum {
			t.Errorf("shard %d capacity %v tops up more than one quantum over %v", i, c, used[i])
		}
		sum += c
	}
	if sum > budget*(1+1e-12) {
		t.Fatalf("capacities sum to %v, budget is %v", sum, budget)
	}

	// Zero quantum falls back to the default; the same invariants hold.
	caps, err = BootCapacities(used, budget, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range caps {
		if c < used[i] || c > used[i]+DefaultQuantum(budget, len(used)) {
			t.Errorf("shard %d default-quantum capacity %v vs load %v", i, c, used[i])
		}
	}

	// A lone shard is the whole link, whatever load it recovered.
	for _, u := range []float64{0, 42.625, budget} {
		one, err := BootCapacities([]float64{u}, budget, quantum)
		if err != nil || len(one) != 1 || math.Float64bits(one[0]) != math.Float64bits(budget) {
			t.Errorf("one shard with load %v: caps %v, %v, want [%v]", u, one, err, budget)
		}
	}
}

// TestBootCapacitiesTightBudget drives the split into the regime where
// the slack cannot fund a full quantum per shard: earlier shards (in
// index order) absorb what slack there is and the sum still fits.
func TestBootCapacitiesTightBudget(t *testing.T) {
	used := []float64{40, 30, 25}
	caps, err := BootCapacities(used, 100, 16)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{45, 30, 25} // 5 slack: all to shard 0, none left
	if !reflect.DeepEqual(caps, want) {
		t.Fatalf("caps = %v, want %v", caps, want)
	}
}

func TestBootCapacitiesErrors(t *testing.T) {
	if _, err := BootCapacities([]float64{60, 50}, 100, 10); err == nil {
		t.Error("over-budget recovered load accepted")
	}
	if _, err := BootCapacities([]float64{-1}, 100, 10); err == nil {
		t.Error("negative recovered load accepted")
	}
	if _, err := BootCapacities([]float64{math.NaN()}, 100, 10); err == nil {
		t.Error("NaN recovered load accepted")
	}
	if _, err := BootCapacities([]float64{1}, math.Inf(1), 10); err == nil {
		t.Error("infinite budget accepted")
	}
}

// TestGrantSkipsHeadroomCheck pins the boot path: Grant reserves
// exactly, without rounding, because BootCapacities already proved the
// grants fit.
func TestGrantSkipsHeadroomCheck(t *testing.T) {
	l, err := New(100)
	if err != nil {
		t.Fatal(err)
	}
	l.Grant(99.5)
	l.Grant(0)
	l.Grant(-3)
	if got := l.Reserved(); got != 99.5 {
		t.Fatalf("Reserved = %v, want exactly 99.5", got)
	}
}
