package stats

import (
	"math"
	"sort"
	"testing"

	"repro/internal/source"
)

// expSamples draws n samples from an exponential-ish workload (inverse
// transform of the seeded uniform generator), the shape delay tails
// actually have.
func expSamples(n int, rate float64, seed uint64) []float64 {
	rng := source.NewRNG(seed)
	out := make([]float64, n)
	for i := range out {
		u := rng.Float64()
		if u >= 1 {
			u = math.Nextafter(1, 0)
		}
		out[i] = -math.Log(1-u) / rate
	}
	return out
}

// TestTailDirtySuffixMatchesFullSort interleaves adds and queries and
// checks the dirty-suffix maintenance never diverges from a from-scratch
// sort.
func TestTailDirtySuffixMatchesFullSort(t *testing.T) {
	rng := source.NewRNG(42)
	var tail Tail
	var all []float64
	for round := 0; round < 50; round++ {
		batch := 1 + rng.Intn(40)
		for b := 0; b < batch; b++ {
			x := rng.Float64()*10 - 2
			tail.Add(x)
			all = append(all, x)
		}
		ref := append([]float64(nil), all...)
		sort.Float64s(ref)
		n := len(ref)
		for _, q := range []float64{0, 0.25, 0.5, 0.9, 1} {
			got, err := tail.Quantile(q)
			if err != nil {
				t.Fatalf("round %d: Quantile(%v): %v", round, q, err)
			}
			want := ref[int(q*float64(n-1))]
			if got != want {
				t.Fatalf("round %d: Quantile(%v) = %v, full sort gives %v", round, q, got, want)
			}
		}
		for _, x := range []float64{-3, 0, 1, 5, 12} {
			idx := sort.SearchFloat64s(ref, x)
			want := float64(n-idx) / float64(n)
			if got := tail.CCDF(x); got != want {
				t.Fatalf("round %d: CCDF(%v) = %v, full sort gives %v", round, x, got, want)
			}
		}
		if got, want := tail.Max(), ref[n-1]; got != want {
			t.Fatalf("round %d: Max = %v, want %v", round, got, want)
		}
	}
}

// TestTailMonotoneAppendFastPath covers the no-merge branch: batches
// arriving already above the sorted prefix.
func TestTailMonotoneAppendFastPath(t *testing.T) {
	var tail Tail
	for i := 0; i < 100; i++ {
		tail.Add(float64(i))
		if i%10 == 9 {
			if got := tail.CCDF(float64(i)); got != 1/float64(i+1) {
				t.Fatalf("after %d adds: CCDF(max) = %v, want %v", i+1, got, 1/float64(i+1))
			}
		}
	}
	q, err := tail.Quantile(0.5)
	if err != nil || q != 49 {
		t.Fatalf("Quantile(0.5) = %v, %v; want 49", q, err)
	}
}

// TestStreamTailDifferentialCCDF bounds the streaming CCDF against the
// exact Tail on a seeded workload: exact at bucket edges, within one
// bucket's mass elsewhere, never underestimating.
func TestStreamTailDifferentialCCDF(t *testing.T) {
	samples := expSamples(200000, 1.5, 7)
	st, err := NewStreamTail(0, 10, 2048)
	if err != nil {
		t.Fatal(err)
	}
	var exact Tail
	for _, x := range samples {
		st.Add(x)
		exact.Add(x)
	}
	if st.N() != exact.N() {
		t.Fatalf("N: %d vs %d", st.N(), exact.N())
	}
	// At bucket edges the histogram loses nothing (samples in [0, 10)).
	for _, e := range st.Edges() {
		if e >= 10 {
			continue
		}
		got, want := st.CCDF(e), exact.CCDF(e)
		if got != want {
			t.Fatalf("CCDF at edge %v: stream %v, exact %v", e, got, want)
		}
	}
	// Between edges: overestimate by at most the local bucket mass.
	rng := source.NewRNG(99)
	for k := 0; k < 500; k++ {
		x := rng.Float64() * 8
		got, want := st.CCDF(x), exact.CCDF(x)
		if got < want {
			t.Fatalf("CCDF(%v): stream %v underestimates exact %v", x, got, want)
		}
		mass := float64(st.counts[st.bucketOf(x)]) / float64(st.N())
		if got-want > mass+1e-12 {
			t.Fatalf("CCDF(%v): stream %v vs exact %v, gap above the bucket mass %v", x, got, want, mass)
		}
	}
}

// TestStreamTailDifferentialQuantiles bounds streaming quantiles (and
// mean/max) against the exact Tail: within one bucket width.
func TestStreamTailDifferentialQuantiles(t *testing.T) {
	samples := expSamples(100000, 2, 11)
	st, err := NewStreamTail(0, 8, 4096)
	if err != nil {
		t.Fatal(err)
	}
	var exact Tail
	for _, x := range samples {
		st.Add(x)
		exact.Add(x)
	}
	width := 8.0 / 4096
	for _, p := range []float64{0, 0.1, 0.5, 0.9, 0.99, 0.999, 1} {
		got, err := st.Quantile(p)
		if err != nil {
			t.Fatalf("stream Quantile(%v): %v", p, err)
		}
		want, err := exact.Quantile(p)
		if err != nil {
			t.Fatalf("exact Quantile(%v): %v", p, err)
		}
		if math.Abs(got-want) > width {
			t.Fatalf("Quantile(%v): stream %v vs exact %v, gap above one bucket width %v", p, got, want, width)
		}
	}
	if math.Abs(st.Mean()-exact.Mean()) > 1e-9 {
		t.Fatalf("Mean: stream %v vs exact %v", st.Mean(), exact.Mean())
	}
	if st.Max() != exact.Max() {
		t.Fatalf("Max: stream %v vs exact %v", st.Max(), exact.Max())
	}
}

// TestStreamTailMergeDeterminism splits one stream into blocks, merges
// the per-block estimators in order, and requires the merged state to
// reproduce the single-stream estimator exactly — the property that
// makes sharded runs worker-count invariant.
func TestStreamTailMergeDeterminism(t *testing.T) {
	samples := expSamples(50000, 1, 23)
	single, err := NewStreamTail(0, 12, 1024)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range samples {
		single.Add(x)
	}
	for _, blocks := range []int{1, 2, 5, 16} {
		merged, err := NewStreamTail(0, 12, 1024)
		if err != nil {
			t.Fatal(err)
		}
		per := len(samples) / blocks
		for b := 0; b < blocks; b++ {
			st, err := NewStreamTail(0, 12, 1024)
			if err != nil {
				t.Fatal(err)
			}
			end := (b + 1) * per
			if b == blocks-1 {
				end = len(samples)
			}
			for _, x := range samples[b*per : end] {
				st.Add(x)
			}
			if err := merged.Merge(st); err != nil {
				t.Fatal(err)
			}
		}
		gc, wc := merged.Counts(), single.Counts()
		for k := range gc {
			if gc[k] != wc[k] {
				t.Fatalf("blocks=%d: count[%d] = %d, single-stream %d", blocks, k, gc[k], wc[k])
			}
		}
		if merged.N() != single.N() || merged.Max() != single.Max() || merged.Min() != single.Min() {
			t.Fatalf("blocks=%d: N/Max/Min diverge from single stream", blocks)
		}
		if math.Abs(merged.Mean()-single.Mean()) > 1e-12 {
			t.Fatalf("blocks=%d: Mean %v vs single-stream %v", blocks, merged.Mean(), single.Mean())
		}
	}
}

// TestStreamTailMergeGeometryMismatch rejects merging incompatible
// histograms rather than silently misbinning.
func TestStreamTailMergeGeometryMismatch(t *testing.T) {
	a, _ := NewStreamTail(0, 10, 100)
	b, _ := NewStreamTail(0, 20, 100)
	if err := a.Merge(b); err == nil {
		t.Fatal("merged histograms with different widths without error")
	}
	c, _ := NewStreamTail(0, 10, 200)
	if err := a.Merge(c); err == nil {
		t.Fatal("merged histograms with different bucket counts without error")
	}
}

// TestStreamTailValidation covers constructor rejects.
func TestStreamTailValidation(t *testing.T) {
	if _, err := NewStreamTail(5, 5, 10); err == nil {
		t.Fatal("empty range accepted")
	}
	if _, err := NewStreamTail(0, 1, 0); err == nil {
		t.Fatal("zero buckets accepted")
	}
	if _, err := NewStreamTail(math.Inf(-1), 1, 4); err == nil {
		t.Fatal("infinite range accepted")
	}
}

// TestP2QuantileAccuracy checks the P² estimate lands near the exact
// quantile for a smooth distribution, at O(1) memory.
func TestP2QuantileAccuracy(t *testing.T) {
	samples := expSamples(100000, 1, 5)
	var exact Tail
	for _, p := range []float64{0.5, 0.9, 0.99} {
		est, err := NewP2Quantile(p)
		if err != nil {
			t.Fatal(err)
		}
		exact = Tail{}
		for _, x := range samples {
			est.Add(x)
			exact.Add(x)
		}
		want, _ := exact.Quantile(p)
		got := est.Quantile()
		if math.Abs(got-want) > 0.05*math.Max(1, want) {
			t.Fatalf("P²(%v) = %v, exact %v", p, got, want)
		}
	}
}

// TestP2QuantileSmallN keeps the exact small-sample fallback honest.
func TestP2QuantileSmallN(t *testing.T) {
	est, err := NewP2Quantile(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if got := est.Quantile(); got != 0 {
		t.Fatalf("empty estimator Quantile = %v, want 0", got)
	}
	for _, x := range []float64{3, 1, 2} {
		est.Add(x)
	}
	if got := est.Quantile(); got != 2 {
		t.Fatalf("median of {3,1,2} = %v, want 2", got)
	}
	if _, err := NewP2Quantile(0); err == nil {
		t.Fatal("p=0 accepted")
	}
	if _, err := NewP2Quantile(1); err == nil {
		t.Fatal("p=1 accepted")
	}
}

// TestStreamTailSuffixInvalidation interleaves mutations with queries:
// the lazily rebuilt suffix array must never serve counts from before
// an Add or Merge.
func TestStreamTailSuffixInvalidation(t *testing.T) {
	st, err := NewStreamTail(0, 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	other, err := NewStreamTail(0, 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	naive := func(x float64) float64 {
		if st.n == 0 || x > st.max {
			return 0
		}
		tail := uint64(0)
		for k := st.bucketOf(x); k < len(st.counts); k++ {
			tail += st.counts[k]
		}
		return float64(tail) / float64(st.n)
	}
	rng := source.NewRNG(5)
	levels := []float64{0, 0.5, 2, 5, 9.5}
	for i := 0; i < 2000; i++ {
		x := rng.Float64() * 10
		switch {
		case i%7 == 6:
			other.Add(x)
			if err := st.Merge(other); err != nil {
				t.Fatal(err)
			}
		default:
			st.Add(x)
		}
		q := levels[i%len(levels)]
		if got, want := st.CCDF(q), naive(q); got != want {
			t.Fatalf("step %d: CCDF(%v) = %v from stale suffix, naive re-sum gives %v", i, q, got, want)
		}
	}
	curve := st.CCDFCurve(levels)
	for i, q := range levels {
		if curve[i] != naive(q) {
			t.Fatalf("CCDFCurve[%d] = %v, naive re-sum gives %v", i, curve[i], naive(q))
		}
	}
}

// TestStreamTailMergeEmptyPreservesMoments pins the empty-merge edges:
// folding an empty estimator in (either direction) must leave min, max,
// and mean untouched rather than poisoning them with the empty side's
// ±Inf sentinels.
func TestStreamTailMergeEmptyPreservesMoments(t *testing.T) {
	full, err := NewStreamTail(0, 10, 32)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{1.25, 3.5, 7.75} {
		full.Add(x)
	}
	empty, err := NewStreamTail(0, 10, 32)
	if err != nil {
		t.Fatal(err)
	}
	if err := full.Merge(empty); err != nil {
		t.Fatal(err)
	}
	if full.N() != 3 || full.Min() != 1.25 || full.Max() != 7.75 {
		t.Fatalf("after merging empty in: n=%d min=%v max=%v, want 3, 1.25, 7.75", full.N(), full.Min(), full.Max())
	}
	if got, want := full.Mean(), (1.25+3.5+7.75)/3; got != want {
		t.Fatalf("after merging empty in: mean %v, want %v", got, want)
	}
	// Empty receiver: the merged-in stream must arrive intact, and the
	// still-empty pair must report the 0 sentinels, not ±Inf.
	into, err := NewStreamTail(0, 10, 32)
	if err != nil {
		t.Fatal(err)
	}
	if err := into.Merge(full); err != nil {
		t.Fatal(err)
	}
	if into.N() != 3 || into.Min() != 1.25 || into.Max() != 7.75 || into.Mean() != full.Mean() {
		t.Fatalf("merge into empty: n=%d min=%v max=%v mean=%v", into.N(), into.Min(), into.Max(), into.Mean())
	}
	bothEmpty, _ := NewStreamTail(0, 10, 32)
	if err := bothEmpty.Merge(empty); err != nil {
		t.Fatal(err)
	}
	if bothEmpty.Min() != 0 || bothEmpty.Max() != 0 || bothEmpty.Mean() != 0 {
		t.Fatalf("empty∪empty: min=%v max=%v mean=%v, want zeros", bothEmpty.Min(), bothEmpty.Max(), bothEmpty.Mean())
	}
	if math.IsInf(bothEmpty.Min(), 0) || math.IsInf(bothEmpty.Max(), 0) {
		t.Fatal("empty∪empty leaked an infinite sentinel")
	}
}

// TestStreamTailQuantileBelowRangeClamp pins Quantile when every sample
// clamps into the first bucket from below the range: interpolation
// inside bucket 0 must clamp back to the observed values, not report a
// point inside [lo, hi) no sample ever took.
func TestStreamTailQuantileBelowRangeClamp(t *testing.T) {
	st, err := NewStreamTail(10, 20, 16)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		st.Add(-3.5) // far below lo: clamps into bucket 0
	}
	for _, p := range []float64{0, 0.5, 0.99, 1} {
		q, err := st.Quantile(p)
		if err != nil {
			t.Fatalf("Quantile(%v): %v", p, err)
		}
		if q != -3.5 {
			t.Fatalf("Quantile(%v) = %v on fully below-range samples, want the clamped -3.5", p, q)
		}
	}
	if st.CCDF(-3.5) != 1 || st.CCDF(-4) != 1 || st.CCDF(10) != 0 {
		t.Fatalf("below-range CCDF: got %v, %v, %v; want 1, 1, 0", st.CCDF(-3.5), st.CCDF(-4), st.CCDF(10))
	}
}
