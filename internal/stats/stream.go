package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// This file holds the fixed-memory estimators that let TreeSim-style
// runs stream tens of millions of delay samples: a bucketed CCDF
// histogram with exactly mergeable integer counts (StreamTail) and the
// P² single-quantile tracker. Exact Tail stays the right tool for small
// runs; the differential tests in stream_test.go bound the streaming
// estimators against it on seeded workloads.

// StreamTail estimates tail probabilities from a fixed-size bucketed
// histogram plus exact running moments: O(buckets) memory no matter how
// many samples stream through. Counts are integers, so merging per-shard
// StreamTails in a fixed order is exact and deterministic — the property
// the sharded Monte Carlo harness relies on for shard-count-invariant
// output. CCDF values are exact at bucket edges and overestimate by at
// most one bucket's mass in between; quantiles interpolate within a
// bucket, so their error is at most one bucket width.
type StreamTail struct {
	lo, width float64
	// counts[k] covers [lo+k·width, lo+(k+1)·width); the final bucket
	// extends to +Inf so out-of-range samples are never dropped.
	counts []uint64
	n      uint64
	// Neumaier-compensated sample sum: the merged mean must not depend
	// on how many blocks the stream was split into beyond rounding, and
	// compensation keeps that drift at O(ulp).
	sum, sumC float64
	min, max  float64
	// suffix[k] = Σ counts[k:], rebuilt lazily on the first query after a
	// mutation: CCDF is O(1) and CCDFCurve O(levels) per call instead of
	// re-summing the bucket suffix every time. Add/Merge only set the
	// dirty flag, so the ingest hot path stays one counter bump. The lazy
	// rebuild means queries mutate internal state: a StreamTail is safe
	// for one goroutine, not for concurrent readers.
	suffix      []uint64
	suffixDirty bool
}

// NewStreamTail builds an estimator over [lo, hi) with the given bucket
// count. Samples outside the range clamp into the first/last bucket.
func NewStreamTail(lo, hi float64, buckets int) (*StreamTail, error) {
	if !(hi > lo) || math.IsInf(lo, 0) || math.IsInf(hi, 0) {
		return nil, fmt.Errorf("stats: stream tail range [%v, %v) is not a finite interval", lo, hi)
	}
	if buckets < 1 {
		return nil, fmt.Errorf("stats: stream tail needs at least 1 bucket, got %d", buckets)
	}
	return &StreamTail{
		lo:     lo,
		width:  (hi - lo) / float64(buckets),
		counts: make([]uint64, buckets+1),
		suffix: make([]uint64, buckets+1),
		min:    math.Inf(1),
		max:    math.Inf(-1),
	}, nil
}

// edge returns the lower edge of bucket k.
func (s *StreamTail) edge(k int) float64 { return s.lo + float64(k)*s.width }

// bucketOf maps a sample to its bucket, nudging against division
// rounding so values exactly on an edge always land in the bucket whose
// lower edge they are.
func (s *StreamTail) bucketOf(x float64) int {
	if x <= s.lo {
		return 0
	}
	k := int((x - s.lo) / s.width)
	last := len(s.counts) - 1
	if k > last {
		return last
	}
	for k > 0 && x < s.edge(k) {
		k--
	}
	for k < last && x >= s.edge(k+1) {
		k++
	}
	return k
}

// Add records one sample.
func (s *StreamTail) Add(x float64) {
	s.counts[s.bucketOf(x)]++
	s.suffixDirty = true
	s.n++
	s.addSum(x)
	if x < s.min {
		s.min = x
	}
	if x > s.max {
		s.max = x
	}
}

func (s *StreamTail) addSum(x float64) {
	t := s.sum + x
	if math.Abs(s.sum) >= math.Abs(x) {
		s.sumC += (s.sum - t) + x
	} else {
		s.sumC += (x - t) + s.sum
	}
	s.sum = t
}

// N returns the number of samples streamed through.
func (s *StreamTail) N() int { return int(s.n) }

// Mean returns the exact sample mean (0 for an empty stream).
func (s *StreamTail) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return (s.sum + s.sumC) / float64(s.n)
}

// Max returns the largest sample seen (0 for an empty stream, matching
// Tail).
func (s *StreamTail) Max() float64 {
	if s.n == 0 {
		return 0
	}
	return s.max
}

// Min returns the smallest sample seen (0 for an empty stream).
func (s *StreamTail) Min() float64 {
	if s.n == 0 {
		return 0
	}
	return s.min
}

// tailCounts returns the suffix-count array, rebuilding it (O(buckets))
// only when a mutation invalidated it since the last query.
func (s *StreamTail) tailCounts() []uint64 {
	if s.suffixDirty {
		acc := uint64(0)
		for k := len(s.counts) - 1; k >= 0; k-- {
			acc += s.counts[k]
			s.suffix[k] = acc
		}
		s.suffixDirty = false
	}
	return s.suffix
}

// CCDF returns the estimated Pr{X >= x}: exact whenever x is a bucket
// edge (or outside the observed range), otherwise an overestimate by at
// most the mass of x's bucket.
func (s *StreamTail) CCDF(x float64) float64 {
	if s.n == 0 {
		return 0
	}
	if x > s.max {
		return 0
	}
	return float64(s.tailCounts()[s.bucketOf(x)]) / float64(s.n)
}

// Quantile returns the p-th quantile estimate (0 <= p <= 1): the bucket
// holding the ⌊p·(n-1)⌋-th order statistic, interpolated within the
// bucket and clamped to the observed range.
func (s *StreamTail) Quantile(p float64) (float64, error) {
	if s.n == 0 {
		return 0, errors.New("stats: no samples")
	}
	if p < 0 || p > 1 {
		return 0, errors.New("stats: quantile level outside [0,1]")
	}
	idx := uint64(p * float64(s.n-1))
	cum := uint64(0)
	for k, c := range s.counts {
		if idx < cum+c {
			q := s.edge(k) + s.width*(float64(idx-cum)+0.5)/float64(c)
			return math.Min(math.Max(q, s.min), s.max), nil
		}
		cum += c
	}
	return s.max, nil
}

// CCDFCurve evaluates the estimated CCDF on a grid of levels: one
// suffix-array rebuild at most, then O(1) per level.
func (s *StreamTail) CCDFCurve(levels []float64) []float64 {
	out := make([]float64, len(levels))
	if s.n == 0 {
		return out
	}
	tail := s.tailCounts()
	for i, x := range levels {
		if x > s.max {
			continue
		}
		out[i] = float64(tail[s.bucketOf(x)]) / float64(s.n)
	}
	return out
}

// Edges returns the bucket edges (lo, lo+w, ..., hi) — the levels at
// which CCDF is exact.
func (s *StreamTail) Edges() []float64 {
	out := make([]float64, len(s.counts))
	for k := range out {
		out[k] = s.edge(k)
	}
	return out
}

// Merge folds another StreamTail with identical geometry into s. Counts
// add exactly; merging the same shards in the same order always yields
// the same state, regardless of how many workers produced them.
func (s *StreamTail) Merge(o *StreamTail) error {
	if o.lo != s.lo || o.width != s.width || len(o.counts) != len(s.counts) {
		return fmt.Errorf("stats: merging stream tails with different geometry ([%v,+%v)x%d vs [%v,+%v)x%d)",
			s.lo, s.width, len(s.counts), o.lo, o.width, len(o.counts))
	}
	for k := range s.counts {
		s.counts[k] += o.counts[k]
	}
	s.suffixDirty = true
	s.n += o.n
	s.addSum(o.sum + o.sumC)
	if o.n > 0 {
		if o.min < s.min {
			s.min = o.min
		}
		if o.max > s.max {
			s.max = o.max
		}
	}
	return nil
}

// Counts returns a copy of the bucket counts (for tests and export).
func (s *StreamTail) Counts() []uint64 {
	return append([]uint64(nil), s.counts...)
}

// P2Quantile tracks one quantile of a stream in O(1) memory with the P²
// algorithm (Jain & Chlamtac 1985): five markers whose heights are
// nudged toward their desired positions with a piecewise-parabolic
// update. Accuracy is typically a fraction of a percent of the sample
// range for smooth distributions.
type P2Quantile struct {
	p    float64
	n    int
	q    [5]float64 // marker heights
	pos  [5]int     // marker positions (1-based)
	des  [5]float64 // desired marker positions
	dDes [5]float64 // desired position increments per observation
	buf  [5]float64 // first observations, before the markers exist
}

// NewP2Quantile tracks the p-th quantile, p in (0, 1).
func NewP2Quantile(p float64) (*P2Quantile, error) {
	if !(p > 0 && p < 1) {
		return nil, fmt.Errorf("stats: P² quantile level %v outside (0,1)", p)
	}
	return &P2Quantile{p: p}, nil
}

// N returns the observation count.
func (e *P2Quantile) N() int { return e.n }

// Add records one observation.
func (e *P2Quantile) Add(x float64) {
	if e.n < 5 {
		e.buf[e.n] = x
		e.n++
		if e.n == 5 {
			sort.Float64s(e.buf[:])
			p := e.p
			e.q = e.buf
			e.pos = [5]int{1, 2, 3, 4, 5}
			e.des = [5]float64{1, 1 + 2*p, 1 + 4*p, 3 + 2*p, 5}
			e.dDes = [5]float64{0, p / 2, p, (1 + p) / 2, 1}
		}
		return
	}
	e.n++
	// Find the cell k with q[k] <= x < q[k+1], extending the extremes.
	var k int
	switch {
	case x < e.q[0]:
		e.q[0] = x
		k = 0
	case x >= e.q[4]:
		if x > e.q[4] {
			e.q[4] = x
		}
		k = 3
	default:
		for k = 0; k < 3; k++ {
			if x < e.q[k+1] {
				break
			}
		}
	}
	for i := k + 1; i < 5; i++ {
		e.pos[i]++
	}
	for i := range e.des {
		e.des[i] += e.dDes[i]
	}
	for i := 1; i <= 3; i++ {
		d := e.des[i] - float64(e.pos[i])
		if (d >= 1 && e.pos[i+1]-e.pos[i] > 1) || (d <= -1 && e.pos[i-1]-e.pos[i] < -1) {
			sign := 1
			if d < 0 {
				sign = -1
			}
			qn := e.parabolic(i, sign)
			if !(e.q[i-1] < qn && qn < e.q[i+1]) {
				qn = e.linear(i, sign)
			}
			e.q[i] = qn
			e.pos[i] += sign
		}
	}
}

func (e *P2Quantile) parabolic(i, sign int) float64 {
	s := float64(sign)
	ni := float64(e.pos[i])
	nm := float64(e.pos[i-1])
	np := float64(e.pos[i+1])
	return e.q[i] + s/(np-nm)*((ni-nm+s)*(e.q[i+1]-e.q[i])/(np-ni)+
		(np-ni-s)*(e.q[i]-e.q[i-1])/(ni-nm))
}

func (e *P2Quantile) linear(i, sign int) float64 {
	s := float64(sign)
	return e.q[i] + s*(e.q[i+sign]-e.q[i])/(float64(e.pos[i+sign])-float64(e.pos[i]))
}

// Quantile returns the current estimate (exact while n <= 5).
func (e *P2Quantile) Quantile() float64 {
	if e.n == 0 {
		return 0
	}
	if e.n < 5 {
		tmp := append([]float64(nil), e.buf[:e.n]...)
		sort.Float64s(tmp)
		return tmp[int(e.p*float64(e.n-1))]
	}
	return e.q[2]
}
