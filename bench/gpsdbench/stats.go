package main

import (
	"math"
	"sort"
)

// minBeyond is the tail rule: a percentile is reported only when at
// least this many samples lie beyond it.
const minBeyond = 10

// rankIndex is the 0-based nearest-rank index of percentile p among n
// sorted samples.
func rankIndex(n int, p float64) int {
	k := int(math.Ceil(p*float64(n))) - 1
	if k < 0 {
		k = 0
	}
	if k > n-1 {
		k = n - 1
	}
	return k
}

// supports reports whether n samples carry percentile p under the tail
// rule: at least minBeyond samples strictly above its rank.
func supports(n int, p float64) bool {
	if n == 0 {
		return false
	}
	return n-1-rankIndex(n, p) >= minBeyond
}

// highestTail returns the highest percentile of the ladder
// p99.9/p99/p90/p50 that n samples support, or 0 when none is.
func highestTail(n int) float64 {
	for _, p := range []float64{0.999, 0.99, 0.9, 0.5} {
		if supports(n, p) {
			return p
		}
	}
	return 0
}

// quantile returns the nearest-rank percentile p of sorted.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rankIndex(len(sorted), p)]
}

// median returns the median of xs (the mean of the middle pair for an
// even count); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs with the
// "exclusive" method Python's statistics.quantiles uses by default, so
// a spread computed here matches one computed from the same values by
// that function. It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	at := func(j int) float64 {
		// Position j*(n+1)/4 (1-based), clamped to the data, with linear
		// interpolation between neighbours.
		m := n + 1
		idx := j * m / 4
		if idx < 1 {
			idx = 1
		}
		if idx > n-1 {
			idx = n - 1
		}
		delta := float64(j*m-4*idx) / 4
		return s[idx-1] + delta*(s[idx]-s[idx-1])
	}
	return at(1), at(3)
}

// spread is the interquartile range of xs as a share of their median:
// the run-to-run noise measure the bounds in BENCHMARK.json are held
// against.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	q1, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(m)
}
