// Package prom writes the Prometheus text exposition format (version
// 0.0.4) that every gpsd role serves on /metrics — one HELP and one
// TYPE line per family, then the family's samples — and holds the one
// p50/p99 latency summary those roles share.
package prom

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"

	"repro/internal/stats"
)

// ContentType is the media type of a /metrics response.
const ContentType = "text/plain; version=0.0.4"

// Family writes the HELP and TYPE lines that open a metric family of
// type typ ("counter", "gauge" or "summary"); its samples follow.
func Family(w io.Writer, name, typ, help string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Sample writes one sample of family name. labels is empty or a
// rendered label list such as `shard="0"`. An integral value prints as
// an integer, any other in Go's shortest %g form.
func Sample(w io.Writer, name, labels string, v float64) {
	if labels != "" {
		name += "{" + labels + "}"
	}
	s := strconv.FormatFloat(v, 'g', -1, 64)
	if v == math.Trunc(v) && math.Abs(v) < 1<<53 {
		s = strconv.FormatInt(int64(v), 10)
	}
	fmt.Fprintf(w, "%s %s\n", name, s)
}

// Counter writes a counter family holding one unlabelled sample.
func Counter(w io.Writer, name, help string, v float64) {
	Family(w, name, "counter", help)
	Sample(w, name, "", v)
}

// Gauge writes a gauge family holding one unlabelled sample.
func Gauge(w io.Writer, name, help string, v float64) {
	Family(w, name, "gauge", help)
	Sample(w, name, "", v)
}

// Quantiles writes one summary's samples — its 0.5 and 0.99 quantiles
// and its observation count — each carrying labels.
func Quantiles(w io.Writer, name, labels string, p50, p99 float64, n int64) {
	q := labels
	if q != "" {
		q += ","
	}
	Sample(w, name, q+`quantile="0.5"`, p50)
	Sample(w, name, q+`quantile="0.99"`, p99)
	Sample(w, name+"_count", labels, float64(n))
}

// Summary tracks the p50 and p99 of a stream with two P² estimators
// (O(1) memory however long the stream runs) and counts it, all under
// one lock: a snapshot's count always describes the observations its
// quantiles summarize.
type Summary struct {
	mu       sync.Mutex
	p50, p99 *stats.P2Quantile
	n        int64
}

// NewSummary returns an empty summary.
func NewSummary() *Summary {
	p50, _ := stats.NewP2Quantile(0.5)
	p99, _ := stats.NewP2Quantile(0.99)
	return &Summary{p50: p50, p99: p99}
}

// Observe records one observation.
func (s *Summary) Observe(v float64) {
	s.mu.Lock()
	s.p50.Add(v)
	s.p99.Add(v)
	s.n++
	s.mu.Unlock()
}

// Snapshot returns the current p50 and p99 (0 before any observation)
// and the observation count, as one consistent view.
func (s *Summary) Snapshot() (p50, p99 float64, n int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.p50.Quantile(), s.p99.Quantile(), s.n
}
