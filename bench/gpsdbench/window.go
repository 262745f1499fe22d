package main

import (
	"math"
	"sort"
	"time"
)

// The measured window is cut into slices, and rates count only the
// quiet ones.
//
// gpsdbench runs on virtual CPUs of shared hosts. While the hypervisor
// runs another tenant on one of them, the guest sees that time as
// stolen (/proc/stat), and a closed loop of sub-millisecond requests
// loses several times the stolen share of its throughput: every hand-off
// between client, handler and writer waits for whichever vCPU was taken.
// Runs of node-churn at 1% and at 23% steal differed by 2x, and steal
// came in bursts that left most 100 ms slices untouched. A slice is
// quiet when no CPU time was stolen in it or in the slice before it,
// whose backlog it inherits. CPU per operation counts the same slices:
// stolen time is not the stack's CPU time, but while a vCPU is taken
// the stack's threads sleep and wake more per operation, and node-churn
// spent 64–70 µs per operation in runs at 2–6% steal against 54–60 µs
// in quiet ones. Latency medians need no such rule: a median ignores
// the few operations a burst delays.
const sliceLen = 100 * time.Millisecond

// minQuietShare is the share of the window that must be quiet for the
// rule to apply; below it every slice counts.
const minQuietShare = 0.1

// slice is one sampling period of the window.
type slice struct {
	start, end    int64 // on the run's clock
	ticks, stolen int64 // machine CPU ticks, and those the hypervisor stole
	cpu           int64 // the stack's CPU time, nanoseconds
	rss           int64 // the stack's resident set at the slice's end, bytes
}

// windowMeter samples the machine and the stack every sliceLen from
// start to finish.
type windowMeter struct {
	d      *deployment
	slices []slice
	peak   int64 // the stack's summed resident high-water marks at the end
	// total and steal are the machine's CPU ticks over the window.
	total, steal int64
	err          error
	stop, done   chan struct{}
}

func (m *windowMeter) note(err error) {
	if err != nil && m.err == nil {
		m.err = err
	}
}

// start takes the first reading and samples every sliceLen until
// finish; until then the sampling goroutine owns the meter.
func (m *windowMeter) start(clk *clock, d *deployment) {
	m.d = d
	m.stop, m.done = make(chan struct{}), make(chan struct{})
	type reading struct{ at, total, steal, cpu, rss int64 }
	read := func() reading {
		x := reading{at: clk.now()}
		var err error
		x.total, x.steal, err = cpuTimes()
		m.note(err)
		u, err := d.usage()
		m.note(err)
		x.cpu, x.rss = u.cpu, u.rss
		return x
	}
	first := read()
	go func() {
		defer close(m.done)
		t := time.NewTicker(sliceLen)
		defer t.Stop()
		prev := first
		for {
			select {
			case <-m.stop:
				m.total, m.steal = prev.total-first.total, prev.steal-first.steal
				return
			case <-t.C:
			}
			cur := read()
			m.slices = append(m.slices, slice{prev.at, cur.at, cur.total - prev.total, cur.steal - prev.steal, cur.cpu - prev.cpu, cur.rss})
			prev = cur
		}
	}()
}

// finish stops the sampling and reads the high-water marks.
func (m *windowMeter) finish() {
	close(m.stop)
	<-m.done
	u, err := m.d.usage()
	m.note(err)
	m.peak = u.peak
}

// window holds which of a meter's slices count for rates, grouped into
// subWindows groups of consecutive slices for the within-run spreads.
type window struct {
	m      *windowMeter
	counts []bool
	quiet  float64 // the quiet share of the window's time
}

func (m *windowMeter) window() *window {
	w := &window{m: m, counts: make([]bool, len(m.slices))}
	var quiet, all int64
	for i, s := range m.slices {
		w.counts[i] = s.stolen == 0 && (i == 0 || m.slices[i-1].stolen == 0)
		all += s.end - s.start
		if w.counts[i] {
			quiet += s.end - s.start
		}
	}
	w.quiet = float64(quiet) / math.Max(float64(all), 1)
	if w.quiet < minQuietShare {
		for i := range w.counts {
			w.counts[i] = true
		}
	}
	return w
}

// slot returns the index of the slice holding t, or -1 outside the
// window.
func (w *window) slot(t int64) int {
	s := w.m.slices
	i := sort.Search(len(s), func(i int) bool { return s[i].end > t })
	if i == len(s) || t < s[i].start {
		return -1
	}
	return i
}

// group returns the slice range of sub-window g, or of the whole window
// for g < 0.
func (w *window) group(g int) (lo, hi int) {
	n := len(w.m.slices)
	if g < 0 {
		return 0, n
	}
	return g * n / subWindows, (g + 1) * n / subWindows
}

// over computes f over the whole window and over each sub-window.
func (w *window) over(f func(lo, hi int) float64) *metric {
	m := &metric{Value: f(w.group(-1))}
	for g := 0; g < subWindows; g++ {
		m.Subs = append(m.Subs, f(w.group(g)))
	}
	return m
}

// seconds is the counted time among slices lo..hi-1.
func (w *window) seconds(lo, hi int) float64 {
	var ns int64
	for i := lo; i < hi; i++ {
		if w.counts[i] {
			ns += w.m.slices[i].end - w.m.slices[i].start
		}
	}
	return float64(ns) / 1e9
}

// completed counts, per slice, the samples of ss that completed in it.
func (w *window) completed(ss ...series) []int {
	out := make([]int, len(w.m.slices))
	for _, s := range ss {
		for _, x := range s {
			if i := w.slot(x.at); i >= 0 {
				out[i]++
			}
		}
	}
	return out
}

// sum adds up per-slice counts over the counted slices among lo..hi-1.
func (w *window) sum(per []int, lo, hi int) int {
	n := 0
	for i := lo; i < hi; i++ {
		if w.counts[i] {
			n += per[i]
		}
	}
	return n
}

// rate is how many samples of ss completed per counted second.
func (w *window) rate(ss ...series) *metric {
	per := w.completed(ss...)
	m := w.over(func(lo, hi int) float64 { return float64(w.sum(per, lo, hi)) / w.seconds(lo, hi) })
	m.N = w.sum(per, 0, len(per))
	m.Supported = true
	return m
}

// latency is percentile p of s's durations, in milliseconds; a
// sub-window takes the samples that completed in it.
func (w *window) latency(s series, p float64) *metric {
	all := s.durations(time.Millisecond)
	m := &metric{Value: quantile(all, p), N: len(all), Supported: supports(len(all), p)}
	for g := 0; g < subWindows; g++ {
		lo, hi := w.group(g)
		var sub series
		for _, x := range s {
			if i := w.slot(x.at); i >= lo && i < hi {
				sub = append(sub, x)
			}
		}
		m.Subs = append(m.Subs, quantile(sub.durations(time.Millisecond), p))
	}
	return m
}

// net returns s with each duration less the share of it the hypervisor
// stole: the share of the machine's CPU ticks stolen in the slices the
// operation overlapped. A request that computes for its whole duration,
// as a bounds read does, then takes the time it would have on a host
// that stole nothing, however much the host stole while it ran.
func (w *window) net(s series) series {
	sl := w.m.slices
	out := make(series, len(s))
	for k, x := range s {
		var ticks, stolen int64
		from := x.at - x.dur
		for i := sort.Search(len(sl), func(i int) bool { return sl[i].end > from }); i < len(sl) && sl[i].start < x.at; i++ {
			ticks += sl[i].ticks
			stolen += sl[i].stolen
		}
		out[k] = x
		if ticks > 0 {
			out[k].dur -= x.dur * stolen / ticks
		}
	}
	return out
}

// cpuPerOp is the stack's CPU time over the counted slices per client
// operation completed in them, in microseconds.
func (w *window) cpuPerOp(ss ...series) *metric {
	per := w.completed(ss...)
	cpu := func(lo, hi int) float64 {
		var ns int64
		for i := lo; i < hi; i++ {
			if w.counts[i] {
				ns += w.m.slices[i].cpu
			}
		}
		return float64(ns) / 1e3 / float64(w.sum(per, lo, hi))
	}
	m := w.over(cpu)
	m.N = w.sum(per, 0, len(per))
	m.Supported = true
	return m
}
