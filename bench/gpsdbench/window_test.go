package main

import (
	"math"
	"testing"
)

// meterOf builds a meter of 100 ms slices of 20 machine ticks with the
// given stolen ticks, each slice using 50 ms of stack CPU.
func meterOf(stolen ...int64) *windowMeter {
	m := &windowMeter{}
	for i, s := range stolen {
		at := int64(i) * int64(sliceLen)
		m.slices = append(m.slices, slice{start: at, end: at + int64(sliceLen), ticks: 20, stolen: s, cpu: int64(sliceLen) / 2})
	}
	return m
}

// TestNetOfStolen checks that an operation loses the stolen share of the
// slices it overlapped, and no more.
func TestNetOfStolen(t *testing.T) {
	ms := int64(1e6)
	w := meterOf(0, 0, 10, 0, 0).window()
	in := series{
		{at: 80 * ms, dur: 60 * ms},   // slice 0 only: nothing stolen
		{at: 250 * ms, dur: 100 * ms}, // slices 1 and 2: 10 of 40 ticks stolen
		{at: 290 * ms, dur: 80 * ms},  // slice 2 only: half stolen
		{at: 700 * ms, dur: 10 * ms},  // after the window
	}
	want := []int64{60 * ms, 75 * ms, 40 * ms, 10 * ms}
	for i, x := range w.net(in) {
		if x.at != in[i].at || x.dur != want[i] {
			t.Errorf("sample %d: net %+v, want at %d dur %d", i, x, in[i].at, want[i])
		}
	}
}

// TestQuietSlices checks the quiet-slice rule: a slice with stolen time
// and the slice after it count toward neither rates nor CPU per
// operation, and a window with almost no quiet time counts every slice.
func TestQuietSlices(t *testing.T) {
	ms := int64(1e6)
	m := meterOf(0, 0, 3, 0, 0, 0, 0, 0, 0, 0) // slices 2 and 3 do not count
	w := m.window()
	if math.Abs(w.quiet-0.8) > 1e-12 {
		t.Fatalf("quiet share %v, want 0.8", w.quiet)
	}
	// One op completing in every slice, two more in the stolen one.
	var ops series
	for i := 0; i < 10; i++ {
		ops = append(ops, sample{at: int64(i)*100*ms + 50*ms, dur: ms})
	}
	ops = append(ops, sample{at: 250 * ms, dur: ms}, sample{at: 260 * ms, dur: ms})
	if r := w.rate(ops); r.N != 8 || math.Abs(r.Value-10) > 1e-9 {
		t.Errorf("rate %v over %d ops, want 10/s over 8", r.Value, r.N)
	}
	if c := w.cpuPerOp(ops); c.N != 8 || math.Abs(c.Value-50e3) > 1e-9 {
		t.Errorf("cpu per op %v us over %d ops, want 50000 over 8", c.Value, c.N)
	}

	all := meterOf(1, 1, 1, 0, 1, 1, 1, 1, 1, 1).window() // nothing quiet
	if r := all.rate(ops); all.quiet != 0 || r.N != 12 {
		t.Errorf("a window without quiet time must count every slice: quiet %v, %d ops", all.quiet, r.N)
	}
}
