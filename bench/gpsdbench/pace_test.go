package main

import (
	"testing"
	"time"
)

// The probe's unit must not allocate: the client's garbage collector
// would charge it for the client's own garbage.
func TestPaceUnitAllocatesNothing(t *testing.T) {
	u := newPaceUnit()
	if n := testing.AllocsPerRun(20, u.run); n != 0 {
		t.Fatalf("a pace unit allocates %v times", n)
	}
}

func TestPaceSpeed(t *testing.T) {
	clk := &clock{base: time.Now()}
	p := startPace(clk)
	time.Sleep(10 * paceEvery)
	if err := p.finish(); err != nil {
		t.Fatal(err)
	}
	if err := p.finish(); err != nil {
		t.Fatalf("second finish: %v", err)
	}
	stopped := clk.now()
	s, n := p.speed(func(at int64) bool { return at < stopped })
	if n == 0 || !(s > 0) {
		t.Fatalf("speed %v over %d units", s, n)
	}
	if _, n := p.speed(func(at int64) bool { return at >= stopped }); n != 0 {
		t.Fatalf("%d units after the probe stopped", n)
	}
	t.Logf("speed %.3f over %d units (reference unit %v)", s, n, time.Duration(paceRefNanos))
}
