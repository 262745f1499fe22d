package faults

import (
	"errors"
	"math"
	"testing"

	"repro/internal/fluid"
	"repro/internal/netsim"
)

func TestNewDeterministic(t *testing.T) {
	cfg := Config{
		Seed: 7, Horizon: 1000, Nodes: 3, Sessions: 4,
		Degrade: ClassParams{Count: 5},
		Outage:  ClassParams{Count: 2, MaxDuration: 20},
		Churn:   ClassParams{Count: 3},
		Delay:   ClassParams{Count: 3, MaxExtra: 4},
	}
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("same seed, different schedules:\n%s\nvs\n%s", a, b)
	}
	if a.Digest() != b.Digest() {
		t.Errorf("digest mismatch: %x vs %x", a.Digest(), b.Digest())
	}
	cfg.Seed = 8
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest() == c.Digest() {
		t.Error("different seeds produced the identical schedule")
	}
	st := a.Stats()
	if st.Total != 13 || st.ByClass[RateDegrade] != 5 || st.ByClass[Outage] != 2 ||
		st.ByClass[SessionLeave] != 3 || st.ByClass[ForwardDelay] != 3 {
		t.Errorf("stats = %+v", st)
	}
}

func TestNewValidation(t *testing.T) {
	cases := []Config{
		{Horizon: 0},
		{Horizon: 100, Nodes: -1},
		{Horizon: 100, Nodes: 0, Degrade: ClassParams{Count: 1}},  // node fault, no nodes
		{Horizon: 100, Sessions: 0, Churn: ClassParams{Count: 1}}, // session fault, no sessions
		{Horizon: 100, Nodes: 1, Degrade: ClassParams{Count: -2}}, // negative count
		{Horizon: 100, Nodes: 1, Degrade: ClassParams{Count: 1, MinSeverity: 0.9, MaxSeverity: 0.3}},
	}
	for i, cfg := range cases {
		if _, err := New(cfg); !errors.Is(err, ErrInvalidSchedule) {
			t.Errorf("case %d: New = %v, want ErrInvalidSchedule", i, err)
		}
	}
}

func TestFromEventsValidation(t *testing.T) {
	cases := []Event{
		{Class: RateDegrade, Node: 5, Start: 0, Duration: 1, Severity: 0.5}, // node out of range
		{Class: RateDegrade, Node: 0, Start: 0, Duration: 1, Severity: 1.5}, // severity out of range
		{Class: RateDegrade, Node: 0, Start: 0, Duration: 1, Severity: math.NaN()},
		{Class: Outage, Node: -1, Start: 0, Duration: 1},
		{Class: Outage, Node: 0, Start: -1, Duration: 1}, // negative start
		{Class: Outage, Node: 0, Start: 0, Duration: 0},  // empty interval
		{Class: SessionLeave, Session: 9, Start: 0, Duration: 1},
		{Class: ForwardDelay, Session: 0, Start: 0, Duration: 1, Extra: 0}, // no delay
		{Class: Class(99), Start: 0, Duration: 1},
	}
	for i, e := range cases {
		if _, err := FromEvents(2, 2, []Event{e}); !errors.Is(err, ErrInvalidSchedule) {
			t.Errorf("case %d (%v): FromEvents = %v, want ErrInvalidSchedule", i, e, err)
		}
	}
}

func TestHookSemantics(t *testing.T) {
	in, err := FromEvents(2, 2, []Event{
		{Class: RateDegrade, Node: 0, Start: 10, Duration: 10, Severity: 0.5},
		{Class: RateDegrade, Node: 0, Start: 15, Duration: 10, Severity: 0.5}, // overlap compounds
		{Class: Outage, Node: 1, Start: 20, Duration: 5},
		{Class: SessionLeave, Session: 1, Start: 30, Duration: 3},
		{Class: ForwardDelay, Session: 0, Start: 40, Duration: 2, Extra: 2},
		{Class: ForwardDelay, Session: 0, Start: 41, Duration: 2, Extra: 5}, // max wins
	})
	if err != nil {
		t.Fatal(err)
	}
	if s := in.NodeRateScale(0, 9); s != 1 {
		t.Errorf("scale before fault = %v", s)
	}
	if s := in.NodeRateScale(0, 12); s != 0.5 {
		t.Errorf("scale in single degrade = %v", s)
	}
	if s := in.NodeRateScale(0, 17); s != 0.25 {
		t.Errorf("scale in overlapping degrades = %v, want 0.25", s)
	}
	if s := in.NodeRateScale(1, 22); s != 0 {
		t.Errorf("scale during outage = %v", s)
	}
	if s := in.NodeRateScale(1, 25); s != 1 {
		t.Errorf("scale after outage = %v", s)
	}
	if in.SessionActive(1, 31) {
		t.Error("session 1 active during leave")
	}
	if !in.SessionActive(1, 33) || !in.SessionActive(0, 31) {
		t.Error("wrong session/slot suppressed")
	}
	if d := in.ForwardDelay(0, 1, 41); d != 5 {
		t.Errorf("forward delay = %d, want max overlap 5", d)
	}
	if d := in.ForwardDelay(0, 1, 39); d != 0 {
		t.Errorf("forward delay before fault = %d", d)
	}
	if s := in.RateScaleAt(1, 22.7); s != 0 {
		t.Errorf("continuous-time scale during outage = %v", s)
	}
	if d := in.ExtraDelayAt(0, 1, 40.2); d != 2 {
		t.Errorf("continuous-time extra delay = %v", d)
	}
	if m := in.MinNodeScale(0, 100); m != 0.25 {
		t.Errorf("min node scale = %v, want 0.25", m)
	}
	if m := in.MinNodeScale(1, 100); m != 0 {
		t.Errorf("min node scale with outage = %v, want 0", m)
	}
}

// An outage must stall a fluid server (no service, backlog grows) and
// conservation must survive the whole episode.
func TestFluidOutageConservation(t *testing.T) {
	in, err := FromEvents(1, 1, []Event{{Class: Outage, Node: 0, Start: 2, Duration: 3}})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := fluid.New(fluid.Config{Rate: 1, Phi: []float64{1}, RateFunc: in.RateFunc(0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	for slot := 0; slot < 10; slot++ {
		served, err := sim.Step([]float64{0.5})
		if err != nil {
			t.Fatal(err)
		}
		if slot >= 2 && slot < 5 && served != 0 {
			t.Errorf("slot %d: served %v during outage", slot, served)
		}
		if diff := sim.CumArrival(0) - sim.CumService(0) - sim.Backlog(0); math.Abs(diff) > 1e-9 {
			t.Errorf("slot %d: conservation broken by %v", slot, diff)
		}
	}
	// 3 outage slots of 0.5 each accumulate; the 0.5 load leaves 0.5
	// slack per slot, so the backlog drains by t=10 except the tail.
	if b := sim.Backlog(0); b != 0 {
		t.Errorf("backlog after recovery = %v, want drained", b)
	}
}

// Churn and delayed forwarding must preserve netsim conservation:
// everything that entered is queued, in transit, held, or exited.
func TestNetsimFaultConservation(t *testing.T) {
	in, err := FromEvents(2, 1, []Event{
		{Class: SessionLeave, Session: 0, Start: 5, Duration: 5},
		{Class: ForwardDelay, Session: 0, Start: 12, Duration: 6, Extra: 3},
		{Class: RateDegrade, Node: 1, Start: 20, Duration: 10, Severity: 0.4},
	})
	if err != nil {
		t.Fatal(err)
	}
	dropped := 0.0
	sim, err := netsim.New(netsim.Config{
		Nodes:         []netsim.Node{{Name: "a", Rate: 1}, {Name: "b", Rate: 1}},
		Sessions:      []netsim.SessionSpec{{Name: "s", Route: []int{0, 1}, Phi: []float64{1, 1}}},
		NodeRateScale: in.NodeRateScale,
		SessionActive: in.SessionActive,
		ForwardDelay:  in.ForwardDelay,
		OnDrop:        func(sess, slot int, v float64) { dropped += v },
	})
	if err != nil {
		t.Fatal(err)
	}
	const perSlot = 0.6
	for slot := 0; slot < 40; slot++ {
		if err := sim.Step([]float64{perSlot}); err != nil {
			t.Fatal(err)
		}
		inside := sim.NetworkBacklog(0)
		if diff := sim.EntryCum(0) - sim.ExitCum(0) - inside; math.Abs(diff) > 1e-9 {
			t.Fatalf("slot %d: conservation broken by %v", slot, diff)
		}
	}
	if want := 5 * perSlot; math.Abs(dropped-want) > 1e-12 {
		t.Errorf("dropped %v during churn, want %v", dropped, want)
	}
	if want := 40*perSlot - dropped; math.Abs(sim.EntryCum(0)-want) > 1e-12 {
		t.Errorf("entry cum = %v, want %v", sim.EntryCum(0), want)
	}
}
