package gps

import (
	"errors"
	"math"
	"testing"
)

func TestAdmissionFacade(t *testing.T) {
	char := EBB{Rho: 0.2, Lambda: 1, Alpha: 1.7}
	tgt := QoSTarget{Delay: 20, Eps: 1e-4}
	g, err := RequiredRate(char, tgt)
	if err != nil {
		t.Fatal(err)
	}
	if g <= char.Rho {
		t.Fatalf("required rate %v", g)
	}
	c, err := NewAdmissionController(1)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for ; ; n++ {
		_, err := c.Admit(AdmissionRequest{Name: "s", Arrival: char, Target: tgt})
		if errors.Is(err, ErrAdmissionRejected) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if n < 1 || c.Utilization() > 1 {
		t.Errorf("admitted %d, utilization %v", n, c.Utilization())
	}

	// The Markov route never demands more rate than the E.B.B. route.
	src, err := NewOnOff(0.4, 0.4, 0.4, 9)
	if err != nil {
		t.Fatal(err)
	}
	m, err := src.Markov()
	if err != nil {
		t.Fatal(err)
	}
	cEBB, err := m.EBBPaper(0.25)
	if err != nil {
		t.Fatal(err)
	}
	gE, err := RequiredRate(cEBB, tgt)
	if err != nil {
		t.Fatal(err)
	}
	gM, err := RequiredRateMarkov(m, tgt)
	if err != nil {
		t.Fatal(err)
	}
	if gM > gE*(1+1e-9) {
		t.Errorf("Markov route rate %v above EBB route %v", gM, gE)
	}
}

func TestClassFacade(t *testing.T) {
	member := EBB{Rho: 0.1, Lambda: 1, Alpha: 2}
	s := ClassServer{
		Rate: 1,
		Classes: []TrafficClass{
			{Name: "a", Phi: 0.4, Members: []EBB{member, member}},
			{Name: "b", Phi: 0.3, Members: []EBB{member, member, member}},
		},
	}
	bounds, err := AnalyzeClasses(s, 0, true, XiOptimal)
	if err != nil {
		t.Fatal(err)
	}
	if len(bounds) != 2 {
		t.Fatalf("%d class bounds", len(bounds))
	}
	sim, err := NewClassSim(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(100, func(m int) float64 { return 0.05 }); err != nil {
		t.Fatal(err)
	}
	if sim.Slot() != 100 {
		t.Errorf("Slot = %d", sim.Slot())
	}
}

func TestPacketFacade(t *testing.T) {
	phi := []float64{1, 1}
	cfg := PacketNetConfig{
		Nodes:  []PacketNetNode{{Name: "a", Rate: 1}, {Name: "b", Rate: 1}},
		Routes: [][]int{{0, 1}, {1}},
		NewScheduler: func(node int) (PacketScheduler, error) {
			return NewWFQ(1, phi)
		},
	}
	comps, err := RunPacketNetwork(cfg, []NetPacket{
		{Session: 0, Size: 1, Release: 0},
		{Session: 1, Size: 0.5, Release: 0.2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(comps) != 2 {
		t.Fatalf("%d completions", len(comps))
	}

	srv := NewRPPSServer(1, []EBB{{Rho: 0.2, Lambda: 1, Alpha: 1.7}, {Rho: 0.3, Lambda: 1, Alpha: 1.5}}, nil)
	a, err := Analyze(srv, Options{Independent: true, Xi: XiOptimal})
	if err != nil {
		t.Fatal(err)
	}
	pb, err := NewPGPSBounds(a.PartitionBound(0), 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if pb.DelayTail(10) < a.PartitionBound(0).DelayTail(10) {
		t.Error("PGPS bound tighter than fluid bound")
	}
}

func TestHierFacade(t *testing.T) {
	member := EBB{Rho: 0.1, Lambda: 1, Alpha: 2}
	s := HierServer{
		Rate: 1,
		Groups: []HierGroup{
			{Name: "a", Phi: 0.5, MemberPhi: []float64{1, 1}, Members: []EBB{member, member}},
			{Name: "b", Phi: 0.5, MemberPhi: []float64{1}, Members: []EBB{member}},
		},
	}
	bounds, err := AnalyzeHierarchy(s, Options{Independent: true, Xi: XiOptimal})
	if err != nil {
		t.Fatal(err)
	}
	if len(bounds) != 2 || len(bounds[0].Bounds) != 2 {
		t.Fatalf("bounds shape: %+v", bounds)
	}
	sim, err := NewHierSim(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(50, func(g, m int) float64 { return 0.05 }); err != nil {
		t.Fatal(err)
	}
	if sim.Slot() != 50 {
		t.Errorf("Slot = %d", sim.Slot())
	}
}

func TestWF2QPolicerPacketizeFacade(t *testing.T) {
	w, err := NewWF2Q(1, []float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	comps, err := SimulatePackets(1, w, []Packet{
		{Session: 0, Size: 1, Arrival: 0},
		{Session: 1, Size: 1, Arrival: 0},
	})
	if err != nil || len(comps) != 2 {
		t.Fatalf("WF2Q simulate: %v, %d", err, len(comps))
	}
	p, err := NewPolicer(CBR{Rate: 0.8}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	c, m := p.NextSplit()
	if c != 0.5 || math.Abs(m-0.3) > 1e-12 {
		t.Errorf("split = (%v, %v)", c, m)
	}
	sizes, slots, err := Packetize([]float64{1.2}, 0.5)
	if err != nil || len(sizes) != 3 || slots[2] != 0 {
		t.Errorf("Packetize: %v %v %v", sizes, slots, err)
	}
}

func TestEffBwFacade(t *testing.T) {
	src, err := NewOnOff(0.4, 0.4, 0.4, 3)
	if err != nil {
		t.Fatal(err)
	}
	model, err := src.Markov()
	if err != nil {
		t.Fatal(err)
	}
	flows := []MarkovEffBwFlow{{Model: model}, {Model: model}}
	q, err := NewFCFSQueueTail(flows, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	if v := q.Eval(5); v <= 0 || v >= 1 {
		t.Errorf("FCFS bound at 5 = %v", v)
	}
	n, err := AdmitFCFS([]EffBwFlow{flows[0], flows[1]}, 1, 10, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Error("no flows admitted")
	}
	tail, err := FCFSQueueTailEBB([]EBB{{Rho: 0.2, Lambda: 1, Alpha: 2}}, 0.5, 1)
	if err != nil || !tail.Valid() {
		t.Errorf("FCFSQueueTailEBB: %v, %v", tail, err)
	}
}

func TestLowLevelHelpers(t *testing.T) {
	p := EBB{Rho: 0.2, Lambda: 1, Alpha: 2}
	if v := SigmaHat(p, 1); !(v > 0) || math.IsInf(v, 1) {
		t.Errorf("SigmaHat = %v", v)
	}
	ps, ceil := HolderExponents([]float64{2, 2})
	if len(ps) != 2 || math.Abs(ceil-1) > 1e-12 {
		t.Errorf("HolderExponents = %v, %v", ps, ceil)
	}
	srv := NewRPPSServer(1, []EBB{p, p}, nil)
	part, err := FeasiblePartitionOf(srv)
	if err != nil {
		t.Fatal(err)
	}
	if part.L() != 1 {
		t.Errorf("partition classes = %d", part.L())
	}
	rates, err := DecomposedRates(srv)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FeasibleOrdering(srv, rates); err != nil {
		t.Fatal(err)
	}
}

func TestConformanceMonitorFacade(t *testing.T) {
	m, err := NewConformanceMonitor(EBB{Rho: 0.3, Lambda: 1, Alpha: 2}, []int{4}, []float64{0.2})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 100; k++ {
		if err := m.Observe(0.25); err != nil {
			t.Fatal(err)
		}
	}
	rs := m.Reports()
	if len(rs) != 1 || rs[0].Violated() {
		t.Errorf("CBR below rho flagged: %+v", rs)
	}
}
