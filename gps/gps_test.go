package gps

import (
	"math"
	"testing"
)

// TestSingleNodeWorkflow walks the full single-node user journey through
// the public API only: characterize sources, build a server, analyze,
// query bounds, and validate against simulation.
func TestSingleNodeWorkflow(t *testing.T) {
	// Characterize a two-state on-off source analytically.
	src, err := NewOnOff(0.4, 0.4, 0.4, 1)
	if err != nil {
		t.Fatal(err)
	}
	model, err := src.Markov()
	if err != nil {
		t.Fatal(err)
	}
	char, err := model.EBB(0.25)
	if err != nil {
		t.Fatal(err)
	}
	if err := char.Validate(); err != nil {
		t.Fatal(err)
	}

	// Fit another characterization empirically from a trace.
	src2, err := NewOnOff(0.3, 0.7, 0.5, 2)
	if err != nil {
		t.Fatal(err)
	}
	trace := Record(src2, 200000)
	fitted, err := FitEBB(trace, 0.2, []int{4, 8, 16, 32})
	if err != nil {
		t.Fatal(err)
	}
	worst, err := VerifyEBB(trace, fitted, []int{4, 16}, []float64{0.3, 0.8})
	if err != nil {
		t.Fatal(err)
	}
	if worst > 1+1e-9 {
		t.Errorf("fitted envelope violated: ratio %v", worst)
	}

	// Analyze a two-session RPPS server.
	srv := NewRPPSServer(1, []EBB{char, fitted}, []string{"video", "voice"})
	analysis, err := Analyze(srv, Options{Independent: true, Xi: XiOptimal})
	if err != nil {
		t.Fatal(err)
	}
	for i := range srv.Sessions {
		sb := analysis.PartitionBound(i)
		if v := sb.DelayTail(30); v > 0.05 {
			t.Errorf("session %d: delay bound at 30 = %v, want small", i, v)
		}
		if q := sb.DelayQuantile(1e-6); math.IsInf(q, 1) {
			t.Errorf("session %d: no finite delay quantile", i)
		}
	}

	// Validate by simulation: simulated backlog CCDF below the bound.
	phi := []float64{srv.Sessions[0].Phi, srv.Sessions[1].Phi}
	sim, err := NewFluidSim(FluidConfig{Rate: 1, Phi: phi})
	if err != nil {
		t.Fatal(err)
	}
	exceed := 0
	total := 0
	const level = 3.0
	genA, _ := NewOnOff(0.4, 0.4, 0.4, 11)
	genB, _ := NewOnOff(0.3, 0.7, 0.5, 12)
	arr := make([]float64, 2)
	for k := 0; k < 100000; k++ {
		arr[0], arr[1] = genA.Next(), genB.Next()
		if _, err := sim.Step(arr); err != nil {
			t.Fatal(err)
		}
		total++
		if sim.Backlog(0) >= level {
			exceed++
		}
	}
	emp := float64(exceed) / float64(total)
	bound := analysis.PartitionBound(0).BacklogTail(level)
	if emp > bound*1.2+1e-6 {
		t.Errorf("simulated Pr{Q>=%v} = %v above bound %v", level, emp, bound)
	}
}

// TestNetworkWorkflow exercises the network API: RPPS closed form and the
// CRST recursion.
func TestNetworkWorkflow(t *testing.T) {
	a := EBB{Rho: 0.2, Lambda: 1, Alpha: 1.7}
	b := EBB{Rho: 0.3, Lambda: 1, Alpha: 1.4}
	net := Network{
		Nodes: []NetNode{{Name: "ingress", Rate: 1}, {Name: "core", Rate: 1}},
		Sessions: []NetSession{
			{Name: "a", Arrival: a, Route: []int{0, 1}, Phi: []float64{0.2, 0.2}},
			{Name: "b", Arrival: b, Route: []int{1}, Phi: []float64{0.3}},
		},
	}
	if err := net.Validate(); err != nil {
		t.Fatal(err)
	}
	bounds, err := net.RPPSBounds(VariantDiscrete)
	if err != nil {
		t.Fatal(err)
	}
	for i, nb := range bounds {
		if !nb.Delay.Valid() {
			t.Errorf("session %d: invalid delay tail", i)
		}
	}
	crst, err := net.AnalyzeCRST(CRSTOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := crst.EndToEndDelayTail(0)(500); got > 1e-3 {
		t.Errorf("end-to-end bound at 500 = %v", got)
	}
}

// TestPacketWorkflow exercises the packetized API.
func TestPacketWorkflow(t *testing.T) {
	w, err := NewWFQ(1, []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	pkts := []Packet{
		{Session: 0, Size: 1, Arrival: 0},
		{Session: 1, Size: 1, Arrival: 0},
	}
	comps, err := SimulatePackets(1, w, pkts)
	if err != nil {
		t.Fatal(err)
	}
	if len(comps) != 2 {
		t.Fatalf("%d completions", len(comps))
	}
	if _, err := SimulatePackets(1, NewFCFS(), pkts); err != nil {
		t.Fatal(err)
	}
	d, err := NewDRR([]float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SimulatePackets(1, d, pkts); err != nil {
		t.Fatal(err)
	}
}

// TestDeterministicBaseline exercises the leaky-bucket API.
func TestDeterministicBaseline(t *testing.T) {
	src, err := NewOnOff(0.3, 0.3, 1.0, 5)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := NewShaper(src, 2, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	trace := Record(sh, 20000)
	sigma := MinSigma(trace, 0.6)
	if sigma > 2+0.6+1e-9 {
		t.Errorf("MinSigma = %v, want <= 2.6", sigma)
	}
	det, err := DetSingleNodeBounds(1, []float64{0.6, 0.3}, []Envelope{
		{Sigma: 2.6, Rho: 0.6}, {Sigma: 1, Rho: 0.3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if det[0].Backlog < 2.6 {
		t.Errorf("det backlog bound %v below sigma", det[0].Backlog)
	}
	nb, err := DetRPPSNetworkBound(Envelope{Sigma: 2.6, Rho: 0.6}, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if nb.Backlog != 2.6 {
		t.Errorf("network det bound %v", nb.Backlog)
	}
}

// TestAggregateEBB smoke-tests flow aggregation through the facade.
func TestAggregateEBB(t *testing.T) {
	agg, err := AggregateEBB([]EBB{
		{Rho: 0.1, Lambda: 1, Alpha: 2},
		{Rho: 0.2, Lambda: 0.9, Alpha: 1.5},
	}, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(agg.Rho-0.3) > 1e-12 || agg.Alpha != 0.8 {
		t.Errorf("aggregate = %+v", agg)
	}
}
