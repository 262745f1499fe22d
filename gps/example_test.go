package gps_test

import (
	"fmt"
	"log"

	"repro/gps"
)

// ExampleAnalyze bounds backlog and delay for two E.B.B. sessions sharing
// a unit-rate GPS link with rate-proportional weights.
func ExampleAnalyze() {
	video := gps.EBB{Rho: 0.25, Lambda: 0.92, Alpha: 1.76}
	voice := gps.EBB{Rho: 0.20, Lambda: 1.00, Alpha: 1.74}
	srv := gps.NewRPPSServer(1.0, []gps.EBB{video, voice}, []string{"video", "voice"})

	a, err := gps.Analyze(srv, gps.Options{Independent: true, Xi: gps.XiOptimal})
	if err != nil {
		log.Fatal(err)
	}
	for i := range srv.Sessions {
		sb := a.PartitionBound(i)
		fmt.Printf("%s: guaranteed rate %.3f, delay with Pr<=1e-6: %.1f slots\n",
			srv.Sessions[i].Name, sb.G, sb.DelayQuantile(1e-6))
	}
	// Output:
	// video: guaranteed rate 0.556, delay with Pr<=1e-6: 15.3 slots
	// voice: guaranteed rate 0.444, delay with Pr<=1e-6: 19.5 slots
}

// ExampleNetwork_RPPSBounds computes Theorem 15's closed-form end-to-end
// bounds for a two-hop session.
func ExampleNetwork_RPPSBounds() {
	char := gps.EBB{Rho: 0.2, Lambda: 1.0, Alpha: 1.74}
	bg := gps.EBB{Rho: 0.5, Lambda: 1.0, Alpha: 1.5}
	net := gps.Network{
		Nodes: []gps.NetNode{{Name: "edge", Rate: 1}, {Name: "core", Rate: 1}},
		Sessions: []gps.NetSession{
			{Name: "flow", Arrival: char, Route: []int{0, 1}, Phi: []float64{0.2, 0.2}},
			{Name: "bg", Arrival: bg, Route: []int{1}, Phi: []float64{0.5}},
		},
	}
	bounds, err := net.RPPSBounds(gps.VariantDiscrete)
	if err != nil {
		log.Fatal(err)
	}
	b := bounds[0]
	fmt.Printf("bottleneck rate %.4f\n", b.GNet)
	fmt.Printf("Pr{end-to-end delay >= 40} <= %.2e\n", b.Delay.Eval(40))
	// Output:
	// bottleneck rate 0.2857
	// Pr{end-to-end delay >= 40} <= 1.67e-08
}

// ExampleNewFluidSim steps the exact fluid GPS simulator by hand.
func ExampleNewFluidSim() {
	sim, err := gps.NewFluidSim(gps.FluidConfig{Rate: 1, Phi: []float64{1, 1}})
	if err != nil {
		log.Fatal(err)
	}
	// One unit for each session at slot 0; the server drains 0.5 each.
	if _, err := sim.Step([]float64{1, 1}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("backlogs after one slot: %.2f %.2f\n", sim.Backlog(0), sim.Backlog(1))
	// Output:
	// backlogs after one slot: 0.50 0.50
}

// ExampleRequiredRate sizes the guaranteed rate an on-off source needs to
// meet a soft delay target, the admission-control primitive.
func ExampleRequiredRate() {
	char := gps.EBB{Rho: 0.25, Lambda: 0.92, Alpha: 1.76}
	g, err := gps.RequiredRate(char, gps.QoSTarget{Delay: 25, Eps: 1e-4})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("required guaranteed rate: %.4f\n", g)
	// Output:
	// required guaranteed rate: 0.2771
}
