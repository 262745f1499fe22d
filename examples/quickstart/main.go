// Quickstart: characterize two bursty sources, bound their backlog and
// delay at a shared GPS link, and sanity-check one bound by simulation.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/gps"
)

func main() {
	// Two on-off sources share a unit-rate link. Session A is a bursty
	// video-like flow, session B a smoother voice-like flow.
	videoSrc, err := gps.NewOnOff(0.3, 0.3, 0.9, 1)
	if err != nil {
		log.Fatal(err)
	}
	voiceSrc, err := gps.NewOnOff(0.5, 0.5, 0.3, 2)
	if err != nil {
		log.Fatal(err)
	}

	// Step 1: E.B.B. characterizations from the analytic Markov models.
	video, err := videoSrc.EBB(0.55)
	if err != nil {
		log.Fatal(err)
	}
	voice, err := voiceSrc.EBB(0.20)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("video: %v\nvoice: %v\n", video, voice)

	// Step 2: a GPS server with rate-proportional weights and the
	// paper's statistical bounds.
	srv := gps.NewRPPSServer(1.0, []gps.EBB{video, voice}, []string{"video", "voice"})
	analysis, err := gps.Analyze(srv, gps.Options{Independent: true, Xi: gps.XiOptimal})
	if err != nil {
		log.Fatal(err)
	}
	for i := range srv.Sessions {
		sb := analysis.PartitionBound(i)
		fmt.Printf("%-6s g=%.3f  Pr{Q>=5} <= %.2e  Pr{D>=15} <= %.2e  D(1e-6) <= %.1f slots\n",
			srv.Sessions[i].Name, sb.G, sb.BacklogTail(5), sb.DelayTail(15), sb.DelayQuantile(1e-6))
	}

	// Step 3: validate the video backlog bound against the exact fluid
	// GPS simulator.
	sim, err := gps.NewFluidSim(gps.FluidConfig{Rate: 1, Phi: []float64{video.Rho, voice.Rho}})
	if err != nil {
		log.Fatal(err)
	}
	const (
		slots = 200000
		level = 4.0
	)
	exceed := 0
	arr := make([]float64, 2)
	for k := 0; k < slots; k++ {
		arr[0], arr[1] = videoSrc.Next(), voiceSrc.Next()
		if _, err := sim.Step(arr); err != nil {
			log.Fatal(err)
		}
		if sim.Backlog(0) >= level {
			exceed++
		}
	}
	emp := float64(exceed) / slots
	bound := analysis.PartitionBound(0).BacklogTail(level)
	fmt.Printf("\nsimulated Pr{Q_video >= %.0f} = %.2e, bound %.2e (bound holds: %v)\n",
		level, emp, bound, emp <= bound)
}
