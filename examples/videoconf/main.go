// Videoconf: soft-QOS admission control at a GPS link — the paper's
// motivating application (§1): multimedia sessions tolerate a small
// probability of late delivery, so admitting against statistical bounds
// packs far more calls onto a link than hard worst-case bounds allow.
//
// The program keeps admitting videoconference sessions onto a 155-unit
// link as long as every admitted session's statistical delay bound meets
// its target Pr{D >= 20ms} <= 1e-5, and compares the admitted count with
// what peak-rate allocation would permit.
//
//	go run ./examples/videoconf
package main

import (
	"fmt"
	"log"

	"repro/gps"
)

const (
	linkRate   = 155.0 // capacity units per slot (1 slot ~ 1 ms)
	delaySlots = 20.0  // delay target in slots
	epsTarget  = 1e-5  // acceptable violation probability
)

func main() {
	// One videoconference source: on-off with 12-unit peak, 25% duty
	// cycle (mean 3 units/slot), short bursts (mean on-sojourn 1.3 slots).
	mkSource := func(seed uint64) (*gps.OnOff, error) {
		return gps.NewOnOff(0.25, 0.75, 12, seed)
	}
	probe, err := mkSource(1)
	if err != nil {
		log.Fatal(err)
	}
	model, err := probe.Markov()
	if err != nil {
		log.Fatal(err)
	}

	// Characterize at an envelope rate moderately above the mean.
	char, err := model.EBB(4.5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("per-session characterization: %v (mean %.1f, peak %.1f)\n",
		char, probe.MeanRate(), probe.PeakRate())

	// Admit identical sessions one at a time while the statistical delay
	// bound of every session still meets the target.
	admitted := 0
	for n := 1; ; n++ {
		arrivals := make([]gps.EBB, n)
		for i := range arrivals {
			arrivals[i] = char
		}
		srv := gps.NewRPPSServer(linkRate, arrivals, nil)
		if srv.TotalRho() >= linkRate {
			break
		}
		analysis, err := gps.Analyze(srv, gps.Options{Independent: true, Xi: gps.XiOptimal})
		if err != nil {
			log.Fatal(err)
		}
		ok := true
		for i := range srv.Sessions {
			if analysis.PartitionBound(i).DelayTail(delaySlots) > epsTarget {
				ok = false
				break
			}
		}
		if !ok {
			break
		}
		admitted = n
	}

	peakAlloc := int(linkRate / probe.PeakRate())
	meanAlloc := int(linkRate / probe.MeanRate())
	fmt.Printf("\nadmission with statistical GPS bounds: %d sessions\n", admitted)
	fmt.Printf("peak-rate allocation (hard guarantee):  %d sessions\n", peakAlloc)
	fmt.Printf("mean-rate allocation (no guarantee):    %d sessions\n", meanAlloc)
	if admitted <= peakAlloc {
		fmt.Println("warning: expected the statistical gain to beat peak allocation")
	}

	// Spot-check the marginal case by simulation: run the admitted load
	// and measure session 1's delay violations.
	fmt.Printf("\nsimulating %d admitted sessions for 200000 slots...\n", admitted)
	srcs := make([]*gps.OnOff, admitted)
	phi := make([]float64, admitted)
	for i := range srcs {
		srcs[i], err = mkSource(uint64(100 + i))
		if err != nil {
			log.Fatal(err)
		}
		phi[i] = char.Rho
	}
	var violations, samples int
	sim, err := gps.NewFluidSim(gps.FluidConfig{
		Rate: linkRate, Phi: phi,
		OnDelay: func(sess, slot int, d float64) {
			if sess == 0 {
				samples++
				if d >= delaySlots {
					violations++
				}
			}
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := sim.Run(200000, func(i int) float64 { return srcs[i].Next() }); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("session 1: %d/%d delay violations (target probability %.0e)\n",
		violations, samples, epsTarget)
}
