package paper

import (
	"testing"

	"repro/internal/fluid"
	"repro/internal/gpsmath"
	"repro/internal/source"
	"repro/internal/stats"
)

// set1Node builds the Set-1 RPPS single node, its analysis, and fresh
// sources.
func set1Node(t *testing.T, seed uint64) (gpsmath.Server, *gpsmath.Analysis, []*source.OnOff) {
	t.Helper()
	chars, err := Table2(Set1Rho)
	if err != nil {
		t.Fatal(err)
	}
	srv := gpsmath.NewRPPSServer(1, chars, nil)
	a, err := gpsmath.AnalyzeServer(srv, gpsmath.Options{Independent: true, Xi: gpsmath.XiOptimal})
	if err != nil {
		t.Fatal(err)
	}
	srcs, err := Sources(seed)
	if err != nil {
		t.Fatal(err)
	}
	return srv, a, srcs
}

// The input-output relation (Theorem 7/11, eq. 25/53): the departure
// process of each session is an E.B.B. process with the computed
// characterization. We verify it on simulated departures.
func TestOutputEBBHoldsOnDepartures(t *testing.T) {
	srv, a, srcs := set1Node(t, 4242)
	phi := make([]float64, 4)
	for i, s := range srv.Sessions {
		phi[i] = s.Phi
	}
	sim, err := fluid.New(fluid.Config{Rate: 1, Phi: phi})
	if err != nil {
		t.Fatal(err)
	}
	const slots = 300000
	departures := make([][]float64, 4)
	for i := range departures {
		departures[i] = make([]float64, 0, slots)
	}
	prev := make([]float64, 4)
	arr := make([]float64, 4)
	for k := 0; k < slots; k++ {
		for i := range arr {
			arr[i] = srcs[i].Next()
		}
		if _, err := sim.Step(arr); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			cum := sim.CumService(i)
			departures[i] = append(departures[i], cum-prev[i])
			prev[i] = cum
		}
	}
	for i := 0; i < 4; i++ {
		sb := a.PartitionBound(i)
		out, err := sb.OutputEBB(sb.ThetaMax / 2)
		if err != nil {
			t.Fatal(err)
		}
		worst, err := source.VerifyEBB(departures[i], out, []int{1, 4, 16, 64}, []float64{0.2, 0.5, 1.0})
		if err != nil {
			t.Fatal(err)
		}
		if worst > 1.05 {
			t.Errorf("session %d: departure E.B.B. %v violated empirically (ratio %v)", i+1, out, worst)
		}
	}
}

// The paper's §7 asks how the bound's decay rate compares with the
// session's actual backlog decay rate. For H_1 sessions the bound decays
// at α_i (Theorem 10); the measured decay rate must be at least that.
func TestBacklogDecayRateDominatesBound(t *testing.T) {
	srv, _, srcs := set1Node(t, 777)
	phi := make([]float64, 4)
	for i, s := range srv.Sessions {
		phi[i] = s.Phi
	}
	sim, err := fluid.New(fluid.Config{Rate: 1, Phi: phi})
	if err != nil {
		t.Fatal(err)
	}
	tails := make([]*stats.Tail, 4)
	for i := range tails {
		tails[i] = &stats.Tail{}
	}
	arr := make([]float64, 4)
	for k := 0; k < 400000; k++ {
		for i := range arr {
			arr[i] = srcs[i].Next()
		}
		if _, err := sim.Step(arr); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			tails[i].Add(sim.Backlog(i))
		}
	}
	for i := 0; i < 4; i++ {
		fitted, err := tails[i].FitDecayRate(0.9, 0.9999)
		if err != nil {
			t.Fatalf("session %d: %v", i+1, err)
		}
		alpha := srv.Sessions[i].Arrival.Alpha
		// The bound's decay rate must not exceed the measured one
		// (10% estimation slack).
		if fitted < 0.9*alpha {
			t.Errorf("session %d: measured decay rate %v below bound rate %v", i+1, fitted, alpha)
		}
	}
}

// End-to-end conservation of characterizations through a full analysis:
// feeding a session's *output* E.B.B. into a fresh downstream server must
// produce finite bounds (the recursion the CRST machinery relies on).
func TestOutputFeedsDownstreamAnalysis(t *testing.T) {
	_, a, _ := set1Node(t, 5)
	outs := make([]struct {
		p   gpsmath.Session
		err error
	}, 4)
	srv2 := gpsmath.Server{Rate: 1}
	for i := range a.Server.Sessions {
		sb := a.PartitionBound(i)
		out, err := sb.OutputEBB(sb.ThetaMax / 2)
		outs[i].err = err
		if err != nil {
			t.Fatal(err)
		}
		srv2.Sessions = append(srv2.Sessions, gpsmath.Session{
			Name: "down", Phi: out.Rho, Arrival: out,
		})
	}
	a2, err := gpsmath.AnalyzeServer(srv2, gpsmath.Options{Independent: false, Xi: gpsmath.XiOptimal})
	if err != nil {
		t.Fatal(err)
	}
	for i := range srv2.Sessions {
		if v := a2.PartitionBound(i).BacklogTail(200); v > 1e-3 {
			t.Errorf("downstream session %d: bound at 200 = %v (not decaying)", i, v)
		}
	}
}
