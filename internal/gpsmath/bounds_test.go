package gpsmath

import (
	"errors"
	"math"
	"testing"

	"repro/internal/ebb"
)

func set1Server(t *testing.T) Server {
	t.Helper()
	srv := NewRPPSServer(1, paperSet1(), nil)
	if err := srv.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return srv
}

// Theorem 7 with ξ = 1 must reproduce eq. (26) literally.
func TestTheorem7MatchesEq26(t *testing.T) {
	srv := set1Server(t)
	rates, err := srv.DecomposedRates()
	if err != nil {
		t.Fatal(err)
	}
	ord, err := srv.FeasibleOrdering(rates)
	if err != nil {
		t.Fatal(err)
	}
	for pos := range ord {
		sb, err := srv.Theorem7(ord, rates, pos, XiOne)
		if err != nil {
			t.Fatalf("Theorem7(pos=%d): %v", pos, err)
		}
		i := ord[pos]
		sess := srv.Sessions[i]
		tailPhi := 0.0
		for _, j := range ord[pos:] {
			tailPhi += srv.Sessions[j].Phi
		}
		psi := sess.Phi / tailPhi
		for _, theta := range []float64{0.1, 0.4, 0.8} {
			// Literal eq. (26).
			num := sess.Arrival.SigmaHat(theta) + sess.Arrival.Rho
			den := 1 - math.Exp(-theta*(rates[i]-sess.Arrival.Rho))
			valid := true
			for _, j := range ord[:pos] {
				a := srv.Sessions[j].Arrival
				if psi*theta >= a.Alpha {
					valid = false
					break
				}
				num += psi * (a.SigmaHat(psi*theta) + a.Rho)
				den *= 1 - math.Exp(-psi*theta*(rates[j]-a.Rho))
			}
			if !valid || theta >= sess.Arrival.Alpha {
				continue
			}
			want := math.Exp(theta*num) / den
			got := sb.PrefactorAt(theta)
			if math.Abs(got-want) > 1e-9*want {
				t.Errorf("pos %d theta %v: prefactor %v, want eq.(26) value %v", pos, theta, got, want)
			}
		}
	}
}

func TestTheorem7XiOptimalNeverWorse(t *testing.T) {
	srv := set1Server(t)
	rates, _ := srv.DecomposedRates()
	ord, _ := srv.FeasibleOrdering(rates)
	for pos := range ord {
		one, _ := srv.Theorem7(ord, rates, pos, XiOne)
		opt, _ := srv.Theorem7(ord, rates, pos, XiOptimal)
		for k := 1; k < 20; k++ {
			theta := one.ThetaMax * float64(k) / 20
			a, b := opt.PrefactorAt(theta), one.PrefactorAt(theta)
			if math.IsInf(b, 1) {
				continue
			}
			if a > b*(1+1e-9) {
				t.Errorf("pos %d theta %v: optimal-xi prefactor %v > xi=1 prefactor %v", pos, theta, a, b)
			}
		}
	}
}

func TestTheorem7FirstPositionIgnoresOthers(t *testing.T) {
	// The first session of a feasible ordering sees no cross terms: its
	// prefactor must equal the bare Lemma 6 bound for its own queue.
	srv := set1Server(t)
	rates, _ := srv.DecomposedRates()
	ord, _ := srv.FeasibleOrdering(rates)
	sb, _ := srv.Theorem7(ord, rates, 0, XiOne)
	i := ord[0]
	a := srv.Sessions[i].Arrival
	theta := 0.5
	want := a.DeltaMGFBound(theta, rates[i], 1)
	if got := sb.PrefactorAt(theta); math.Abs(got-want) > 1e-12*want {
		t.Errorf("prefactor = %v, want bare Lemma 6 value %v", got, want)
	}
}

func TestTheorem7Errors(t *testing.T) {
	srv := set1Server(t)
	rates, _ := srv.DecomposedRates()
	ord, _ := srv.FeasibleOrdering(rates)
	if _, err := srv.Theorem7(ord, rates, -1, XiOne); err == nil {
		t.Error("negative position: want error")
	}
	if _, err := srv.Theorem7(ord, rates, len(ord), XiOne); err == nil {
		t.Error("position past end: want error")
	}
}

func TestBacklogTailProperties(t *testing.T) {
	srv := set1Server(t)
	rates, _ := srv.DecomposedRates()
	ord, _ := srv.FeasibleOrdering(rates)
	sb, _ := srv.Theorem7(ord, rates, len(ord)-1, XiOptimal)

	prev := 1.0
	for q := 0.0; q <= 30; q += 0.5 {
		v := sb.BacklogTail(q)
		if v < 0 || v > 1 {
			t.Fatalf("BacklogTail(%v) = %v outside [0,1]", q, v)
		}
		if v > prev+1e-12 {
			t.Fatalf("BacklogTail not monotone at q=%v: %v > %v", q, v, prev)
		}
		prev = v
	}
	// Delay bound is the backlog bound at q = g·d.
	d := 7.0
	if got, want := sb.DelayTail(d), sb.BacklogTail(sb.G*d); math.Abs(got-want) > 1e-12 {
		t.Errorf("DelayTail(%v) = %v, want BacklogTail(g·d) = %v", d, got, want)
	}
}

func TestBacklogQuantileInvertsBound(t *testing.T) {
	srv := set1Server(t)
	a, err := AnalyzeServer(srv, Options{Independent: true, Xi: XiOptimal})
	if err != nil {
		t.Fatal(err)
	}
	sb := a.PartitionBound(0)
	for _, eps := range []float64{1e-2, 1e-4, 1e-6} {
		q := sb.BacklogQuantile(eps)
		if math.IsInf(q, 1) {
			t.Fatalf("BacklogQuantile(%v) infinite", eps)
		}
		// The bound at the quantile must be at most eps (up to numerics).
		if v := sb.BacklogTail(q * (1 + 1e-9)); v > eps*(1+1e-6) {
			t.Errorf("bound at quantile(%v) = %v, want <= eps", eps, v)
		}
		if d := sb.DelayQuantile(eps); math.Abs(d-q/sb.G) > 1e-9*d {
			t.Errorf("DelayQuantile = %v, want q/g = %v", d, q/sb.G)
		}
	}
}

func TestTheorem8NotLooserThanPaperEq36(t *testing.T) {
	srv := set1Server(t)
	rates, _ := srv.DecomposedRates()
	ord, _ := srv.FeasibleOrdering(rates)
	for pos := 1; pos < len(ord); pos++ {
		alphas := make([]float64, 0, pos+1)
		for _, j := range ord[:pos] {
			alphas = append(alphas, srv.Sessions[j].Arrival.Alpha)
		}
		alphas = append(alphas, srv.Sessions[ord[pos]].Arrival.Alpha)
		ps, _ := ebb.HolderExponents(alphas)
		sb, err := srv.Theorem8(ord, rates, pos, ps, XiOne)
		if err != nil {
			t.Fatalf("Theorem8(pos=%d): %v", pos, err)
		}
		for k := 1; k < 10; k++ {
			theta := sb.ThetaMax * float64(k) / 10
			got := sb.PrefactorAt(theta)
			paper := srv.Theorem8PaperPrefactor(ord, rates, pos, ps, theta)
			if math.IsInf(paper, 1) {
				continue
			}
			if got > paper*(1+1e-9) {
				t.Errorf("pos %d theta %v: exact Hölder %v > paper eq.(36) %v", pos, theta, got, paper)
			}
		}
	}
}

func TestTheorem8FirstPositionEqualsTheorem7(t *testing.T) {
	srv := set1Server(t)
	rates, _ := srv.DecomposedRates()
	ord, _ := srv.FeasibleOrdering(rates)
	t7, _ := srv.Theorem7(ord, rates, 0, XiOne)
	t8, err := srv.Theorem8(ord, rates, 0, nil, XiOne)
	if err != nil {
		t.Fatalf("Theorem8: %v", err)
	}
	for _, theta := range []float64{0.2, 0.5, 1.0} {
		a, b := t7.PrefactorAt(theta), t8.PrefactorAt(theta)
		if math.IsInf(a, 1) && math.IsInf(b, 1) {
			continue
		}
		if math.Abs(a-b) > 1e-9*a {
			t.Errorf("theta %v: thm7 %v != thm8 (single term) %v", theta, a, b)
		}
	}
}

func TestTheorem8HolderCeilingBelowTheorem7(t *testing.T) {
	// Dependence costs decay rate: the Hölder θ ceiling must be below the
	// independent one for positions past the first.
	srv := set1Server(t)
	rates, _ := srv.DecomposedRates()
	ord, _ := srv.FeasibleOrdering(rates)
	pos := len(ord) - 1
	t7, _ := srv.Theorem7(ord, rates, pos, XiOne)
	t8, _ := srv.Theorem8(ord, rates, pos, nil, XiOne)
	if !(t8.ThetaMax < t7.ThetaMax) {
		t.Errorf("Hölder ThetaMax %v not below independent %v", t8.ThetaMax, t7.ThetaMax)
	}
}

func TestTheorem8BadExponents(t *testing.T) {
	srv := set1Server(t)
	rates, _ := srv.DecomposedRates()
	ord, _ := srv.FeasibleOrdering(rates)
	if _, err := srv.Theorem8(ord, rates, 1, []float64{2}, XiOne); err == nil {
		t.Error("wrong exponent count: want error")
	}
	if _, err := srv.Theorem8(ord, rates, 1, []float64{0.5, 2}, XiOne); err == nil {
		t.Error("exponent <= 1: want error")
	}
	if _, err := srv.Theorem8(ord, rates, 1, []float64{3, 3}, XiOne); err == nil {
		t.Error("reciprocals not summing to 1: want error")
	}
}

func TestTheorem10RPPSAllSessions(t *testing.T) {
	srv := set1Server(t)
	p, err := srv.FeasiblePartition()
	if err != nil {
		t.Fatal(err)
	}
	for i := range srv.Sessions {
		tail, err := srv.Theorem10(p, i)
		if err != nil {
			t.Fatalf("Theorem10(%d): %v", i, err)
		}
		if !tail.Valid() {
			t.Errorf("session %d: invalid tail %v", i, tail)
		}
		// Theorem 10 decays at the full source rate α_i.
		if tail.Rate != srv.Sessions[i].Arrival.Alpha {
			t.Errorf("session %d: tail rate %v, want alpha %v", i, tail.Rate, srv.Sessions[i].Arrival.Alpha)
		}
	}
}

func TestTheorem10RejectsHigherClasses(t *testing.T) {
	srv := mixedServer()
	p, _ := srv.FeasiblePartition()
	if _, err := srv.Theorem10(p, 1); err == nil {
		t.Error("Theorem10 on H_2 session: want error")
	}
}

func TestTheorem11MatchesEq54(t *testing.T) {
	srv := mixedServer()
	p, _ := srv.FeasiblePartition()
	sb, err := srv.Theorem11(p, 1, XiOne) // session in H_2
	if err != nil {
		t.Fatalf("Theorem11: %v", err)
	}
	for _, theta := range []float64{0.1, 0.3, 0.6} {
		if theta >= sb.ThetaMax {
			continue
		}
		want := srv.Theorem11PaperPrefactor(p, 1, theta)
		got := sb.PrefactorAt(theta)
		if math.Abs(got-want) > 1e-9*want {
			t.Errorf("theta %v: prefactor %v, want eq.(54) value %v", theta, got, want)
		}
	}
}

func TestTheorem11ClassGeometry(t *testing.T) {
	srv := mixedServer()
	p, _ := srv.FeasiblePartition()
	geo := srv.classGeometry(p, 1)
	// Session b: ψ = φ_b/φ_b = 1 (only session outside H_1);
	// gEff = 1·(1 - ρ_a) = 0.9; eps budget = 0.9 - 0.4 = 0.5.
	if math.Abs(geo.psi-1) > 1e-12 || math.Abs(geo.gEff-0.9) > 1e-12 || math.Abs(geo.epsBudget-0.5) > 1e-12 {
		t.Errorf("geometry = %+v, want psi=1 gEff=0.9 eps=0.5", geo)
	}
	// H_1 session: gEff equals the global guaranteed rate.
	geoA := srv.classGeometry(p, 0)
	if math.Abs(geoA.gEff-srv.GuaranteedRate(0)) > 1e-12 {
		t.Errorf("H_1 gEff = %v, want global g = %v", geoA.gEff, srv.GuaranteedRate(0))
	}
}

func TestTheorem12SingleClassEqualsTheorem11(t *testing.T) {
	srv := mixedServer()
	p, _ := srv.FeasiblePartition()
	t11, _ := srv.Theorem11(p, 0, XiOne)
	t12, err := srv.Theorem12(p, 0, nil, XiOne)
	if err != nil {
		t.Fatalf("Theorem12: %v", err)
	}
	for _, theta := range []float64{0.3, 0.8, 1.5} {
		a, b := t11.PrefactorAt(theta), t12.PrefactorAt(theta)
		if math.IsInf(a, 1) && math.IsInf(b, 1) {
			continue
		}
		if math.Abs(a-b) > 1e-9*a {
			t.Errorf("theta %v: thm11 %v != thm12 %v for H_1 session", theta, a, b)
		}
	}
}

func TestTheorem12BadExponents(t *testing.T) {
	srv := mixedServer()
	p, _ := srv.FeasiblePartition()
	if _, err := srv.Theorem12(p, 1, []float64{2, 2, 2}, XiOne); err == nil {
		t.Error("wrong count: want error")
	}
	if _, err := srv.Theorem12(p, 1, []float64{0.2, 1.25}, XiOne); err == nil {
		t.Error("exponent < 1: want error")
	}
}

func TestAnalyzeServerRPPS(t *testing.T) {
	srv := set1Server(t)
	a, err := AnalyzeServer(srv, Options{Independent: true, Xi: XiOptimal})
	if err != nil {
		t.Fatalf("AnalyzeServer: %v", err)
	}
	if a.Partition.L() != 1 {
		t.Errorf("partition classes = %d, want 1", a.Partition.L())
	}
	for i := range srv.Sessions {
		sb := a.PartitionBound(i)
		if len(sb.Fixed) == 0 {
			t.Errorf("session %d: RPPS session missing Theorem 10 fixed tail", i)
		}
		if sb.Index != i {
			t.Errorf("PartitionBound(%d).Index = %d", i, sb.Index)
		}
		ob := a.OrderingBound(i)
		if ob == nil || ob.Index != i {
			t.Errorf("OrderingBound(%d) misaligned", i)
		}
		// Combined best bound behaves like a tail.
		if v := a.BestDelayTailValue(i, 0); v != 1 && v > 1 {
			t.Errorf("best delay bound at 0 = %v, want <= 1", v)
		}
		if v := a.BestDelayTailValue(i, 40); v > 1e-4 {
			t.Errorf("best delay bound at 40 = %v, want tiny", v)
		}
	}
}

func TestAnalyzeServerDependent(t *testing.T) {
	srv := set1Server(t)
	a, err := AnalyzeServer(srv, Options{Independent: false, Xi: XiOne})
	if err != nil {
		t.Fatalf("AnalyzeServer: %v", err)
	}
	// Dependence must not yield better (smaller) bounds than independence.
	ai, err := AnalyzeServer(srv, Options{Independent: true, Xi: XiOne})
	if err != nil {
		t.Fatal(err)
	}
	for i := range srv.Sessions {
		depB, indB := a.OrderingBound(i), ai.OrderingBound(i)
		for _, q := range []float64{2, 5, 10} {
			dep := depB.BacklogTail(q)
			ind := indB.BacklogTail(q)
			if ind > dep*(1+1e-9) {
				t.Errorf("session %d q=%v: independent bound %v worse than dependent %v", i, q, ind, dep)
			}
		}
	}
}

func TestAnalyzeServerRejectsInvalid(t *testing.T) {
	srv := NewRPPSServer(0.5, paperSet1(), nil) // overloaded
	if _, err := AnalyzeServer(srv, Options{Independent: true}); err == nil {
		t.Error("overloaded server: want error")
	}
}

func TestAdmissionDecision(t *testing.T) {
	srv := set1Server(t)
	a, err := AnalyzeServer(srv, Options{Independent: true, Xi: XiOptimal})
	if err != nil {
		t.Fatal(err)
	}
	n := len(srv.Sessions)
	loose := make([]float64, n)
	eps := make([]float64, n)
	for i := range loose {
		loose[i] = 200
		eps[i] = 1e-6
	}
	if ok, _, err := a.AdmissionDecision(loose, eps); err != nil {
		t.Fatal(err)
	} else if !ok {
		t.Error("very loose delay targets rejected")
	}
	tight := make([]float64, n)
	for i := range tight {
		tight[i] = 1e-3
	}
	if ok, _, err := a.AdmissionDecision(tight, eps); err != nil {
		t.Fatal(err)
	} else if ok {
		t.Error("impossibly tight delay targets admitted")
	}
	unconstrained := make([]float64, n)
	for i := range unconstrained {
		unconstrained[i] = math.Inf(1)
	}
	ok, probs, err := a.AdmissionDecision(unconstrained, eps)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("unconstrained sessions rejected")
	}
	for i, p := range probs {
		if p != 0 {
			t.Errorf("probs[%d] = %v, want 0 for unconstrained", i, p)
		}
	}
}

func TestOutputEBB(t *testing.T) {
	srv := set1Server(t)
	a, _ := AnalyzeServer(srv, Options{Independent: true, Xi: XiOptimal})
	sb := a.PartitionBound(2)
	theta := sb.ThetaMax / 2
	out, err := sb.OutputEBB(theta)
	if err != nil {
		t.Fatalf("OutputEBB: %v", err)
	}
	if out.Rho != sb.Rho || out.Alpha != theta {
		t.Errorf("OutputEBB = %v, want rho %v alpha %v", out, sb.Rho, theta)
	}
	if err := out.Validate(); err != nil {
		t.Errorf("output process invalid: %v", err)
	}
	if _, err := sb.OutputEBB(sb.ThetaMax * 2); err == nil {
		t.Error("theta above ceiling: want error")
	}

	best, err := sb.BestOutputEBB(0.5)
	if err != nil {
		t.Fatalf("BestOutputEBB: %v", err)
	}
	if err := best.Validate(); err != nil {
		t.Errorf("best output invalid: %v", err)
	}
}

func TestXiModeString(t *testing.T) {
	if XiOne.String() != "xi-1" || XiOptimal.String() != "xi-optimal" {
		t.Error("XiMode String mismatch")
	}
}

func TestPartitionRouteBeatsOrderingRouteForLastSession(t *testing.T) {
	// Under RPPS every session is in H_1, so the partition route gives a
	// Theorem 10 tail decaying at rate α_i, while the ordering route's
	// last session decays no faster than min_j α_j — partition must win
	// for large q.
	srv := set1Server(t)
	a, _ := AnalyzeServer(srv, Options{Independent: true, Xi: XiOptimal})
	last := a.Ordering[len(a.Ordering)-1]
	q := 60.0
	pv := a.PartitionBound(last).BacklogTail(q)
	ov := a.OrderingBound(last).BacklogTail(q)
	if pv > ov {
		t.Errorf("partition bound %v worse than ordering bound %v at q=%v", pv, ov, q)
	}
}

func TestAdmissionDecisionDimensionError(t *testing.T) {
	srv := set1Server(t)
	a, err := AnalyzeServer(srv, Options{Independent: true, Xi: XiOptimal})
	if err != nil {
		t.Fatal(err)
	}
	n := len(srv.Sessions)
	good := make([]float64, n)
	for i := range good {
		good[i] = 100
	}
	short := good[:n-1]
	for _, tc := range [][2][]float64{{short, good}, {good, short}, {nil, good}} {
		_, _, err := a.AdmissionDecision(tc[0], tc[1])
		var dim *DimensionError
		if !errors.As(err, &dim) {
			t.Fatalf("dmax len %d, eps len %d: error %v, want *DimensionError", len(tc[0]), len(tc[1]), err)
		}
		if dim.Sessions != n || dim.Dmax != len(tc[0]) || dim.Eps != len(tc[1]) {
			t.Errorf("DimensionError = %+v, want sessions %d, dmax %d, eps %d", dim, n, len(tc[0]), len(tc[1]))
		}
		if !errors.Is(err, ErrInvalidInput) {
			t.Errorf("dimension error does not wrap ErrInvalidInput: %v", err)
		}
	}
}
