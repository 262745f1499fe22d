package gpsmath

import (
	"math"
	"testing"

	"repro/internal/ebb"
	"repro/internal/source"
)

// churnPalette returns the session types the churn tests draw from. The
// ratios ρ/φ straddle the partition thresholds a mid-size population
// produces, so admits and releases move the class boundaries: the
// high-ratio types sit in H_2+ when the population is large (threshold
// r/Σφ small) and migrate into earlier classes as releases shrink Σφ.
// Exact duplicates are common by construction, exercising the
// (ratio, index) tie-break of the ordering comparator.
func churnPalette() []Session {
	return []Session{
		{Name: "bulk", Phi: 1.0, Arrival: ebb.Process{Rho: 0.8, Lambda: 1.0, Alpha: 1.4}},
		{Name: "heavy", Phi: 1.0, Arrival: ebb.Process{Rho: 1.2, Lambda: 0.7, Alpha: 1.1}},
		{Name: "tight", Phi: 0.25, Arrival: ebb.Process{Rho: 1.0, Lambda: 1.3, Alpha: 2.0}},
		{Name: "spiky", Phi: 0.12, Arrival: ebb.Process{Rho: 0.6, Lambda: 0.9, Alpha: 0.8}},
	}
}

// churnSession draws a palette type, sometimes jittered so not every
// ratio collides.
func churnSession(rng *source.RNG) Session {
	s := churnPalette()[rng.Intn(4)]
	if rng.Float64() < 0.3 {
		s.Arrival.Rho *= 0.9 + 0.2*rng.Float64()
		s.Phi *= 0.95 + 0.1*rng.Float64()
	}
	return s
}

// compareStructure pins the delta analysis's ordering, rates, partition
// and session slice to a fresh AnalyzeServer result, element for
// element and bit for bit.
func compareStructure(t *testing.T, tag string, got, want *Analysis) {
	t.Helper()
	if len(got.Server.Sessions) != len(want.Server.Sessions) {
		t.Fatalf("%s: %d sessions vs fresh %d", tag, len(got.Server.Sessions), len(want.Server.Sessions))
	}
	for i := range got.Server.Sessions {
		g, w := got.Server.Sessions[i], want.Server.Sessions[i]
		if g.Name != w.Name || !sameBits(g.Phi, w.Phi) || g.Arrival != w.Arrival {
			t.Fatalf("%s: session %d = %+v, fresh %+v", tag, i, g, w)
		}
	}
	for i := range got.Rates {
		if !sameBits(got.Rates[i], want.Rates[i]) {
			t.Fatalf("%s: rate[%d] = %v (%x), fresh %v (%x)", tag, i,
				got.Rates[i], math.Float64bits(got.Rates[i]),
				want.Rates[i], math.Float64bits(want.Rates[i]))
		}
	}
	for i := range got.Ordering {
		if got.Ordering[i] != want.Ordering[i] {
			t.Fatalf("%s: ordering[%d] = %d, fresh %d (delta %v vs fresh %v)",
				tag, i, got.Ordering[i], want.Ordering[i], got.Ordering, want.Ordering)
		}
	}
	if len(got.Partition.Classes) != len(want.Partition.Classes) {
		t.Fatalf("%s: %d classes, fresh %d", tag, len(got.Partition.Classes), len(want.Partition.Classes))
	}
	for i := range got.Partition.ClassOf {
		if got.Partition.ClassOf[i] != want.Partition.ClassOf[i] {
			t.Fatalf("%s: ClassOf[%d] = %d, fresh %d", tag, i,
				got.Partition.ClassOf[i], want.Partition.ClassOf[i])
		}
	}
	for c := range got.Partition.Classes {
		gc, wc := got.Partition.Classes[c], want.Partition.Classes[c]
		if len(gc) != len(wc) {
			t.Fatalf("%s: class %d has %d members, fresh %d", tag, c, len(gc), len(wc))
		}
		for j := range gc {
			if gc[j] != wc[j] {
				t.Fatalf("%s: class %d member %d = %d, fresh %d", tag, c, j, gc[j], wc[j])
			}
		}
	}
}

// compareBounds pins session i's lazily constructed delta bounds to the
// fresh eager ones: scalar fields and prefactor evaluations bit for
// bit, plus the evaluated tails.
func compareBounds(t *testing.T, tag string, got, want *Analysis, i int) {
	t.Helper()
	pairs := [2][2]*SessionBounds{
		{got.PartitionBound(i), want.Bounds[i]},
		{got.OrderingBound(i), want.OrderingBounds[i]},
	}
	for r, pair := range pairs {
		route := [...]string{"partition", "ordering"}[r]
		db, fb := pair[0], pair[1]
		if db == nil || fb == nil {
			t.Fatalf("%s: session %d %s bound nil (delta %v, fresh %v)", tag, i, route, db == nil, fb == nil)
		}
		if db.Index != fb.Index || db.Name != fb.Name || db.Theorem != fb.Theorem {
			t.Fatalf("%s: session %d %s identity %q/%d/%q, fresh %q/%d/%q",
				tag, i, route, db.Name, db.Index, db.Theorem, fb.Name, fb.Index, fb.Theorem)
		}
		if !sameBits(db.G, fb.G) || !sameBits(db.Rho, fb.Rho) || !sameBits(db.ThetaMax, fb.ThetaMax) {
			t.Fatalf("%s: session %d %s scalars G=%v/%v Rho=%v/%v θmax=%v/%v",
				tag, i, route, db.G, fb.G, db.Rho, fb.Rho, db.ThetaMax, fb.ThetaMax)
		}
		if len(db.Fixed) != len(fb.Fixed) {
			t.Fatalf("%s: session %d %s: %d fixed tails, fresh %d", tag, i, route, len(db.Fixed), len(fb.Fixed))
		}
		for k := range db.Fixed {
			if db.Fixed[k] != fb.Fixed[k] {
				t.Fatalf("%s: session %d %s fixed[%d] = %+v, fresh %+v", tag, i, route, k, db.Fixed[k], fb.Fixed[k])
			}
		}
		for _, theta := range thetaProbe(db.ThetaMax) {
			a, b := db.Prefactor(theta), fb.Prefactor(theta)
			if !sameBits(a, b) {
				t.Fatalf("%s: session %d %s prefactor(%v) = %v (%x), fresh %v (%x)",
					tag, i, route, theta, a, math.Float64bits(a), b, math.Float64bits(b))
			}
		}
	}
	for _, q := range []float64{0.5, 4, 32} {
		if a, b := got.BestBacklogTailValue(i, q), want.BestBacklogTailValue(i, q); !sameBits(a, b) {
			t.Fatalf("%s: session %d BestBacklogTailValue(%v) = %v, fresh %v", tag, i, q, a, b)
		}
		if a, b := got.BestDelayTailValue(i, q), want.BestDelayTailValue(i, q); !sameBits(a, b) {
			t.Fatalf("%s: session %d BestDelayTailValue(%v) = %v, fresh %v", tag, i, q, a, b)
		}
	}
}

// churnStep applies one random op to the analyzer and the mirror
// population, mimicking the daemon's swap-remove discipline. It returns
// the analysis if the op was applied (nil if rejected or emptied).
func churnStep(rng *source.RNG, d *DeltaAnalyzer, mirror *[]Session, nMin, nMax int) (*Analysis, error) {
	n := len(*mirror)
	admit := n < nMin || (n < nMax && rng.Float64() < 0.5)
	if admit {
		s := churnSession(rng)
		an, err := d.Admit(s)
		if err != nil {
			return nil, err
		}
		*mirror = append(*mirror, s)
		return an, nil
	}
	pos := rng.Intn(n)
	an, err := d.Release(pos)
	if err != nil {
		return nil, err
	}
	m := *mirror
	last := len(m) - 1
	m[pos] = m[last]
	*mirror = m[:last]
	return an, nil
}

// TestDeltaAnalyzerMatchesFresh churns a small population and pins every
// epoch the DeltaAnalyzer produces — structure and a full sweep of the
// lazily constructed bounds — to a fresh AnalyzeServer, bit for bit,
// under both theorem families.
func TestDeltaAnalyzerMatchesFresh(t *testing.T) {
	for _, opts := range []Options{
		{Independent: true, Xi: XiOptimal},
		{Independent: false, Xi: XiOne},
	} {
		rate := 40.0
		d, err := NewDeltaAnalyzer(Server{Rate: rate}, opts)
		if err != nil {
			t.Fatal(err)
		}
		rng := source.NewRNG(11)
		var mirror []Session
		steps := 400
		if raceEnabled {
			steps = 160
		}
		if testing.Short() {
			steps = 120
		}
		applied := 0
		for op := 0; op < steps; op++ {
			an, err := churnStep(rng, d, &mirror, 2, 30)
			if err != nil {
				// Rejected op: the analyzer must be unchanged, which the
				// next successful op's comparison verifies.
				continue
			}
			if an == nil {
				continue
			}
			fresh, err := AnalyzeServer(Server{Rate: rate, Sessions: mirror}, opts)
			if err != nil {
				t.Fatalf("op %d: fresh AnalyzeServer: %v", op, err)
			}
			compareStructure(t, "op", an, fresh)
			// A full bound sweep costs two routes, prefactor probes, and
			// six optimized tail evaluations per session, so it runs on a
			// cadence; the rotating sample in between still pins every
			// index many times across the run.
			if applied%16 == 0 {
				for i := range mirror {
					compareBounds(t, "op", an, fresh, i)
				}
			} else {
				for k := 0; k < 2; k++ {
					compareBounds(t, "op", an, fresh, (applied*2+k)%len(mirror))
				}
			}
			applied++
		}
		if d.Stats().OrderRepairs == 0 {
			t.Fatal("churn never took the ordering repair path")
		}
	}
}

// TestDeltaChurnLong is the long seeded differential: 100k+ randomized
// admits and releases with the population swinging across the class
// boundary thresholds, every op structurally compared to a fresh
// analysis and the bound families spot-checked on a sampling cadence.
func TestDeltaChurnLong(t *testing.T) {
	ops := 100_000
	if raceEnabled {
		// The race detector multiplies the per-op structural compare by
		// ~10x; the full 100k-op sweep runs in the default build, the
		// race build keeps the same churn shape at a length that still
		// crosses class boundaries hundreds of times.
		ops = 25_000
	}
	if testing.Short() {
		ops = 10_000
	}
	opts := Options{Independent: true, Xi: XiOptimal}
	rate := 90.0
	d, err := NewDeltaAnalyzer(Server{Rate: rate}, opts)
	if err != nil {
		t.Fatal(err)
	}
	rng := source.NewRNG(20260808)
	var mirror []Session
	maxL := 0
	classFlips := 0
	prevClass := map[string]int{}
	rejected := 0
	for op := 0; op < ops; op++ {
		an, err := churnStep(rng, d, &mirror, 8, 96)
		if err != nil {
			rejected++
			continue
		}
		if an == nil {
			continue
		}
		if L := an.Partition.L(); L > maxL {
			maxL = L
		}
		// Track a fixed palette member's class to witness boundary
		// crossings (shed/degrade transitions downstream).
		for i, s := range an.Server.Sessions {
			if s.Name == "tight" {
				if c, seen := prevClass["tight"]; seen && c != an.Partition.ClassOf[i] {
					classFlips++
				}
				prevClass["tight"] = an.Partition.ClassOf[i]
				break
			}
		}
		fresh, err := AnalyzeServer(Server{Rate: rate, Sessions: mirror}, opts)
		if err != nil {
			t.Fatalf("op %d: fresh AnalyzeServer: %v", op, err)
		}
		compareStructure(t, "op", an, fresh)
		if op%497 == 0 {
			for k := 0; k < 3 && k < len(mirror); k++ {
				compareBounds(t, "op", an, fresh, rng.Intn(len(mirror)))
			}
		}
	}
	if maxL < 2 {
		t.Fatalf("churn never produced a multi-class partition (max L = %d)", maxL)
	}
	if classFlips == 0 {
		t.Fatal("churn never moved a session across a class boundary")
	}
	st := d.Stats()
	if st.OrderRepairs == 0 {
		t.Fatal("long churn never took the ordering repair path")
	}
	t.Logf("ops=%d rejected=%d maxL=%d classFlips=%d stats=%+v", ops, rejected, maxL, classFlips, st)
}

// TestDeltaAnalyzerEdges covers the empty analyzer, rejection of invalid
// sessions, draining to empty, and out-of-range releases.
func TestDeltaAnalyzerEdges(t *testing.T) {
	opts := Options{Independent: true, Xi: XiOptimal}
	d, err := NewDeltaAnalyzer(Server{Rate: 10}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if d.Analysis() != nil || d.Len() != 0 {
		t.Fatal("empty analyzer should have nil analysis")
	}
	if _, err := d.Release(0); err == nil {
		t.Fatal("release on empty analyzer must fail")
	}
	if _, err := d.Admit(Session{Name: "bad", Phi: 0, Arrival: ebb.Process{Rho: 1, Lambda: 1, Alpha: 1}}); err == nil {
		t.Fatal("phi = 0 must be rejected")
	}
	if _, err := d.Admit(Session{Name: "bad", Phi: 1, Arrival: ebb.Process{Rho: -1, Lambda: 1, Alpha: 1}}); err == nil {
		t.Fatal("invalid arrival must be rejected")
	}
	s := churnPalette()[0]
	if _, err := d.Admit(s); err != nil {
		t.Fatalf("first admit: %v", err)
	}
	if d.Len() != 1 || d.Analysis() == nil {
		t.Fatal("admit did not populate the analyzer")
	}
	// Overload: ρ = 11 > slack.
	if _, err := d.Admit(Session{Name: "huge", Phi: 1, Arrival: ebb.Process{Rho: 11, Lambda: 1, Alpha: 1}}); err == nil {
		t.Fatal("overloading admit must be rejected")
	}
	if d.Len() != 1 {
		t.Fatalf("rejected admit changed the population to %d", d.Len())
	}
	an, err := d.Release(0)
	if err != nil || an != nil {
		t.Fatalf("draining release: an=%v err=%v", an, err)
	}
	if d.Len() != 0 || d.Analysis() != nil {
		t.Fatal("analyzer not empty after draining release")
	}
	if _, err := NewDeltaAnalyzer(Server{Rate: 0}, opts); err == nil {
		t.Fatal("rate 0 must be rejected")
	}
}

// FuzzDeltaAnalyzer interleaves admits and releases decoded from the
// fuzz input and asserts bit-identity against fresh AnalyzeServer after
// every op, and of every served Best* value against the unpruned
// best-of-routes oracle.
func FuzzDeltaAnalyzer(f *testing.F) {
	f.Add([]byte{0x01, 0x42, 0x83, 0x10, 0xff, 0x07, 0x20, 0x91})
	f.Add([]byte{0x00, 0x00, 0x00, 0x80, 0x80, 0x80, 0x10, 0x10, 0x10, 0x10})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64 {
			data = data[:64]
		}
		opts := Options{Independent: true, Xi: XiOptimal}
		rate := 30.0
		d, err := NewDeltaAnalyzer(Server{Rate: rate}, opts)
		if err != nil {
			t.Fatal(err)
		}
		var mirror []Session
		palette := churnPalette()
		for _, b := range data {
			var an *Analysis
			if b&0x80 == 0 || len(mirror) == 0 {
				s := palette[int(b>>5)&0x3]
				// Derive a deterministic jitter from the byte so the fuzzer
				// can explore near-collisions of the sort ratios.
				s.Arrival.Rho *= 1 + float64(b&0x1f)/512
				an, err = d.Admit(s)
				if err != nil {
					continue
				}
				mirror = append(mirror, s)
			} else {
				pos := int(b&0x7f) % len(mirror)
				an, err = d.Release(pos)
				if err != nil {
					t.Fatalf("release %d/%d: %v", pos, len(mirror), err)
				}
				last := len(mirror) - 1
				mirror[pos] = mirror[last]
				mirror = mirror[:last]
			}
			if an == nil {
				continue
			}
			fresh, err := AnalyzeServer(Server{Rate: rate, Sessions: mirror}, opts)
			if err != nil {
				t.Fatalf("fresh AnalyzeServer: %v", err)
			}
			compareStructure(t, "fuzz", an, fresh)
			for i := range mirror {
				compareBounds(t, "fuzz", an, fresh, i)
				checkOracle(t, "fuzz", an, i, []float64{0.5, 4, 32}, []float64{0.5, 4, 32})
			}
		}
	})
}
