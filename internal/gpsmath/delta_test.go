package gpsmath

import (
	"fmt"
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
	// The memos every bound is built from, bit for bit: a fold that
	// drifts by an ulp or a stale slot in a recycled buffer shows here
	// even where no sampled bound would move.
	for _, f := range []struct {
		name      string
		got, want []float64
	}{
		{"totalPhi (ordering memo)", []float64{got.om.totalPhi}, []float64{want.om.totalPhi}},
		{"totalPhi (partition memo)", []float64{got.pm.totalPhi}, []float64{want.pm.totalPhi}},
		{"tailPhi", got.om.tailPhi, want.om.tailPhi},
		{"preMinA", got.om.preMinA, want.om.preMinA},
		{"preInvA", got.om.preInvA, want.om.preInvA},
		{"classRho", got.pm.classRho, want.pm.classRho},
		{"classPhi", got.pm.classPhi, want.pm.classPhi},
		{"classMinA", got.pm.classMinA, want.pm.classMinA},
		{"earlierRho", got.pm.earlierRho, want.pm.earlierRho},
		{"laterPhi", got.pm.laterPhi, want.pm.laterPhi},
		{"preMinClassA", got.pm.preMinClassA, want.pm.preMinClassA},
		{"preInvClassA", got.pm.preInvClassA, want.pm.preInvClassA},
	} {
		if len(f.got) != len(f.want) {
			t.Fatalf("%s: %s has %d entries, fresh %d", tag, f.name, len(f.got), len(f.want))
		}
		for k := range f.got {
			if !sameBits(f.got[k], f.want[k]) {
				t.Fatalf("%s: %s[%d] = %v (%x), fresh %v (%x)", tag, f.name, k,
					f.got[k], math.Float64bits(f.got[k]), f.want[k], math.Float64bits(f.want[k]))
			}
		}
	}
	if len(got.posOf) != len(want.posOf) {
		t.Fatalf("%s: posOf has %d entries, fresh %d", tag, len(got.posOf), len(want.posOf))
	}
	for i := range got.posOf {
		if got.posOf[i] != want.posOf[i] {
			t.Fatalf("%s: posOf[%d] = %d, fresh %d", tag, i, got.posOf[i], want.posOf[i])
		}
	}
}

// compareBounds pins session i's delta-built bounds to the fresh
// AnalyzeServer ones: scalar fields and prefactor evaluations bit for
// bit, plus the evaluated tails.
func compareBounds(t *testing.T, tag string, got, want *Analysis, i int) {
	t.Helper()
	pairs := [2][2]*SessionBounds{
		{got.PartitionBound(i), want.PartitionBound(i)},
		{got.OrderingBound(i), want.OrderingBound(i)},
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

// churnStep stages one random op on the analyzer and the mirror
// population, mimicking the daemon's swap-remove discipline, and
// refreshes. It returns the analysis if the op was applied (nil if
// emptied); a refused op leaves both at the last refresh.
func churnStep(rng *source.RNG, d *DeltaAnalyzer, mirror *[]Session, nMin, nMax int) (*Analysis, error) {
	n := len(*mirror)
	admit := n < nMin || (n < nMax && rng.Float64() < 0.5)
	if admit {
		s := churnSession(rng)
		if err := d.Admit(s); err != nil {
			return nil, err
		}
		an, err := d.Refresh()
		if err != nil {
			return nil, err
		}
		*mirror = append(*mirror, s)
		return an, nil
	}
	pos := rng.Intn(n)
	if err := d.Release(pos); err != nil {
		return nil, err
	}
	an, err := d.Refresh()
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

// TestDeltaBatchesMatchFresh records seeded batches of admits,
// releases and SetRate moves — from one op up to twice the population —
// on the churn palette and on gpsd's palette4 and palette64
// populations, and pins every Refresh to a fresh AnalyzeServer over the
// same session slice: structure and sampled bounds bit for bit, and one
// ordering repair or sort per batch. A refused batch (one staged admit
// overloads the link) must leave the analyzer at its last refresh, and
// the batches after it must still match.
func TestDeltaBatchesMatchFresh(t *testing.T) {
	type population struct {
		name string
		srv  Server
		draw func(*source.RNG) Session
	}
	fromPalette := func(name string, palette []benchType, n int) population {
		// Draw admits from a second population of the same palette, so
		// they carry the same required-rate weights.
		srv, _ := gpsdServer(t, palette, 3*n, 0.5, uint64(n))
		pool := srv.Sessions[n:]
		srv.Sessions = srv.Sessions[:n:n]
		return population{name, srv, func(rng *source.RNG) Session { return pool[rng.Intn(len(pool))] }}
	}
	churn := Server{Rate: 60}
	rng := source.NewRNG(17)
	for i := 0; i < 24; i++ {
		churn.Sessions = append(churn.Sessions, churnSession(rng))
	}
	pops := []population{
		{"churnPalette", churn, churnSession},
		fromPalette("palette4", palette4, 120),
		fromPalette("palette64", palette64, 120),
	}
	rounds := 4
	if raceEnabled || testing.Short() {
		rounds = 2
	}
	opts := Options{Independent: true, Xi: XiOptimal}
	for _, pop := range pops {
		t.Run(pop.name, func(t *testing.T) {
			d, err := NewDeltaAnalyzer(pop.srv, opts)
			if err != nil {
				t.Fatal(err)
			}
			rate0, rate := pop.srv.Rate, pop.srv.Rate
			n0 := len(pop.srv.Sessions)
			mirror := append([]Session(nil), pop.srv.Sessions...)
			rng := source.NewRNG(uint64(n0) + 99)
			check := func(tag string, an *Analysis) {
				t.Helper()
				fresh, err := AnalyzeServer(Server{Rate: rate, Sessions: mirror}, opts)
				if err != nil {
					t.Fatalf("%s: fresh AnalyzeServer: %v", tag, err)
				}
				compareStructure(t, tag, an, fresh)
				for k := 0; k < 4; k++ {
					compareBounds(t, tag, an, fresh, rng.Intn(len(mirror)))
				}
			}
			batch := func(ops int) {
				for k := 0; k < ops; k++ {
					switch n := len(mirror); {
					case rng.Float64() < 0.05:
						rate = rate0 * (0.9 + 0.3*rng.Float64())
						if err := d.SetRate(rate); err != nil {
							t.Fatal(err)
						}
					case n < n0/2 || (n < 3*n0/2 && rng.Float64() < 0.5):
						s := pop.draw(rng)
						if err := d.Admit(s); err != nil {
							t.Fatal(err)
						}
						mirror = append(mirror, s)
					default:
						pos := rng.Intn(n)
						if err := d.Release(pos); err != nil {
							t.Fatal(err)
						}
						mirror[pos] = mirror[n-1]
						mirror = mirror[:n-1]
					}
				}
			}
			for r := 0; r < rounds; r++ {
				for _, ops := range []int{1, 1 + rng.Intn(8), 1 + rng.Intn(len(mirror)), 2 * len(mirror)} {
					tag := fmt.Sprintf("round %d batch of %d", r, ops)
					st := d.Stats()
					batch(ops)
					an, err := d.Refresh()
					if err != nil {
						t.Fatalf("%s: refresh: %v", tag, err)
					}
					if got := d.Stats(); got.OrderRepairs+got.OrderSorts != st.OrderRepairs+st.OrderSorts+1 {
						t.Fatalf("%s: %d ordering repairs+sorts, want one", tag,
							got.OrderRepairs+got.OrderSorts-st.OrderRepairs-st.OrderSorts)
					}
					check(tag, an)
				}
				// The refused batch: releases, a rate move, then an admit
				// no rate in reach can carry.
				prev, base, prevRate := d.Analysis(), append([]Session(nil), mirror...), rate
				batch(5)
				huge := Session{Name: "huge", Phi: 1, Arrival: ebb.Process{Rho: 10 * rate0, Lambda: 1, Alpha: 1}}
				if err := d.Admit(huge); err != nil {
					t.Fatal(err)
				}
				if _, err := d.Refresh(); err == nil {
					t.Fatalf("round %d: overloaded batch refreshed", r)
				}
				if d.Analysis() != prev || d.Len() != len(base) || !sameBits(d.Server().Rate, prevRate) {
					t.Fatalf("round %d: refused batch moved the analyzer (%d sessions, rate %v)", r, d.Len(), d.Server().Rate)
				}
				mirror, rate = base, prevRate
			}
		})
	}
}

// analysisSum folds every array an analysis reads — the session slice,
// rates, ordering and its inverse, the partition, and both memos — into
// one checksum, so a later write into any slot it covers shows.
func analysisSum(an *Analysis) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) { h = (h ^ v) * 1099511628211 }
	for _, s := range an.Server.Sessions {
		mix(math.Float64bits(s.Phi))
		mix(math.Float64bits(s.Arrival.Rho))
		mix(math.Float64bits(s.Arrival.Lambda))
		mix(math.Float64bits(s.Arrival.Alpha))
		mix(uint64(len(s.Name)))
	}
	for _, fs := range [][]float64{an.Rates, an.om.tailPhi, an.om.preMinA, an.om.preInvA,
		an.pm.classRho, an.pm.classPhi, an.pm.classMinA, an.pm.earlierRho, an.pm.laterPhi,
		an.pm.preMinClassA, an.pm.preInvClassA} {
		for _, f := range fs {
			mix(math.Float64bits(f))
		}
	}
	for _, is := range [][]int{an.Ordering, an.posOf, an.Partition.ClassOf} {
		for _, i := range is {
			mix(uint64(i))
		}
	}
	for _, class := range an.Partition.Classes {
		mix(uint64(len(class)))
		for _, i := range class {
			mix(uint64(i))
		}
	}
	return h
}

// TestDeltaAnalyzerRecycle drives the analyzer the way gpsd's publisher
// does: every analysis that leaves a small window of held ones is
// handed back through Recycle, so refreshes fill recycled generations
// and copy into recycled population backings. Batches alternate
// release-heavy, admit-only (append-sharing the backing the previous
// batch's release copied into) and mixed shapes. Every refresh must
// match a fresh AnalyzeServer bit for bit, memos included; every held
// analysis — and one never recycled at all — must checksum at release
// exactly as it did when produced; and the analyzer must refuse to
// recycle its current analysis or one it did not produce.
func TestDeltaAnalyzerRecycle(t *testing.T) {
	opts := Options{Independent: true, Xi: XiOptimal}
	for _, pc := range []struct {
		name    string
		palette []benchType
		n       int
	}{
		{"palette4", palette4, 400},
		{"palette64", palette64, 400},
	} {
		t.Run(pc.name, func(t *testing.T) {
			srv, _ := gpsdServer(t, pc.palette, 3*pc.n, 0.5, uint64(pc.n))
			pool := srv.Sessions[pc.n:]
			srv.Sessions = srv.Sessions[:pc.n:pc.n]
			d, err := NewDeltaAnalyzer(srv, opts)
			if err != nil {
				t.Fatal(err)
			}
			foreign, err := AnalyzeServer(srv, opts)
			if err != nil {
				t.Fatal(err)
			}
			foreignSum := analysisSum(foreign)
			mirror := append([]Session(nil), srv.Sessions...)
			rng := source.NewRNG(uint64(pc.n) + 7)
			type held struct {
				an  *Analysis
				sum uint64
			}
			kept := held{d.Analysis(), analysisSum(d.Analysis())}
			var window []held
			rounds := 120
			if raceEnabled || testing.Short() {
				rounds = 40
			}
			for r := 0; r < rounds; r++ {
				ops := 1 + rng.Intn(12)
				for k := 0; k < ops; k++ {
					n := len(mirror)
					var admit bool
					switch r % 3 {
					case 0: // release-heavy
						admit = n < pc.n/2 || rng.Float64() < 0.2
					case 1: // admit-only
						admit = true
					default:
						admit = n < pc.n/2 || (n < 3*pc.n/2 && rng.Float64() < 0.5)
					}
					if admit {
						s := pool[rng.Intn(len(pool))]
						if err := d.Admit(s); err != nil {
							t.Fatal(err)
						}
						mirror = append(mirror, s)
						continue
					}
					pos := rng.Intn(n)
					if err := d.Release(pos); err != nil {
						t.Fatal(err)
					}
					mirror[pos] = mirror[n-1]
					mirror = mirror[:n-1]
				}
				an, err := d.Refresh()
				if err != nil {
					t.Fatalf("round %d: refresh: %v", r, err)
				}
				tag := fmt.Sprintf("round %d", r)
				fresh, err := AnalyzeServer(Server{Rate: srv.Rate, Sessions: mirror}, opts)
				if err != nil {
					t.Fatalf("%s: fresh AnalyzeServer: %v", tag, err)
				}
				compareStructure(t, tag, an, fresh)
				compareBounds(t, tag, an, fresh, rng.Intn(len(mirror)))
				d.Recycle(an)
				d.Recycle(foreign)
				if an.gen == nil || foreign.gen == nil {
					t.Fatalf("%s: recycled the current analysis or a foreign one", tag)
				}
				window = append(window, held{an, analysisSum(an)})
				// Hold each analysis for a random span of refreshes, as a
				// reader pins an epoch across publishes.
				for len(window) > 0 && (len(window) > 4 || rng.Float64() < 0.4) {
					k := rng.Intn(len(window))
					h := window[k]
					if h.an == d.Analysis() {
						break
					}
					if got := analysisSum(h.an); got != h.sum {
						t.Fatalf("%s: a held analysis changed before it was recycled", tag)
					}
					d.Recycle(h.an)
					window = append(window[:k], window[k+1:]...)
				}
			}
			if analysisSum(kept.an) != kept.sum {
				t.Fatal("the never-recycled first analysis changed")
			}
			if analysisSum(foreign) != foreignSum {
				t.Fatal("a foreign analysis changed")
			}
			for _, h := range window {
				if analysisSum(h.an) != h.sum {
					t.Fatal("a held analysis changed")
				}
			}
		})
	}
}

// TestDeltaAnalyzerEdges covers the empty analyzer, rejection of invalid
// sessions, a refused refresh, draining to empty, and out-of-range
// releases.
func TestDeltaAnalyzerEdges(t *testing.T) {
	opts := Options{Independent: true, Xi: XiOptimal}
	d, err := NewDeltaAnalyzer(Server{Rate: 10}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if d.Analysis() != nil || d.Len() != 0 {
		t.Fatal("empty analyzer should have nil analysis")
	}
	if err := d.Release(0); err == nil {
		t.Fatal("release on empty analyzer must fail")
	}
	if err := d.Admit(Session{Name: "bad", Phi: 0, Arrival: ebb.Process{Rho: 1, Lambda: 1, Alpha: 1}}); err == nil {
		t.Fatal("phi = 0 must be rejected")
	}
	if err := d.Admit(Session{Name: "bad", Phi: 1, Arrival: ebb.Process{Rho: -1, Lambda: 1, Alpha: 1}}); err == nil {
		t.Fatal("invalid arrival must be rejected")
	}
	s := churnPalette()[0]
	if err := d.Admit(s); err != nil {
		t.Fatalf("first admit: %v", err)
	}
	an, err := d.Refresh()
	if err != nil || an == nil || d.Len() != 1 || d.Analysis() != an {
		t.Fatalf("admit did not populate the analyzer: an=%v err=%v", an, err)
	}
	// Overload: ρ = 11 > slack. Staging accepts it; the refresh refuses
	// and returns to the last refreshed state.
	if err := d.Admit(Session{Name: "huge", Phi: 1, Arrival: ebb.Process{Rho: 11, Lambda: 1, Alpha: 1}}); err != nil {
		t.Fatalf("staging a valid session: %v", err)
	}
	if _, err := d.Refresh(); err == nil {
		t.Fatal("overloading admit must be refused")
	}
	if d.Len() != 1 || d.Analysis() != an {
		t.Fatalf("refused refresh changed the analyzer: %d sessions", d.Len())
	}
	if err := d.Release(0); err != nil {
		t.Fatalf("draining release: %v", err)
	}
	if an, err := d.Refresh(); err != nil || an != nil {
		t.Fatalf("draining refresh: an=%v err=%v", an, err)
	}
	if d.Len() != 0 || d.Analysis() != nil {
		t.Fatal("analyzer not empty after draining release")
	}
	if _, err := NewDeltaAnalyzer(Server{Rate: 0}, opts); err == nil {
		t.Fatal("rate 0 must be rejected")
	}
}

// FuzzDeltaAnalyzer stages admits and releases decoded from the fuzz
// input and refreshes wherever a byte sets the batch-boundary bit
// (0x10) and after the last byte, so the fuzzer chooses the batches. It
// asserts bit-identity against fresh AnalyzeServer after every refresh,
// and of every served Best* value against the unpruned best-of-routes
// oracle; a refused batch must leave the analyzer at its last refresh.
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
		// mirror is the staged population, base the last refreshed one.
		var mirror, base []Session
		palette := churnPalette()
		for k, b := range data {
			if b&0x80 == 0 || len(mirror) == 0 {
				s := palette[int(b>>5)&0x3]
				// Derive a deterministic jitter from the byte so the fuzzer
				// can explore near-collisions of the sort ratios.
				s.Arrival.Rho *= 1 + float64(b&0x0f)/256
				if err := d.Admit(s); err != nil {
					t.Fatalf("admit: %v", err)
				}
				mirror = append(mirror, s)
			} else {
				pos := int(b&0x7f) % len(mirror)
				if err := d.Release(pos); err != nil {
					t.Fatalf("release %d/%d: %v", pos, len(mirror), err)
				}
				last := len(mirror) - 1
				mirror[pos] = mirror[last]
				mirror = mirror[:last]
			}
			if b&0x10 == 0 && k < len(data)-1 {
				continue
			}
			prev := d.Analysis()
			an, err := d.Refresh()
			if err != nil {
				if d.Len() != len(base) || d.Analysis() != prev {
					t.Fatalf("refused batch moved the analyzer to %d sessions (last refresh %d)", d.Len(), len(base))
				}
				mirror = append(mirror[:0:0], base...)
				an = prev
			} else {
				base = append(base[:0:0], mirror...)
			}
			if an == nil {
				continue
			}
			fresh, err := AnalyzeServer(Server{Rate: rate, Sessions: base}, opts)
			if err != nil {
				t.Fatalf("fresh AnalyzeServer: %v", err)
			}
			compareStructure(t, "fuzz", an, fresh)
			for i := range base {
				compareBounds(t, "fuzz", an, fresh, i)
				checkOracle(t, "fuzz", an, i, []float64{0.5, 4, 32}, []float64{0.5, 4, 32})
			}
		}
	})
}

// TestDeltaBatchRepairStaysLinear runs 40 refreshes of each of two
// gpsd batch shapes — node-churn's 1,800- and 2,600-op batches over 10k
// sessions of 4 types, and one node-sharded-read shard's 90-op batches
// over 25k sessions of 64 types, half admits and half releases at 75%
// load — and requires the seeded insertion repair to fix the ordering
// in all but at most one of them: the seed merges the admitted and the
// moved sessions, so only the slack nudge's flips are left to repair.
// Every refresh is the fresh analysis, structure and memos bit for bit.
func TestDeltaBatchRepairStaysLinear(t *testing.T) {
	for _, c := range []struct {
		name    string
		palette []benchType
		n       int
		ops     []int
	}{
		{"node-churn", palette4, 10_000, []int{1800, 2600}},
		{"node-sharded-read", palette64, 25_000, []int{90}},
	} {
		t.Run(c.name, func(t *testing.T) {
			// Rate for 75% load over the first n of the 2n drawn sessions.
			srv, _ := gpsdServer(t, c.palette, 2*c.n, 2*0.75, uint64(c.n))
			pool := srv.Sessions[c.n:]
			srv.Sessions = srv.Sessions[:c.n:c.n]
			opts := Options{Independent: true, Xi: XiOptimal}
			d, err := NewDeltaAnalyzer(srv, opts)
			if err != nil {
				t.Fatal(err)
			}
			mirror := append([]Session(nil), srv.Sessions...)
			rng := source.NewRNG(uint64(c.n) + 7)
			const refreshes = 40
			st := d.Stats()
			for r := 0; r < refreshes; r++ {
				ops := c.ops[r%len(c.ops)]
				for k := 0; k < ops; k++ {
					if k%2 == 0 {
						s := pool[rng.Intn(len(pool))]
						if err := d.Admit(s); err != nil {
							t.Fatal(err)
						}
						mirror = append(mirror, s)
						continue
					}
					pos, last := rng.Intn(len(mirror)), len(mirror)-1
					if err := d.Release(pos); err != nil {
						t.Fatal(err)
					}
					mirror[pos] = mirror[last]
					mirror = mirror[:last]
				}
				an, err := d.Refresh()
				if err != nil {
					t.Fatalf("refresh %d: %v", r, err)
				}
				fresh, err := AnalyzeServer(Server{Rate: srv.Rate, Sessions: mirror}, opts)
				if err != nil {
					t.Fatalf("refresh %d: fresh AnalyzeServer: %v", r, err)
				}
				compareStructure(t, fmt.Sprintf("refresh %d (%d ops)", r, ops), an, fresh)
			}
			got := d.Stats()
			sorts := got.OrderSorts - st.OrderSorts
			if repairs := got.OrderRepairs - st.OrderRepairs; repairs+sorts != refreshes {
				t.Fatalf("%d repairs and %d sorts over %d refreshes", repairs, sorts, refreshes)
			}
			if sorts > 1 {
				t.Errorf("%d of %d refreshes fell back to a full sort, want at most 1", sorts, refreshes)
			}
			t.Logf("%d of %d refreshes fell back to a full sort", sorts, refreshes)
		})
	}
}
