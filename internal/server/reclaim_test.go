package server

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/ebb"
	"repro/internal/source"
)

// epochSum folds every array an epoch serves from into one checksum:
// the shadow arrays, the session slice, the analysis's rates, ordering
// and partition, and a sample of bounds, which read the memos. A write
// into any of them between two sums shows.
func epochSum(ep *Epoch) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) { h = (h ^ v) * 1099511628211 }
	mixF := func(f float64) { mix(math.Float64bits(f)) }
	for i, id := range ep.IDs {
		mix(id)
		mixF(ep.Targets[i].Delay)
		mixF(ep.Targets[i].Eps)
	}
	for k, id := range ep.idsSorted {
		mix(id)
		mix(uint64(ep.posSorted[k]))
	}
	for _, s := range ep.Server.Sessions {
		mixF(s.Phi)
		mixF(s.Arrival.Rho)
		mixF(s.Arrival.Alpha)
		mix(uint64(len(s.Name)))
	}
	an := ep.Analysis
	if an == nil {
		return h
	}
	for i, r := range an.Rates {
		mixF(r)
		mix(uint64(an.Ordering[i]))
		mix(uint64(an.Partition.ClassOf[i]))
	}
	for _, class := range an.Partition.Classes {
		for _, i := range class {
			mix(uint64(i))
		}
	}
	for k := 0; k < 4; k++ {
		i := k * 7919 % len(an.Rates)
		pb, ob := an.PartitionBound(i), an.OrderingBound(i)
		mixF(pb.G)
		mixF(pb.ThetaMax)
		mixF(ob.ThetaMax)
		mixF(ob.Prefactor(ob.ThetaMax / 2))
	}
	return h
}

// steadyReq is node-131k's single session type.
var steadyReq = AdmitRequest{Name: "steady",
	Arrival: ebb.Process{Rho: 0.05, Lambda: 1, Alpha: 1.2}, Target: admission.Target{Delay: 40, Eps: 1e-3}}

// TestEpochReclaimAllocation pins the steady-state cost of a publish in
// memory: a single-type daemon of 25k sessions publishes a few hundred
// three-op churn batches (admit, release, admit or release), reading
// through Bounds after each, and the whole cycle must allocate less
// than a constant that does not grow with the population. Every
// O(sessions) array a publish needs — the session and ratio copy, the
// shadow arrays, the analysis's rates, ordering, partition and memo
// blocks — comes back from an epoch the writer reclaimed; allocating
// any one of them afresh costs at least 200 KB here.
//
// The population grows through publishes, as a daemon that boots empty
// does. Booting all 25k sessions at once would analyze them with the
// verified constructor, whose eq. (5) tolerance refuses this feasible
// population (ROADMAP item 2); the publishes measured here take the
// repair path either way.
func TestEpochReclaimAllocation(t *testing.T) {
	const (
		population = 25_000
		batches    = 300
		limit      = 32 << 10 // bytes per batch, publish and read
	)
	g, err := admission.RequiredRate(steadyReq.Arrival, steadyReq.Target)
	if err != nil {
		t.Fatal(err)
	}
	d := newTestDaemon(t, Config{
		Rate:           g * population / 0.75,
		MaxBatch:       1 << 30,
		MaxEpochAge:    time.Hour,
		SelfCheckEvery: -1,
	})
	ids := make([]uint64, 0, population+batches)
	admit := func() {
		res, err := d.Admit(steadyReq)
		if err != nil || !res.Admitted {
			t.Fatalf("admit: admitted=%v err=%v", res.Admitted, err)
		}
		ids = append(ids, res.ID)
	}
	for len(ids) < population {
		admit()
		if len(ids)%2000 == 0 {
			if err := d.Rebuild(); err != nil {
				t.Fatal(err)
			}
		}
	}
	rng := source.NewRNG(7)
	batch := func(k int) {
		for j := 0; j < 3; j++ {
			if j != 1 && (j == 0 || k%2 == 0) {
				admit()
				continue
			}
			x := rng.Intn(len(ids))
			if ok, err := d.Release(ids[x]); err != nil || !ok {
				t.Fatalf("release: ok=%v err=%v", ok, err)
			}
			ids[x] = ids[len(ids)-1]
			ids = ids[:len(ids)-1]
		}
		if err := d.Rebuild(); err != nil {
			t.Fatal(err)
		}
		if _, ok := d.Bounds(ids[rng.Intn(len(ids))], 0, 0); !ok {
			t.Fatal("bounds of a published session not served")
		}
	}
	// The first batches allocate what the free lists then recycle.
	for k := 0; k < 20; k++ {
		batch(k)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for k := 0; k < batches; k++ {
		batch(k)
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / batches
	t.Logf("%d B allocated per churn batch, publish and read at %d sessions", per, population)
	if per > limit {
		t.Fatalf("%d B allocated per publish, want at most %d: a publish allocates arrays the writer should recycle", per, limit)
	}
}

// publishes lets readers wait for the writers' next publish.
type publishes struct {
	mu   sync.Mutex
	next chan struct{}
}

// wait returns a channel closed at the next publish.
func (p *publishes) wait() <-chan struct{} {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.next == nil {
		p.next = make(chan struct{})
	}
	return p.next
}

// done announces a publish.
func (p *publishes) done() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.next != nil {
		close(p.next)
		p.next = nil
	}
}

// reclaimChurn runs phased churn through the admit and release
// callbacks while readers pin epochs: release-heavy batches, then
// admit-only batches that append-share the backings the releases copied
// into, then mixed ones, each followed by a publish on every writer.
type reclaimChurn struct {
	admit   func(k int) (uint64, bool)
	release func(id uint64)
	publish func()
	pubs    *publishes
}

func (c reclaimChurn) run(t *testing.T, rounds int) {
	t.Helper()
	rng := source.NewRNG(20261018)
	var ids []uint64
	for len(ids) < 300 {
		if id, ok := c.admit(len(ids)); ok {
			ids = append(ids, id)
		}
	}
	c.publish()
	for r := 0; r < rounds; r++ {
		ops := 1 + rng.Intn(8)
		for k := 0; k < ops; k++ {
			var admit bool
			switch r % 3 {
			case 0:
				admit = len(ids) < 150
			case 1:
				admit = true
			default:
				admit = len(ids) < 150 || (len(ids) < 450 && rng.Float64() < 0.5)
			}
			if admit {
				if id, ok := c.admit(rng.Intn(len(testTypes))); ok {
					ids = append(ids, id)
				}
				continue
			}
			x := rng.Intn(len(ids))
			c.release(ids[x])
			ids[x] = ids[len(ids)-1]
			ids = ids[:len(ids)-1]
		}
		c.publish()
		c.pubs.done()
	}
}

// pinReaders starts readers over writers ds: each pins the current
// epoch of a random writer, checksums it, holds it while up to three
// more publishes happen, and checksums it again before unpinning. Every
// fourth read instead takes an escaped epoch through CurrentEpoch,
// which must checksum the same when the test ends. stop ends them;
// the returned wait reports how many pinned reads ran.
func pinReaders(t *testing.T, ds []*Daemon, readers int, pubs *publishes, stop <-chan struct{}) (wait func() int64) {
	var wg sync.WaitGroup
	var reads atomic.Int64
	type escapedEpoch struct {
		ep  *Epoch
		sum uint64
	}
	var mu sync.Mutex
	var escaped []escapedEpoch
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := source.NewRNG(uint64(r) + 1)
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				d := ds[rng.Intn(len(ds))]
				if n%4 == 3 {
					ep := d.CurrentEpoch()
					mu.Lock()
					escaped = append(escaped, escapedEpoch{ep, epochSum(ep)})
					mu.Unlock()
					continue
				}
				ep := d.pinEpoch()
				sum := epochSum(ep)
				for span := rng.Intn(4); span > 0; span-- {
					select {
					case <-pubs.wait():
					case <-stop:
						span = 0
					}
				}
				if got := epochSum(ep); got != sum {
					t.Errorf("epoch %d changed while pinned", ep.Seq)
				}
				ep.unpin()
				reads.Add(1)
			}
		}(r)
	}
	return func() int64 {
		wg.Wait()
		for _, e := range escaped {
			if epochSum(e.ep) != e.sum {
				t.Errorf("escaped epoch %d changed", e.ep.Seq)
			}
		}
		return reads.Load()
	}
}

// recycledEpochs counts, on each writer goroutine, the epochs whose
// arrays went back to the writer's free lists.
func recycledEpochs(t *testing.T, ds []*Daemon) int {
	t.Helper()
	total := 0
	for _, d := range ds {
		if err := d.exec(func() { total += d.recycled }); err != nil {
			t.Fatal(err)
		}
	}
	return total
}

// TestEpochReclaimRace is the reclamation contract under the race
// detector: readers pin epochs across publishes for random spans (and
// some take escaped epochs through CurrentEpoch) while the writer
// churns release, admit-only and mixed batches, so superseded epochs
// are recycled into the next publish's arrays as soon as their last
// reader leaves. No pinned or escaped epoch may change, and recycling
// must actually happen.
func TestEpochReclaimRace(t *testing.T) {
	d := newTestDaemon(t, Config{Rate: 1000, MaxBatch: 1 << 30, MaxEpochAge: time.Hour, SelfCheckEvery: -1})
	stop, pubs := make(chan struct{}), &publishes{}
	wait := pinReaders(t, []*Daemon{d}, 3, pubs, stop)
	rounds := 600
	if testing.Short() {
		rounds = 200
	}
	reclaimChurn{
		admit: func(k int) (uint64, bool) {
			res, err := d.Admit(testTypes[k%len(testTypes)])
			if err != nil {
				t.Fatal(err)
			}
			return res.ID, res.Admitted
		},
		release: func(id uint64) {
			if ok, err := d.Release(id); err != nil || !ok {
				t.Fatalf("release %d: ok=%v err=%v", id, ok, err)
			}
		},
		publish: func() {
			if err := d.Rebuild(); err != nil {
				t.Fatal(err)
			}
		},
		pubs: pubs,
	}.run(t, rounds)
	close(stop)
	reads := wait()
	recycled := recycledEpochs(t, []*Daemon{d})
	t.Logf("%d pinned reads, %d epochs recycled", reads, recycled)
	if reads == 0 || recycled == 0 {
		t.Fatalf("vacuous run: %d pinned reads, %d epochs recycled", reads, recycled)
	}
}

// TestShardedEpochReclaimRace runs the reclamation contract through
// the two-shard facade: each shard writer recycles its own epochs while
// readers pin either shard's.
func TestShardedEpochReclaimRace(t *testing.T) {
	s := newTestSharded(t, Config{Rate: 1000, MaxBatch: 1 << 30, MaxEpochAge: time.Hour, SelfCheckEvery: -1}, 2)
	ds := []*Daemon{s.Shard(0), s.Shard(1)}
	stop, pubs := make(chan struct{}), &publishes{}
	wait := pinReaders(t, ds, 3, pubs, stop)
	rounds := 600
	if testing.Short() {
		rounds = 200
	}
	reclaimChurn{
		admit: func(k int) (uint64, bool) {
			res, err := s.Admit(testTypes[k%len(testTypes)])
			if err != nil {
				t.Fatal(err)
			}
			return res.ID, res.Admitted
		},
		release: func(id uint64) {
			if ok, err := s.Release(id); err != nil || !ok {
				t.Fatalf("release %d: ok=%v err=%v", id, ok, err)
			}
		},
		publish: func() {
			if err := s.Rebuild(); err != nil {
				t.Fatal(err)
			}
		},
		pubs: pubs,
	}.run(t, rounds)
	close(stop)
	reads := wait()
	recycled := recycledEpochs(t, ds)
	t.Logf("%d pinned reads, %d epochs recycled", reads, recycled)
	if reads == 0 || recycled == 0 {
		t.Fatalf("vacuous run: %d pinned reads, %d epochs recycled", reads, recycled)
	}
}
