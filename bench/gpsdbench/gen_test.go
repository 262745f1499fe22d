package main

import "testing"

// opStream replays a workload's generator for every client over iters
// iterations, with the pool sizes the loop would see when every
// operation succeeds, and returns the combined digest.
func opStream(w *workload, seed uint64, iters int) string {
	cs := make([]*client, clients)
	for i := range cs {
		cs[i] = &client{id: i, gen: newGen(seed, i)}
		live := 1000
		for k := 0; k < iters; k++ {
			s := w.next(cs[i].gen, i, live)
			if w.name == "node-131k" && s.release >= 0 {
				live-- // staged releases are not replaced
			}
		}
	}
	return opDigest(cs)
}

func TestOpStreamDeterministic(t *testing.T) {
	for _, w := range append(workloads, clusterTree) {
		a, b := opStream(w, 7, 500), opStream(w, 7, 500)
		if a != b {
			t.Errorf("%s: seed 7 gave digests %s and %s", w.name, a, b)
		}
		if c := opStream(w, 8, 500); c == a {
			t.Errorf("%s: seeds 7 and 8 gave the same digest %s", w.name, a)
		}
	}
}
