package server

import (
	"repro/internal/admission"
)

// shadowBacking owns one generation of the epoch shadow arrays (ids,
// targets, and the sorted id index). At a million sessions these four
// arrays are ~40 bytes/session, and the copy-on-first-interior-write
// discipline would reallocate them on every churn batch. Backings are
// therefore refcounted on the writer goroutine: the writer holds one
// reference while it stages on a backing, and every published epoch
// built on it holds one until the writer reclaims the epoch (see
// reclaim). At zero the arrays go onto the writer's free list, so reuse
// can never mutate data a reader still sees; a backing an escaped epoch
// holds never reaches zero and is left to the collector.
type shadowBacking struct {
	ids       []uint64
	targets   []admission.Target
	idsSorted []uint64
	posSorted []int
	refs      int
}

// freeShadowMax bounds the writer's free list of shadow backings.
const freeShadowMax = 4

// acquireShadow returns a backing whose arrays hold at least n entries,
// from the free list when one there is large enough, with the writer's
// reference already taken. A free list none of whose backings fits
// belongs to a smaller population: it is dropped for the collector.
func (d *Daemon) acquireShadow(n int) *shadowBacking {
	for k, b := range d.freeShadow {
		if cap(b.ids) >= n {
			last := len(d.freeShadow) - 1
			d.freeShadow[k], d.freeShadow[last] = d.freeShadow[last], nil
			d.freeShadow = d.freeShadow[:last]
			b.refs = 1
			return b
		}
	}
	clear(d.freeShadow)
	d.freeShadow = d.freeShadow[:0]
	c := n + n/8 + 64
	return &shadowBacking{
		ids:       make([]uint64, 0, c),
		targets:   make([]admission.Target, 0, c),
		idsSorted: make([]uint64, 0, c),
		posSorted: make([]int, 0, c),
		refs:      1,
	}
}

// releaseShadow drops one reference on b, freeing it at the last.
func (d *Daemon) releaseShadow(b *shadowBacking) {
	if b.refs--; b.refs == 0 && len(d.freeShadow) < freeShadowMax {
		d.freeShadow = append(d.freeShadow, b)
	}
}

// pinEpoch returns the current epoch with a reader count held on it, so
// the writer cannot recycle its arrays until unpin. The count is taken
// before the epoch is confirmed current: a writer that retired the
// epoch first is seen, and the pin retries on its successor without
// having read a single array of the retired one.
func (d *Daemon) pinEpoch() *Epoch {
	for {
		ep := d.epoch.Load()
		ep.readers.Add(1)
		if d.epoch.Load() == ep {
			return ep
		}
		ep.readers.Add(-1)
	}
}

// unpin releases a pinEpoch reader count.
func (ep *Epoch) unpin() { ep.readers.Add(-1) }

// publish makes ep the current epoch, retires the previous one, and
// reclaims what no reader holds anymore. The epoch takes its own
// reference on the shadow backing first, so the arrays stay off the
// free list for as long as the epoch is unreclaimed.
func (d *Daemon) publish(ep *Epoch) {
	if ep.backing != nil {
		ep.backing.refs++
	}
	if prev := d.epoch.Swap(ep); prev != nil {
		d.retired = append(d.retired, prev)
	}
	// The epoch now reads the shadow arrays' first len(ep.IDs) slots:
	// writing one needs a fresh copy from here on. Appends past them
	// remain safe, and no older epoch on this backing is longer, since
	// a release below a published length always copies first.
	d.shShared = len(ep.IDs)
	d.reclaim()
}

// reclaim recycles every retired epoch no reader pins: its shadow
// backing loses the epoch's reference, and the analyzer takes back its
// analysis's arrays. A retired epoch is no longer current, so once its
// count reads zero no pin can succeed on it again (pinEpoch rechecks
// currency after counting), and nothing else reads its arrays. An
// escaped epoch — one CurrentEpoch handed out — is never recycled; the
// collector frees it. Reclaiming writes no Epoch field, since Health
// and the metrics renderer read the scalar fields of any epoch without
// a pin.
func (d *Daemon) reclaim() {
	kept := d.retired[:0]
	for _, ep := range d.retired {
		switch {
		case ep.readers.Load() != 0:
			kept = append(kept, ep)
		case ep.escaped.Load():
		default:
			if ep.backing != nil {
				d.releaseShadow(ep.backing)
			}
			if d.delta != nil {
				d.delta.Recycle(ep.Analysis)
			}
			d.recycled++
		}
	}
	clear(d.retired[len(kept):])
	d.retired = kept
}

// ownShadow moves the shadow arrays onto a backing the writer owns
// exclusively, copying current contents with spare extra capacity, and
// drops the writer's reference on the backing it leaves behind. Used
// on the first interior write after a publish and whenever an append
// would outgrow the current arrays — a plain append realloc would
// silently detach the writer from the refcounted backing.
func (d *Daemon) ownShadow(spare int) {
	curIDs, curTargets := d.shIDs, d.shTargets
	curSorted, curPos := d.shIDsSorted, d.shPosSorted
	old := d.shadow
	nb := d.acquireShadow(len(curIDs) + spare)
	d.shadow = nb
	d.shIDs = append(nb.ids[:0], curIDs...)
	d.shTargets = append(nb.targets[:0], curTargets...)
	d.shIDsSorted = append(nb.idsSorted[:0], curSorted...)
	d.shPosSorted = append(nb.posSorted[:0], curPos...)
	if old != nil {
		d.releaseShadow(old)
	}
	d.shShared = 0
}
