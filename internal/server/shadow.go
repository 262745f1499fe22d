package server

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/admission"
)

// shadowBacking owns one generation of the epoch shadow arrays (ids,
// targets, and the sorted id index). At a million sessions these four
// arrays are ~40 bytes/session, and the copy-on-first-interior-write
// discipline reallocated them on every churn batch — the dominant GC
// pressure of steady-state delta rebuilds. Backings are therefore
// refcounted and pooled: the writer holds one reference, every
// published epoch built on the backing holds one (dropped by a
// finalizer when the epoch becomes unreachable), and the arrays return
// to the pool only when both sides are done — so reuse can never
// mutate data a lock-free reader still sees.
type shadowBacking struct {
	ids       []uint64
	targets   []admission.Target
	idsSorted []uint64
	posSorted []int
	refs      atomic.Int32
}

var shadowPool sync.Pool

// acquireShadow returns a backing whose arrays hold at least n
// entries, pooled when one is available, with the writer's reference
// already taken.
func acquireShadow(n int) *shadowBacking {
	b, _ := shadowPool.Get().(*shadowBacking)
	if b == nil {
		b = &shadowBacking{}
	}
	if cap(b.ids) < n {
		c := n + n/8 + 64
		b.ids = make([]uint64, 0, c)
		b.targets = make([]admission.Target, 0, c)
		b.idsSorted = make([]uint64, 0, c)
		b.posSorted = make([]int, 0, c)
	}
	b.refs.Store(1)
	return b
}

func (b *shadowBacking) retain() { b.refs.Add(1) }

func (b *shadowBacking) release() {
	if b.refs.Add(-1) == 0 {
		shadowPool.Put(b)
	}
}

// dropBacking is the epoch finalizer: the epoch is unreachable, so no
// reader can touch the arrays through it anymore.
func (ep *Epoch) dropBacking() {
	if ep.backing != nil {
		ep.backing.release()
	}
}

// publish makes ep the current epoch. The epoch takes its own
// reference on the shadow backing first, so the arrays stay out of the
// pool for as long as any reader can reach them.
func (d *Daemon) publish(ep *Epoch) {
	if ep.backing != nil {
		ep.backing.retain()
		runtime.SetFinalizer(ep, (*Epoch).dropBacking)
	}
	d.epoch.Store(ep)
	// The epoch now reads the shadow arrays' first len(ep.IDs) slots:
	// writing one needs a fresh copy from here on. Appends past them
	// remain safe, and no older epoch on this backing is longer, since
	// a release below a published length always copies first.
	d.shShared = len(ep.IDs)
}

// ownShadow moves the shadow arrays onto a backing the writer owns
// exclusively, copying current contents with spare extra capacity, and
// drops the writer's reference on the backing it leaves behind. Used
// on the first interior write after a publish and whenever an append
// would outgrow the current arrays — a plain append realloc would
// silently detach the writer from the pooled backing.
func (d *Daemon) ownShadow(spare int) {
	curIDs, curTargets := d.shIDs, d.shTargets
	curSorted, curPos := d.shIDsSorted, d.shPosSorted
	old := d.shadow
	nb := acquireShadow(len(curIDs) + spare)
	d.shadow = nb
	d.shIDs = append(nb.ids[:0], curIDs...)
	d.shTargets = append(nb.targets[:0], curTargets...)
	d.shIDsSorted = append(nb.idsSorted[:0], curSorted...)
	d.shPosSorted = append(nb.posSorted[:0], curPos...)
	if old != nil {
		old.release()
	}
	d.shShared = 0
}
