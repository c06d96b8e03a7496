package rounds

import (
	"math/rand"

	"github.com/nectar-repro/nectar/internal/freelist"
)

// Run-lifetime recycling (DESIGN.md §9). A sweep or a dynamic run drives
// the engine once per trial or epoch, and every run used to grow the same
// staging — per-recipient inboxes, the dedup maps, the shuffle RNGs —
// from nil by append-doubling and then drop it. The staging of a finished
// run is kept on a free list instead, so the next run starts at the
// capacity the last one reached.
//
// The free list only ever supplies capacity. release truncates every
// buffer to length zero, clears every map, and zeroes every slot that held
// a payload slice up to its capacity, so nothing a finished run
// referenced stays reachable and nothing it staged can be observed by the
// next run: results cannot depend on whether, or from which run, a staging
// was recycled.

// staging is the scratch one engine run owns from acquire to release.
type staging struct {
	// workers says which shards the current run routes through:
	// shards[:workers]. A recycled staging may carry more shards from
	// earlier runs; they stay parked, already scrubbed by the run that
	// used them.
	workers int

	outboxes [][]Send
	inboxes  [][]delivery // per-recipient merged+shuffled inbox
	shards   []*routeShard
	meters   []*meter     // per-worker metering state
	rngs     []*rand.Rand // per-worker shuffle RNGs, reseeded per recipient
}

// stagingFree is the free list (hot slots over a sync.Pool: a bare pool
// loses a lone staging whenever the scheduler moves the caller between two
// runs — see internal/freelist).
var stagingFree = freelist.New(func() *staging { return new(staging) })

// acquireStaging returns a staging sized for n nodes and the given worker
// count.
func acquireStaging(n, workers int) *staging {
	st := stagingFree.Acquire()
	st.workers = workers
	st.outboxes = resize(st.outboxes, n)
	st.inboxes = resize(st.inboxes, n)
	st.shards = resize(st.shards, max(workers, len(st.shards)))
	for w, sh := range st.shards[:workers] {
		if sh == nil {
			sh = new(routeShard)
			st.shards[w] = sh
		}
		sh.inbox = resize(sh.inbox, n)
	}
	st.meters = resize(st.meters, max(workers, len(st.meters)))
	for w, mt := range st.meters[:workers] {
		if mt == nil {
			st.meters[w] = &meter{seen: make(map[uint64]bool)}
		}
	}
	// One reusable shuffle RNG per worker: delivery reseeds it per
	// recipient, which reproduces the stream of a fresh
	// rand.New(rand.NewSource(seed)) exactly (shufflesource.go), so a
	// recycled RNG's history is unobservable.
	st.rngs = resize(st.rngs, max(workers, len(st.rngs)))
	for w, rng := range st.rngs[:workers] {
		if rng == nil {
			st.rngs[w] = newShuffleRand()
		}
	}
	return st
}

// release scrubs what the run used down to bare capacity and returns the
// staging to the free list. The caller must not touch st afterwards.
func (st *staging) release() {
	scrubAll(st.outboxes)
	scrubAll(st.inboxes)
	for _, sh := range st.shards[:st.workers] {
		scrubAll(sh.inbox)
	}
	for _, mt := range st.meters[:st.workers] {
		mt.resetDedup()
	}
	stagingFree.Release(st)
}

// resize returns s with length n, keeping its elements (and whatever
// capacity they carry) where the backing array is large enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return append(s[:cap(s)], make([]T, n-cap(s))...)
	}
	return s[:n]
}

// scrubAll zeroes every inner slice of s up to its capacity and leaves it
// at length zero.
func scrubAll[T any](s [][]T) {
	for i := range s {
		clear(s[i][:cap(s[i])])
		s[i] = s[i][:0]
	}
}
