package rounds

import "github.com/nectar-repro/nectar/internal/freelist"

// Run-lifetime recycling (DESIGN.md §9). A sweep or a dynamic run drives
// the engine once per trial or epoch, and every run used to grow the same
// staging — the outbox table and each worker's inbox buffer — from nil by
// append-doubling and then drop it. The staging of a finished run is kept
// on a free list instead, so the next run starts at the capacity the last
// one reached.
//
// The free list only ever supplies capacity. release clears the outbox
// table and every inbox buffer the run used to its capacity, so nothing a
// finished run referenced stays reachable and nothing it pulled can be
// observed by the next run: results cannot depend on whether, or from
// which run, a staging was recycled. An inbox buffer is one per worker and
// holds one recipient's round at a time, so clearing it whole is cheap.

// staging is the scratch one engine run owns from acquire to release.
type staging struct {
	// used says which workers the current run claims blocks with:
	// workers[:used]. A recycled staging may carry more from earlier runs;
	// they stay parked, already scrubbed by the run that used them.
	used     int
	outboxes [][]Send
	workers  []*worker
}

// stagingFree is the free list (hot slots over a sync.Pool: a bare pool
// loses a lone staging whenever the scheduler moves the caller between two
// runs — see internal/freelist).
var stagingFree = freelist.New(func() *staging { return new(staging) })

// acquireStaging returns a staging sized for n nodes and the given worker
// count.
func acquireStaging(n, workers int) *staging {
	st := stagingFree.Acquire()
	st.used = workers
	st.outboxes = resize(st.outboxes, n)
	st.workers = resize(st.workers, max(workers, len(st.workers)))
	for w, wk := range st.workers[:workers] {
		if wk == nil {
			wk = new(worker)
			st.workers[w] = wk
		}
		wk.bytes, wk.nonEdge, wk.lost = 0, 0, 0 // a failed run may leave counts
	}
	return st
}

// release scrubs what the run used down to bare capacity and returns the
// staging to the free list. The caller must not touch st afterwards.
func (st *staging) release() {
	clear(st.outboxes)
	for _, wk := range st.workers[:st.used] {
		clear(wk.inbox[:cap(wk.inbox)])
		wk.inbox = wk.inbox[:0]
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
