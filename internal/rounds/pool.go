package rounds

import "github.com/nectar-repro/nectar/internal/freelist"

// Run-lifetime recycling (DESIGN.md §9). A sweep or a dynamic run drives
// the engine once per trial or epoch, and every run used to grow the same
// staging — per-recipient inboxes and their shards — from nil by
// append-doubling and then drop it. The staging of a finished run is kept
// on a free list instead, so the next run starts at the capacity the last
// one reached.
//
// The free list only ever supplies capacity. release truncates every
// buffer to length zero and zeroes every slot that held a payload slice,
// so nothing a finished run referenced stays reachable and nothing it
// staged can be observed by the next run: results cannot depend on
// whether, or from which run, a staging was recycled.
// The slots a run filled are those below its recipients' high-water marks
// (or a buffer's length, where a failed run left one staged); every slot
// above was zero when the run began — fresh from append, or scrubbed by
// the run that used it — so release zeroes only as far as the run got,
// not a capacity that the largest run ever served has grown.

// staging is the scratch one engine run owns from acquire to release.
type staging struct {
	// workers says which shards the current run routes through:
	// shards[:workers]. A recycled staging may carry more shards from
	// earlier runs; they stay parked, already scrubbed by the run that
	// used them.
	workers int

	outboxes [][]Send
	inboxes  [][]delivery // per-recipient merged+shuffled inbox
	// marks[i] is the longest inbox recipient i has had this run: no
	// staged or merged buffer of i's has been filled beyond it.
	marks  []int
	shards []*routeShard
	meters []*meter // per-worker metering state
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
	st.marks = resize(st.marks, n)
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
			st.meters[w] = new(meter)
		}
	}
	return st
}

// release scrubs what the run used down to bare capacity and returns the
// staging to the free list. The caller must not touch st afterwards.
func (st *staging) release() {
	clear(st.outboxes) // route drops each outbox it routes; a panic may not
	for i, mark := range st.marks {
		scrub(st.inboxes, i, mark)
		for _, sh := range st.shards[:st.workers] {
			scrub(sh.inbox, i, mark)
		}
		st.marks[i] = 0
	}
	for _, mt := range st.meters[:st.workers] {
		mt.last = nil
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

// scrub zeroes boxes[i] up to its length or mark, whichever reaches
// further, and leaves it at length zero.
func scrub(boxes [][]delivery, i, mark int) {
	b := boxes[i]
	clear(b[:min(cap(b), max(len(b), mark))])
	boxes[i] = b[:0]
}
