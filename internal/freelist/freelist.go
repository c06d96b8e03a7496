// Package freelist is the free list behind the run-lifetime recycling of
// DESIGN.md §9 (the engine's staging, the verification cache's stores): a few hot
// slots over a sync.Pool. A released item parks in the first empty slot,
// where the next acquire finds it from whichever goroutine and P it runs
// on; the pool is reached only when more items are idle at once than there
// are slots. The pool alone loses items at random — Put parks a lone item
// in the releasing P's private slot, which a Get on another P cannot steal
// — and a miss regrows everything from nil, tens of MB on a drone flood.
// The price is that up to Slots released items stay reachable for the life
// of the process; what the pool holds the collector still reclaims.
//
// The list moves pointers only: scrubbing an item before Release, so that
// it carries capacity and never content, is the caller's job.
package freelist

import (
	"sync"
	"sync/atomic"
)

// Slots is the number of hot slots: how many items can sit idle at once
// and still all be found by the next acquires.
const Slots = 4

// List is a free list of *T. Safe for concurrent use.
type List[T any] struct {
	hot  [Slots]atomic.Pointer[T]
	pool sync.Pool
}

// New returns an empty list whose misses are served by fresh.
func New[T any](fresh func() *T) *List[T] {
	return &List[T]{pool: sync.Pool{New: func() any { return fresh() }}}
}

// Acquire takes an item off the list, or builds a fresh one when the list
// is empty.
func (l *List[T]) Acquire() *T {
	for i := range l.hot {
		if x := l.hot[i].Swap(nil); x != nil {
			return x
		}
	}
	return l.pool.Get().(*T)
}

// Release puts x on the list. The caller must not touch x afterwards.
func (l *List[T]) Release(x *T) {
	for i := range l.hot {
		if l.hot[i].CompareAndSwap(nil, x) {
			return
		}
	}
	l.pool.Put(x)
}
