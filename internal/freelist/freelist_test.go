package freelist

import (
	"runtime"
	"sync"
	"testing"
)

type item struct{ uses int }

// TestSlotsSurviveCollection: up to Slots released items are found again
// by later acquires, in any number and after any number of collections —
// the promise a bare sync.Pool does not make.
func TestSlotsSurviveCollection(t *testing.T) {
	built := 0
	l := New(func() *item { built++; return new(item) })
	for round := 0; round < 5; round++ {
		var held []*item
		for k := 0; k < Slots; k++ {
			held = append(held, l.Acquire())
		}
		for i, a := range held {
			for _, b := range held[:i] {
				if a == b {
					t.Fatal("one item acquired twice")
				}
			}
			l.Release(a)
		}
		runtime.GC()
		runtime.GC() // two collections empty a sync.Pool
	}
	if built != Slots {
		t.Errorf("built %d items for %d held at once, want %d", built, Slots, Slots)
	}
}

// TestAcquireIsExclusive hammers one list from more goroutines than it has
// slots, so both the slots and the pool are in play; each holder writes to
// its item unsynchronized, which the race detector flags the moment two
// goroutines hold the same one.
func TestAcquireIsExclusive(t *testing.T) {
	l := New(func() *item { return new(item) })
	var wg sync.WaitGroup
	for g := 0; g < 2*Slots; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				x := l.Acquire()
				x.uses++
				l.Release(x)
			}
		}()
	}
	wg.Wait()
}
