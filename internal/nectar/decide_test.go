package nectar

import (
	"sync"
	"testing"

	"github.com/nectar-repro/nectar/internal/topology"
)

// TestDecideCacheHitsAreScheduleIndependent: callers racing on one view
// may all compute the predicate, but exactly one of them owns the entry —
// every other lookup counts a hit, so Hits() depends on the views decided
// and not on the interleaving. Run under -race.
func TestDecideCacheHitsAreScheduleIndependent(t *testing.T) {
	views := []struct {
		k    int
		want bool
	}{{2, true}, {3, false}}
	ring := topology.Ring(24)
	const callers = 8
	for round := 0; round < 20; round++ {
		c := NewDecideCache()
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < callers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for _, v := range views {
					if got := c.connectivityAtLeast(ring, v.k); got != v.want {
						t.Errorf("κ(ring) ≥ %d = %v, want %v", v.k, got, v.want)
					}
				}
			}()
		}
		close(start)
		wg.Wait()
		if want := int64((callers - 1) * len(views)); c.Hits() != want {
			t.Fatalf("round %d: %d hits, want %d", round, c.Hits(), want)
		}
	}
}
