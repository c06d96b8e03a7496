package nectar

import (
	"sync"
	"testing"

	"github.com/nectar-repro/nectar/internal/graph"
	"github.com/nectar-repro/nectar/internal/ids"
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
					if e, got := c.decide(viewKey{24, 24, ring.EdgeSum()}, ring, v.k); got != v.want || e.reach[w] != 24 {
						t.Errorf("κ(ring) ≥ %d = %v, want %v; reachable %d", v.k, got, v.want, e.reach[w])
					}
				}
			}()
		}
		close(start)
		wg.Wait()
		if want := int64((callers - 1) * len(views)); c.Hits() != want {
			t.Fatalf("round %d: %d hits, want %d", round, c.Hits(), want)
		}
		if len(c.entries) != 1 {
			t.Fatalf("round %d: one view filed as %d entries", round, len(c.entries))
		}
	}
}

// TestDecideCacheSeparatesCollidingViews: two different views filed under
// one key — what a coalition shaping views of equal EdgeSum would achieve —
// keep their own verdicts, reachable counts and edge lists, and each counts
// its own hits.
func TestDecideCacheSeparatesCollidingViews(t *testing.T) {
	ring := topology.Ring(8) // κ = 2, one component
	squares := graph.New(8)  // two 4-cycles: κ = 0, components of 4
	for v := 0; v < 8; v++ {
		squares.AddEdge(ids.NodeID(v), ids.NodeID(v/4*4+(v+1)%4))
	}
	key := viewKey{n: 8, m: 8, sum: 1}
	c := NewDecideCache()
	for pass := 0; pass < 2; pass++ {
		for _, v := range []struct {
			g     *graph.Graph
			over  bool
			reach int32
		}{{ring, true, 8}, {squares, false, 4}} {
			e, over := c.decide(key, v.g, 2)
			if over != v.over || e.reach[5] != v.reach || !v.g.SameEdges(e.edges) {
				t.Errorf("pass %d: %v decided κ ≥ 2 = %v, reachable %d, on %d edges; want %v, %d",
					pass, v.g, over, e.reach[5], len(e.edges), v.over, v.reach)
			}
		}
	}
	if got := len(c.entries[key]); got != 2 {
		t.Errorf("%d entries under the shared key, want 2", got)
	}
	if c.Hits() != 2 {
		t.Errorf("%d hits, want one per view on the second pass", c.Hits())
	}
}
