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
	key := viewKey{24, 24, viewOf(ring).Sum()}
	const callers = 8
	for round := 0; round < 20; round++ {
		c := NewDecideCache()
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < callers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				view := viewOf(ring) // each node decides on a view of its own
				<-start
				for _, v := range views {
					if e, got := c.decide(key, view, v.k); got != v.want || e.reach[w] != 24 {
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

// viewOf is g's edge set as a node that discovered g holds it, its edges
// learned out of order.
func viewOf(g *graph.Graph) *graph.EdgeSet {
	s := new(graph.EdgeSet)
	s.Reset(g.N())
	es := g.Edges()
	for i := len(es) - 1; i >= 0; i-- {
		s.Add(es[i].U, es[i].V)
	}
	return s
}

// TestDecideCacheSeparatesCollidingViews: different views filed under one
// key — what a coalition shaping views of equal Sum would achieve — keep
// their own verdicts, reachable counts and edge lists, and each counts its
// own hits: two views of one size on either side of the set's storage
// boundary (n = 192), and a view whose edges are all a larger view's.
func TestDecideCacheSeparatesCollidingViews(t *testing.T) {
	for _, n := range []int{8, 200} {
		ring := topology.Ring(n) // κ = 2, one component
		halves := graph.New(n)   // two cycles: κ = 0, components of n/2
		for v := 0; v < n; v++ {
			half := v / (n / 2) * (n / 2)
			halves.AddEdge(ids.NodeID(v), ids.NodeID(half+(v+1)%(n/2)))
		}
		line := topology.Line(n) // the ring less one edge: κ = 1
		key := viewKey{n: n, m: n, sum: 1}
		c := NewDecideCache()
		for pass := 0; pass < 2; pass++ {
			for _, v := range []struct {
				g     *graph.Graph
				over  bool
				reach int32
			}{{ring, true, int32(n)}, {halves, false, int32(n / 2)}, {line, false, int32(n)}} {
				e, over := c.decide(key, viewOf(v.g), 2)
				if over != v.over || e.reach[5] != v.reach || !e.set.Equal(viewOf(v.g)) {
					t.Errorf("n=%d, pass %d: %v decided κ ≥ 2 = %v, reachable %d, on %d edges; want %v, %d",
						n, pass, v.g, over, e.reach[5], e.set.M(), v.over, v.reach)
				}
			}
		}
		if got := len(c.entries[key]); got != 3 {
			t.Errorf("n=%d: %d entries under the shared key, want 3", n, got)
		}
		if c.Hits() != 3 {
			t.Errorf("n=%d: %d hits, want one per view on the second pass", n, c.Hits())
		}
	}
}
