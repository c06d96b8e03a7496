package graph

import (
	"math/rand"
	"testing"

	"github.com/nectar-repro/nectar/internal/ids"
)

// bruteConnectivity computes κ(G) by enumerating vertex subsets in
// increasing size order. Exponential; only for small test graphs.
func bruteConnectivity(g *Graph) int {
	n := g.N()
	if n < 2 {
		return 0
	}
	if g.IsComplete() {
		return n - 1
	}
	for size := 0; size < n-1; size++ {
		if cutOfSizeExists(g, size) {
			return size
		}
	}
	return n - 1
}

// cutOfSizeExists reports whether some vertex subset of exactly `size`
// vertices disconnects the remaining induced subgraph.
func cutOfSizeExists(g *Graph, size int) bool {
	n := g.N()
	subset := make([]ids.NodeID, size)
	var rec func(start, idx int) bool
	rec = func(start, idx int) bool {
		if idx == size {
			drop := ids.NewSet(subset...)
			return !g.InducedSubgraphConnected(drop)
		}
		for v := start; v <= n-(size-idx); v++ {
			subset[idx] = ids.NodeID(v)
			if rec(v+1, idx+1) {
				return true
			}
		}
		return false
	}
	return rec(0, 0)
}

func petersenGraph() *Graph {
	g := New(10)
	for v := 0; v < 5; v++ {
		g.AddEdge(ids.NodeID(v), ids.NodeID((v+1)%5)) // outer cycle
		g.AddEdge(ids.NodeID(v), ids.NodeID(v+5))     // spokes
		g.AddEdge(ids.NodeID(v+5), ids.NodeID((v+2)%5+5))
	}
	return g
}

func TestConnectivityKnownGraphs(t *testing.T) {
	star := New(6)
	for v := ids.NodeID(1); v < 6; v++ {
		star.AddEdge(0, v)
	}
	tests := []struct {
		name string
		g    *Graph
		want int
	}{
		{"empty0", New(0), 0},
		{"single", New(1), 0},
		{"two isolated", New(2), 0},
		{"K2", completeGraph(2), 1},
		{"path4", pathGraph(4), 1},
		{"cycle5", cycleGraph(5), 2},
		{"cycle8", cycleGraph(8), 2},
		{"star6", star, 1},
		{"K5", completeGraph(5), 4},
		{"K7", completeGraph(7), 6},
		{"petersen", petersenGraph(), 3},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.g.Connectivity(); got != tc.want {
				t.Errorf("Connectivity = %d, want %d", got, tc.want)
			}
		})
	}
}

func TestConnectivityMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(7) // up to 8 vertices: brute force stays fast
		g := randomGraph(n, 0.15+0.7*rng.Float64(), rng)
		want := bruteConnectivity(g)
		if got := g.Connectivity(); got != want {
			t.Fatalf("trial %d: Connectivity=%d brute=%d on %v", trial, got, want, g)
		}
	}
}

func TestConnectivityAtLeastConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(9)
		g := randomGraph(n, 0.5, rng)
		k := g.Connectivity()
		for threshold := 0; threshold <= n; threshold++ {
			want := k >= threshold
			if got := g.ConnectivityAtLeast(threshold); got != want {
				t.Fatalf("trial %d: ConnectivityAtLeast(%d)=%v but κ=%d (%v)",
					trial, threshold, got, k, g)
			}
		}
	}
}

func TestTByzPartitionableEquivalence(t *testing.T) {
	// Corollary 1: G is t-Byzantine partitionable iff κ(G) ≤ t.
	// Cross-check the operational definition (Theorem 1: some set of ≤ t
	// vertices whose removal partitions the rest) by brute force.
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 120; trial++ {
		n := 2 + rng.Intn(6)
		g := randomGraph(n, 0.2+0.6*rng.Float64(), rng)
		for tb := 0; tb < n-1; tb++ {
			operational := false
			for size := 0; size <= tb && !operational; size++ {
				operational = cutOfSizeExists(g, size)
			}
			if got := g.IsTByzPartitionable(tb); got != operational {
				t.Fatalf("trial %d t=%d: IsTByzPartitionable=%v, brute operational=%v on %v",
					trial, tb, got, operational, g)
			}
		}
	}
}

func TestLocalConnectivityMenger(t *testing.T) {
	// κ(s,t) for non-adjacent s,t equals the minimum s-t separating vertex
	// set, computed by brute force.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 150; trial++ {
		n := 3 + rng.Intn(5)
		g := randomGraph(n, 0.5, rng)
		s, u := ids.NodeID(rng.Intn(n)), ids.NodeID(rng.Intn(n))
		if s == u || g.HasEdge(s, u) {
			continue
		}
		want := bruteLocalCut(g, s, u)
		if got := g.LocalConnectivity(s, u); got != want {
			t.Fatalf("trial %d: LocalConnectivity(%v,%v)=%d, brute=%d on %v",
				trial, s, u, got, want, g)
		}
	}
}

// bruteLocalCut finds the smallest vertex set (excluding s,t) separating s
// from t.
func bruteLocalCut(g *Graph, s, t ids.NodeID) int {
	n := g.N()
	var others []ids.NodeID
	for v := 0; v < n; v++ {
		if ids.NodeID(v) != s && ids.NodeID(v) != t {
			others = append(others, ids.NodeID(v))
		}
	}
	for size := 0; size <= len(others); size++ {
		if separatorOfSize(g, s, t, others, size) {
			return size
		}
	}
	return len(others)
}

func separatorOfSize(g *Graph, s, t ids.NodeID, others []ids.NodeID, size int) bool {
	subset := make([]ids.NodeID, size)
	var rec func(start, idx int) bool
	rec = func(start, idx int) bool {
		if idx == size {
			h := g.RemoveVertices(ids.NewSet(subset...))
			return !h.Reachable(s)[t]
		}
		for i := start; i <= len(others)-(size-idx); i++ {
			subset[idx] = others[i]
			if rec(i+1, idx+1) {
				return true
			}
		}
		return false
	}
	return rec(0, 0)
}

func TestLocalConnectivityPanics(t *testing.T) {
	g := completeGraph(3)
	for _, tc := range []struct {
		name string
		s, u ids.NodeID
	}{{"same", 1, 1}, {"adjacent", 0, 1}} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			g.LocalConnectivity(tc.s, tc.u)
		})
	}
}

func TestMinVertexCutIsValidAndMinimum(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	checked := 0
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(8)
		g := randomGraph(n, 0.4+0.4*rng.Float64(), rng)
		cut, ok := g.MinVertexCut()
		k := g.Connectivity()
		if !ok {
			if !g.IsComplete() && g.N() >= 2 {
				t.Fatalf("no cut returned for non-complete graph %v", g)
			}
			continue
		}
		checked++
		if len(cut) != k {
			t.Fatalf("cut size %d != κ %d on %v", len(cut), k, g)
		}
		if g.InducedSubgraphConnected(ids.NewSet(cut...)) {
			t.Fatalf("returned cut %v does not disconnect %v", cut, g)
		}
	}
	if checked == 0 {
		t.Fatal("no non-complete graphs exercised")
	}
}

func TestMinVertexCutSpecialCases(t *testing.T) {
	if _, ok := completeGraph(4).MinVertexCut(); ok {
		t.Error("complete graph should have no vertex cut")
	}
	if _, ok := New(1).MinVertexCut(); ok {
		t.Error("single vertex should have no vertex cut")
	}
	cut, ok := New(3).MinVertexCut() // disconnected: empty cut works
	if !ok || len(cut) != 0 {
		t.Errorf("disconnected graph cut = (%v,%v), want empty cut", cut, ok)
	}
}

func TestConnectivityAtMostMinDegree(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(10)
		g := randomGraph(n, 0.5, rng)
		if k, d := g.Connectivity(), g.MinDegree(); k > d {
			t.Fatalf("κ=%d exceeds min degree %d on %v", k, d, g)
		}
	}
}

func BenchmarkConnectivityRing100(b *testing.B) {
	g := cycleGraph(100)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if g.Connectivity() != 2 {
			b.Fatal("wrong connectivity")
		}
	}
}

func BenchmarkConnectivityAtLeastDense(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	g := randomGraph(100, 0.3, rng)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.ConnectivityAtLeast(5)
	}
}

// TestFlowNetAllocatesTwo pins a flow network's build at two objects, the
// network and the one slab its arrays and cursors are carved from,
// whatever the graph: a dynamic run builds one per epoch's κ.
func TestFlowNetAllocatesTwo(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, g := range []*Graph{New(1), randomGraph(12, 0.5, rng), randomGraph(200, 0.05, rng)} {
		if a := testing.AllocsPerRun(10, func() { newFlowNet(g) }); a != 2 {
			t.Errorf("newFlowNet on n=%d m=%d allocates %.0f, want 2", g.N(), g.M(), a)
		}
	}
}
