package graph

import (
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/nectar-repro/nectar/internal/ids"
)

func TestNewEdgeNormalizes(t *testing.T) {
	e := NewEdge(5, 2)
	if e.U != 2 || e.V != 5 {
		t.Errorf("NewEdge(5,2) = %v, want {2,5}", e)
	}
}

func TestNewEdgePanicsOnSelfLoop(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewEdge(3,3) did not panic")
		}
	}()
	NewEdge(3, 3)
}

func TestAddRemoveEdge(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 0) // duplicate: no-op
	g.AddEdge(2, 1)
	if g.M() != 2 {
		t.Fatalf("M = %d, want 2", g.M())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) || !g.HasEdge(1, 2) {
		t.Error("HasEdge missing inserted edges")
	}
	if g.HasEdge(0, 2) || g.HasEdge(3, 3) {
		t.Error("HasEdge reports absent edge")
	}
	if got := g.Neighbors(1); !reflect.DeepEqual(got, []ids.NodeID{0, 2}) {
		t.Errorf("Neighbors(1) = %v, want [0 2]", got)
	}
	g.RemoveEdge(0, 1)
	g.RemoveEdge(0, 1) // absent: no-op
	if g.M() != 1 || g.HasEdge(0, 1) {
		t.Errorf("after remove: M=%d HasEdge(0,1)=%v", g.M(), g.HasEdge(0, 1))
	}
	if g.Degree(0) != 0 || g.Degree(1) != 1 {
		t.Errorf("degrees wrong after removal: %d, %d", g.Degree(0), g.Degree(1))
	}
}

func TestEdgesSortedNormalized(t *testing.T) {
	g := New(5)
	g.AddEdge(4, 0)
	g.AddEdge(2, 1)
	g.AddEdge(3, 1)
	want := []Edge{{0, 4}, {1, 2}, {1, 3}}
	if got := g.Edges(); !reflect.DeepEqual(got, want) {
		t.Errorf("Edges = %v, want %v", got, want)
	}
}

func TestFromEdgesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(12)
		g := randomGraph(n, 0.4, rng)
		h := FromEdges(n, g.Edges())
		if !g.Equal(h) {
			t.Fatalf("FromEdges(Edges) differs: %v vs %v", g, h)
		}
	}
}

// addEach is the reference FromEdges is held to: one AddEdge per edge.
func addEach(n int, edges []Edge) *Graph {
	g := New(n)
	for _, e := range edges {
		g.AddEdge(e.U, e.V)
	}
	return g
}

// panicValue runs f and returns what it panicked with, nil if it returned.
func panicValue(f func()) (v any) {
	defer func() { v = recover() }()
	f()
	return nil
}

// TestFromEdgesMatchesAddEdge: FromEdges builds what one AddEdge per edge
// builds, on random edge lists with repeats in both orientations and
// isolated vertices; edits after the build (adds that outgrow a capped
// window included) go on matching; and a list with a self-loop or an
// out-of-range vertex panics with AddEdge's message for its first bad edge.
func TestFromEdgesMatchesAddEdge(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(30)
		wired := 1 + rng.Intn(n) // vertices wired..n-1 stay isolated
		var edges []Edge
		for i, m := 0, rng.Intn(4*n); i < m && wired > 1; i++ {
			u, v := ids.NodeID(rng.Intn(wired)), ids.NodeID(rng.Intn(wired))
			if u == v {
				continue
			}
			edges = append(edges, Edge{U: u, V: v}) // either orientation
			if rng.Intn(4) == 0 {
				edges = append(edges, edges[rng.Intn(len(edges))])
			}
			if rng.Intn(4) == 0 {
				e := edges[rng.Intn(len(edges))]
				edges = append(edges, Edge{U: e.V, V: e.U})
			}
		}
		got, want := FromEdges(n, edges), addEach(n, edges)
		if !got.Equal(want) || got.M() != want.M() || got.String() != want.String() {
			t.Fatalf("trial %d: FromEdges(%d, %v) = %v, want %v", trial, n, edges, got, want)
		}
		for i := 0; i < 20 && n > 1; i++ {
			u, v := ids.NodeID(rng.Intn(n)), ids.NodeID(rng.Intn(n))
			if u == v {
				continue
			}
			if rng.Intn(3) == 0 {
				got.RemoveEdge(u, v)
				want.RemoveEdge(u, v)
			} else {
				got.AddEdge(u, v)
				want.AddEdge(u, v)
			}
		}
		if !got.Equal(want) || got.String() != want.String() {
			t.Fatalf("trial %d: after edits %v, want %v", trial, got, want)
		}

		bad := slices.Clone(edges)
		w := ids.NodeID(rng.Intn(n))
		for _, e := range []Edge{{U: w, V: w}, {U: w, V: ids.NodeID(n + rng.Intn(3))}, {U: ids.NodeID(n), V: w}} {
			bad = slices.Insert(bad, rng.Intn(len(bad)+1), e)
		}
		gotP := panicValue(func() { FromEdges(n, bad) })
		wantP := panicValue(func() { addEach(n, bad) })
		if gotP == nil || gotP != wantP {
			t.Fatalf("trial %d: FromEdges(%d, %v) panics with %v, AddEdge with %v", trial, n, bad, gotP, wantP)
		}
	}
}

// TestCloneIndependence: a clone's lists are windows of one slab, so edits
// on either side — adds that grow a list past its window included — must
// leave the other side as it was and the edited side's other lists intact.
// Vertices 20..23 stay isolated (empty windows) until edited, and a fresh
// clone prints and compares as its source does.
func TestCloneIndependence(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	c := g.Clone()
	c.AddEdge(1, 2)
	c.RemoveEdge(0, 1)
	if !g.HasEdge(0, 1) || g.HasEdge(1, 2) {
		t.Error("Clone shares state with original")
	}

	const n, wired = 24, 20
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 40; trial++ {
		src := FromEdges(n, randomGraph(wired, 0.2, rng).Edges())
		c := src.Clone()
		if !c.Equal(src) || !src.Equal(c) || c.String() != src.String() || c.DOT("g") != src.DOT("g") {
			t.Fatalf("trial %d: clone %v of %v prints or compares differently", trial, c, src)
		}
		edited, other := c, src
		if trial%2 == 1 {
			edited, other = src, c
		}
		want, model := other.String(), FromEdges(n, edited.Edges())
		for i := 0; i < 60; i++ {
			u, v := ids.NodeID(rng.Intn(n)), ids.NodeID(rng.Intn(n))
			if u == v {
				continue
			}
			if rng.Intn(2) == 0 {
				edited.AddEdge(u, v)
				model.AddEdge(u, v)
			} else {
				edited.RemoveEdge(u, v)
				model.RemoveEdge(u, v)
			}
		}
		if got := other.String(); got != want {
			t.Fatalf("trial %d: editing one side changed the other:\n got %s\nwant %s", trial, got, want)
		}
		if !edited.Equal(model) || edited.String() != model.String() {
			t.Fatalf("trial %d: edited side %v, want %v", trial, edited, model)
		}
	}
}

func TestRemoveVertices(t *testing.T) {
	// Path 0-1-2-3; dropping vertex 1 isolates it and splits the path.
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	h := g.RemoveVertices(ids.NewSet(1))
	if h.Degree(1) != 0 {
		t.Errorf("dropped vertex still has degree %d", h.Degree(1))
	}
	if !h.HasEdge(2, 3) {
		t.Error("unrelated edge removed")
	}
	if h.CountReachable(0) != 1 {
		t.Errorf("reachable from 0 = %d, want 1", h.CountReachable(0))
	}
	if g.M() != 3 {
		t.Error("RemoveVertices mutated the receiver")
	}
}

func TestInducedSubgraphConnected(t *testing.T) {
	// Star with center 0: removing the center partitions the leaves.
	g := New(5)
	for v := ids.NodeID(1); v < 5; v++ {
		g.AddEdge(0, v)
	}
	if !g.InducedSubgraphConnected(ids.NewSet()) {
		t.Error("full star should be connected")
	}
	if g.InducedSubgraphConnected(ids.NewSet(0)) {
		t.Error("star minus center should be disconnected")
	}
	if !g.InducedSubgraphConnected(ids.NewSet(1, 2, 3)) {
		t.Error("star minus leaves should stay connected")
	}
	// Dropping all but one vertex is trivially connected.
	if !g.InducedSubgraphConnected(ids.NewSet(0, 1, 2, 3)) {
		t.Error("single remaining vertex should count as connected")
	}
}

func TestMinDegree(t *testing.T) {
	g := New(4)
	if g.MinDegree() != 0 {
		t.Error("empty graph min degree should be 0")
	}
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(3, 0)
	if g.MinDegree() != 2 {
		t.Errorf("ring MinDegree = %d, want 2", g.MinDegree())
	}
}

func TestStringAndDOT(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	if s := g.String(); !strings.Contains(s, "n=3") || !strings.Contains(s, "{p0,p1}") {
		t.Errorf("String = %q", s)
	}
	dot := g.DOT("g")
	if !strings.Contains(dot, "0 -- 1;") || !strings.HasPrefix(dot, "graph \"g\"") {
		t.Errorf("DOT = %q", dot)
	}
}

// randomGraph returns an Erdős–Rényi style graph for tests.
func randomGraph(n int, p float64, rng *rand.Rand) *Graph {
	g := New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				g.AddEdge(ids.NodeID(u), ids.NodeID(v))
			}
		}
	}
	return g
}

// pathGraph returns the path 0-1-...-n-1.
func pathGraph(n int) *Graph {
	g := New(n)
	for v := 0; v < n-1; v++ {
		g.AddEdge(ids.NodeID(v), ids.NodeID(v+1))
	}
	return g
}

// cycleGraph returns the cycle over n vertices.
func cycleGraph(n int) *Graph {
	g := pathGraph(n)
	if n > 2 {
		g.AddEdge(0, ids.NodeID(n-1))
	}
	return g
}

// completeGraph returns K_n.
func completeGraph(n int) *Graph {
	g := New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			g.AddEdge(ids.NodeID(u), ids.NodeID(v))
		}
	}
	return g
}
