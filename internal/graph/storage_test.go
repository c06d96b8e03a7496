package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/nectar-repro/nectar/internal/ids"
)

// The bit rows beside the neighbor lists — the whole matrix up to n = 192,
// lazy per-vertex rows above — exist only to answer HasEdge faster. These
// tests drive random mutation sequences at vertex counts on both sides of
// every boundary of that storage (a row of one, two, three, four words; the
// last n with a matrix and the first without) and require every observable
// to match a reference that has the neighbor lists and nothing else.

// edgeModel is the independent model: a set of normalized edges.
type edgeModel struct {
	n     int
	edges map[Edge]bool
}

// listOnly builds a Graph with the model's edges and no bit storage at
// all, whatever its size: HasEdge, Edges and Connectivity on it run on the
// sorted lists alone.
func (m *edgeModel) listOnly() *Graph {
	ref := &Graph{n: m.n, nbr: make([][]ids.NodeID, m.n), m: len(m.edges)}
	for e := range m.edges {
		ref.nbr[e.U] = append(ref.nbr[e.U], e.V)
		ref.nbr[e.V] = append(ref.nbr[e.V], e.U)
	}
	for _, l := range ref.nbr {
		slices.Sort(l)
	}
	return ref
}

// checkAgainst compares every observable of g with the list-only
// reference of the model.
func checkAgainst(t *testing.T, where string, g *Graph, m *edgeModel) {
	t.Helper()
	ref := m.listOnly()
	if g.N() != m.n || g.M() != len(m.edges) {
		t.Fatalf("%s: n=%d m=%d, want n=%d m=%d", where, g.N(), g.M(), m.n, len(m.edges))
	}
	for u := 0; u < m.n; u++ {
		uu := ids.NodeID(u)
		got, want := g.Neighbors(uu), ref.Neighbors(uu)
		if len(got) != len(want) {
			t.Fatalf("%s: Neighbors(%d) = %v, want %v", where, u, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: Neighbors(%d) = %v, want %v", where, u, got, want)
			}
		}
		for v := 0; v < m.n; v++ {
			vv := ids.NodeID(v)
			want := false
			if u != v {
				want = m.edges[NewEdge(uu, vv)]
			}
			if g.HasEdge(uu, vv) != want || ref.HasEdge(uu, vv) != want {
				t.Fatalf("%s: HasEdge(%d,%d) = %v (list-only %v), want %v", where, u, v, g.HasEdge(uu, vv), ref.HasEdge(uu, vv), want)
			}
		}
	}
	if !g.Equal(ref) || !ref.Equal(g) {
		t.Fatalf("%s: not Equal to the list-only reference", where)
	}
	if !slices.Equal(g.Edges(), ref.Edges()) {
		t.Fatalf("%s: Edges differ from the list-only reference", where)
	}
	if got, want := g.Connectivity(), ref.Connectivity(); got != want {
		t.Fatalf("%s: Connectivity = %d, list-only reference gives %d", where, got, want)
	}
}

func TestStorageMatchesListOnlyReference(t *testing.T) {
	for _, n := range []int{1, 2, 63, 64, 65, 128, 192, 193, 300} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(n)))
			g := New(n)
			m := &edgeModel{n: n, edges: map[Edge]bool{}}
			checkAgainst(t, "empty", g, m)
			if n < 2 {
				return
			}
			steps := 12 * n
			for step := 1; step <= steps; step++ {
				// Half the endpoints land on a few hub vertices, so that at
				// n > 192 their degree crosses bitsetDegreeThreshold (rows
				// appear mid-sequence) while most vertices stay list-only;
				// vertex n-1 is a hub to exercise the last bit of a row.
				u := ids.NodeID(rng.Intn(n))
				if step%2 == 0 {
					u = []ids.NodeID{0, ids.NodeID(n / 2), ids.NodeID(n - 1)}[rng.Intn(3)]
				}
				v := ids.NodeID(rng.Intn(n))
				if u == v {
					continue
				}
				e := NewEdge(u, v)
				// Removals are a third of the steps, more once the graph
				// has filled up, so hubs cross the threshold both ways.
				if rng.Intn(3) == 0 || (m.edges[e] && rng.Intn(2) == 0) {
					g.RemoveEdge(u, v)
					delete(m.edges, e)
				} else {
					g.AddEdge(v, u)
					m.edges[e] = true
				}
				switch {
				case step%(3*n) == 0:
					checkAgainst(t, fmt.Sprintf("step %d", step), g, m)
				case step%(4*n) == 1:
					// Continue on a clone, on a rebuild from the edge list,
					// or on a graph loaded from it, whose lists share one
					// array: each must carry the full state forward.
					switch rng.Intn(3) {
					case 0:
						g = g.Clone()
					case 1:
						g = FromEdges(n, m.listOnly().Edges())
					default:
						loaded := usedGraph(rng)
						loaded.Load(setOf(n, m.listOnly().Edges()))
						g = loaded
					}
				}
			}
			checkAgainst(t, "final", g, m)
			if n > 192 && g.bits == nil {
				t.Fatal("no vertex crossed the dense threshold: the lazy-row path went untested")
			}

			// Emptying the graph again leaves the storage consistent.
			for _, e := range m.listOnly().Edges() {
				g.RemoveEdge(e.V, e.U)
				delete(m.edges, e)
			}
			checkAgainst(t, "emptied", g, m)
		})
	}
}

// TestCloneCopiesBitMatrixOnce: the clone of a small graph gets its own
// copy of the bit matrix — one allocation, not one per row — and shares no
// word of it with the original.
func TestCloneCopiesBitMatrixOnce(t *testing.T) {
	const n = 100
	g := New(n)
	if g.dense != nil {
		t.Fatal("an edgeless graph allocated its bit matrix")
	}
	for v := 1; v < n; v++ {
		g.AddEdge(0, ids.NodeID(v))
		g.AddEdge(ids.NodeID(v), ids.NodeID((v%(n-1))+1))
	}
	if len(g.dense) != n*2 || g.bits != nil {
		t.Fatalf("n=%d: matrix of %d words and row table %v, want %d words and no table", n, len(g.dense), g.bits != nil, n*2)
	}
	c := g.Clone()
	if len(c.dense) != len(g.dense) || &c.dense[0] == &g.dense[0] {
		t.Fatal("clone shares or lacks the bit matrix")
	}
	for i := range c.dense {
		c.dense[i] = 0
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(n-1, 0) {
		t.Fatal("clearing the clone's matrix changed the original")
	}

	// n lists + the list table + the Graph + the matrix; a per-row copy
	// would add n-1 more.
	allocs := testing.AllocsPerRun(20, func() { _ = g.Clone() })
	if want := float64(n + 3); allocs != want {
		t.Fatalf("Clone made %v allocations, want %v", allocs, want)
	}
}

// usedGraph returns a graph as some earlier use left it — fresh, edited, or
// loaded and then edited, at one of a few sizes — so that Load is driven
// from every storage state a recycled graph can be in.
func usedGraph(rng *rand.Rand) *Graph {
	n := []int{0, 5, 100, 300}[rng.Intn(4)]
	g, m := New(n), &edgeModel{n: n, edges: map[Edge]bool{}}
	randomEdits(rng, g, m, 4*n)
	if rng.Intn(2) == 0 {
		g.Load(setOf(n, m.listOnly().Edges()))
		randomEdits(rng, g, m, n)
	}
	return g
}

// randomEdits applies steps random insertions and removals to g and to the
// model, hub-heavy like TestStorageMatchesListOnlyReference's so that lists
// grow long, shrink again (leaving garbage beyond their lengths) and, at
// n > 192, hubs get lazy bit rows.
func randomEdits(rng *rand.Rand, g *Graph, m *edgeModel, steps int) {
	if m.n < 2 {
		return
	}
	for step := 0; step < steps; step++ {
		u, v := ids.NodeID(rng.Intn(m.n)), ids.NodeID(rng.Intn(m.n))
		if step%2 == 0 {
			u = ids.NodeID((m.n - 1) * rng.Intn(2))
		}
		if u == v {
			continue
		}
		if e := NewEdge(u, v); rng.Intn(4) == 0 {
			g.RemoveEdge(u, v)
			delete(m.edges, e)
		} else {
			g.AddEdge(u, v)
			m.edges[e] = true
		}
	}
}

// TestResetMatchesNew: one Graph reset through vertex counts on both sides
// of every storage boundary — growing, shrinking, through zero, each time
// from a state full of edges, bit rows and list garbage — is from every
// Reset on indistinguishable from New(n): empty, and after a random edit
// script equal in every observable to a fresh graph given the same script.
func TestResetMatchesNew(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := New(5)
	sizes := []int{300, 64, 0, 193, 1, 192, 300, 2, 193, 64, 64, 0, 300}
	for i, n := range sizes {
		where := fmt.Sprintf("reset %d to n=%d", i, n)
		g.Reset(n)
		m := &edgeModel{n: n, edges: map[Edge]bool{}}
		checkAgainst(t, where+", empty", g, m)
		matrix := 0 // words of bit matrix a graph of this size may hold
		if n <= 192 {
			matrix = n * ((n + 63) / 64)
		}
		if g.bits != nil || (g.dense != nil && len(g.dense) != matrix) {
			t.Fatalf("%s: kept lazy rows, or a bit matrix of %d words where %d fit", where, len(g.dense), matrix)
		}
		seed := rng.Int63()
		randomEdits(rand.New(rand.NewSource(seed)), g, m, 10*n)
		checkAgainst(t, where+", edited", g, m)
		fresh, fm := New(n), &edgeModel{n: n, edges: map[Edge]bool{}}
		randomEdits(rand.New(rand.NewSource(seed)), fresh, fm, 10*n)
		if !g.Equal(fresh) || !slices.Equal(g.Edges(), fresh.Edges()) || g.Connectivity() != fresh.Connectivity() {
			t.Fatalf("%s: differs from New(%d) after the same edits", where, n)
		}
		if n > 192 && g.bits == nil {
			t.Fatalf("%s: no hub crossed the dense threshold: lazy rows went untested", where)
		}
	}
}

// TestResetKeepsCapacity pins the point of Reset: rebuilding the same graph
// on a reset one allocates nothing — not the table, not a list, not the bit
// matrix — where New pays for each.
func TestResetKeepsCapacity(t *testing.T) {
	for _, n := range []int{64, 300} {
		g := New(n)
		build := func() {
			for v := 1; v < n; v++ {
				g.AddEdge(ids.NodeID(v), ids.NodeID((v-1)/3)) // a 3-ary tree
			}
		}
		build()
		if allocs := testing.AllocsPerRun(10, func() { g.Reset(n); build() }); allocs != 0 {
			t.Errorf("n=%d: rebuilding on a reset graph allocates %.0f objects, want 0", n, allocs)
		}
	}
}

func TestBitsetRowsStayConsistentAcrossThreshold(t *testing.T) {
	// Drive a vertex's degree well past bitsetDegreeThreshold, then back
	// down, checking HasEdge/Degree against a naive map at every step. n is
	// large enough that rows are per-vertex and lazy, not one whole matrix.
	n := bitsetDegreeThreshold * 4
	g := New(n)
	naive := map[[2]ids.NodeID]bool{}
	has := func(u, v ids.NodeID) bool {
		if u > v {
			u, v = v, u
		}
		return naive[[2]ids.NodeID{u, v}]
	}
	rng := rand.New(rand.NewSource(11))
	for step := 0; step < 6000; step++ {
		// Bias edges onto hub vertex 0 so its row crosses the threshold.
		u := ids.NodeID(0)
		if step%3 == 0 {
			u = ids.NodeID(rng.Intn(n))
		}
		v := ids.NodeID(rng.Intn(n))
		if u == v {
			continue
		}
		a, b := u, v
		if a > b {
			a, b = b, a
		}
		if has(u, v) {
			g.RemoveEdge(u, v)
			delete(naive, [2]ids.NodeID{a, b})
		} else {
			g.AddEdge(u, v)
			naive[[2]ids.NodeID{a, b}] = true
		}
		if g.M() != len(naive) {
			t.Fatalf("step %d: m=%d want %d", step, g.M(), len(naive))
		}
	}
	for u := 0; u < n; u++ {
		deg := 0
		for v := 0; v < n; v++ {
			if u == v {
				continue
			}
			uu, vv := ids.NodeID(u), ids.NodeID(v)
			if g.HasEdge(uu, vv) != has(uu, vv) {
				t.Fatalf("HasEdge(%d,%d)=%v disagrees with naive", u, v, g.HasEdge(uu, vv))
			}
			if has(uu, vv) {
				deg++
			}
		}
		if g.Degree(ids.NodeID(u)) != deg {
			t.Fatalf("Degree(%d)=%d want %d", u, g.Degree(ids.NodeID(u)), deg)
		}
	}
	// Clone of a graph with materialized rows stays independent and equal.
	c := g.Clone()
	if !g.Equal(c) {
		t.Fatal("clone not equal")
	}
	e := c.Edges()[0]
	c.RemoveEdge(e.U, e.V)
	if !g.HasEdge(e.U, e.V) || c.HasEdge(e.U, e.V) {
		t.Fatal("clone shares bitset storage with original")
	}
	if g.Equal(c) {
		t.Fatal("comparison ignored removed edge")
	}
}
