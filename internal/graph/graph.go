// Package graph implements the undirected-graph substrate used throughout
// the reproduction: adjacency bookkeeping, traversals, and exact vertex
// connectivity.
//
// The paper reduces t-Byzantine partitionability to vertex connectivity
// (Theorem 1 / Corollary 1: G is t-Byzantine partitionable iff κ(G) ≤ t),
// and NECTAR's decision phase computes reachability and vertex
// connectivity on each node's discovered adjacency matrix (Alg. 1,
// ll. 16-23). This package provides those primitives for both the protocol
// and the experiment ground truth.
package graph

import (
	"fmt"
	"slices"
	"strings"

	"github.com/nectar-repro/nectar/internal/ids"
)

// Edge is an undirected edge between two vertices, normalized so that
// U < V. Use NewEdge to construct normalized edges.
type Edge struct {
	U, V ids.NodeID
}

// NewEdge returns the normalized edge {u, v}. It panics if u == v:
// the system model has no self-loop channels.
func NewEdge(u, v ids.NodeID) Edge {
	if u == v {
		panic(fmt.Sprintf("graph: self-loop edge on %v", u))
	}
	if u > v {
		u, v = v, u
	}
	return Edge{U: u, V: v}
}

// String implements fmt.Stringer.
func (e Edge) String() string { return fmt.Sprintf("{%v,%v}", e.U, e.V) }

// Graph is a simple undirected graph over the fixed vertex set [0, n).
// Vertices are ids.NodeID values; the vertex count is fixed at creation
// (the system model assumes all processes know n). The zero value is an
// empty graph over zero vertices; use New for a usable instance.
//
// A graph is its sorted neighbor lists and nothing else (O(n+m) per
// graph); HasEdge is a binary search of one list. The topology and the κ
// computation are its only readers, and no hot path asks it for an edge
// more than about once per relayed multicast (DESIGN.md §14).
//
// Graph is not safe for concurrent mutation; concurrent reads are safe.
type Graph struct {
	n    int
	nbr  [][]ids.NodeID // sorted neighbor lists
	flat []ids.NodeID   // Load's backing array for the lists, and its scratch
	m    int            // number of edges
}

// New returns an empty graph over n vertices.
func New(n int) *Graph {
	g := new(Graph)
	g.Reset(n)
	return g
}

// Reset makes g the empty graph over n vertices while keeping what it has
// allocated: the table of lists and every list's capacity. A graph rebuilt
// run after run — the decision memo's pooled graph, through Load — stops
// allocating once it has seen its working size.
func (g *Graph) Reset(n int) {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	// Every list is emptied, so regrowing into the table's capacity later
	// exposes nothing.
	for v := range g.nbr {
		g.nbr[v] = g.nbr[v][:0]
	}
	if n > cap(g.nbr) {
		grown := make([][]ids.NodeID, n)
		copy(grown, g.nbr[:cap(g.nbr)])
		g.nbr = grown
	}
	*g = Graph{n: n, nbr: g.nbr[:n], flat: g.flat}
}

// FromEdges builds a graph over n vertices with the given edges, as
// AddEdge would one by one: an edge given twice, in either orientation, is
// one edge, and a self-loop or an out-of-range vertex panics. Its lists
// are windows of one array, each capped at its length, as Clone's are.
func FromEdges(n int, edges []Edge) *Graph {
	g := New(n)
	// Count each vertex's entries, duplicates included, into off[v+1]...
	off := make([]int, n+1)
	for _, e := range edges {
		if e.U == e.V {
			panic(fmt.Sprintf("graph: self-loop on %v", e.U))
		}
		g.valid(e.U)
		g.valid(e.V)
		off[e.U+1]++
		off[e.V+1]++
	}
	for v := range n {
		off[v+1] += off[v]
	}
	// ...fill each vertex's window, advancing off[v] to its end...
	slab := make([]ids.NodeID, off[n])
	for _, e := range edges {
		slab[off[e.U]], slab[off[e.V]] = e.V, e.U
		off[e.U]++
		off[e.V]++
	}
	// ...then sort each window and drop its repeats.
	start := 0
	for v := range n {
		l := slab[start:off[v]]
		slices.Sort(l)
		l = slices.Compact(l)
		g.nbr[v] = l[:len(l):len(l)]
		g.m += len(l)
		start = off[v]
	}
	g.m /= 2
	return g
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return g.m }

// valid panics if v is outside [0, n).
func (g *Graph) valid(v ids.NodeID) {
	if int(v) >= g.n {
		panic(fmt.Sprintf("graph: vertex %v out of range [0,%d)", v, g.n))
	}
}

// hasNeighbor is the raw membership test behind HasEdge (no validation).
func (g *Graph) hasNeighbor(u, v ids.NodeID) bool {
	_, found := slices.BinarySearch(g.nbr[u], v)
	return found
}

// AddEdge inserts the undirected edge {u, v}. Adding an existing edge is a
// no-op. It panics on self-loops or out-of-range vertices.
func (g *Graph) AddEdge(u, v ids.NodeID) {
	if u == v {
		panic(fmt.Sprintf("graph: self-loop on %v", u))
	}
	g.valid(u)
	g.valid(v)
	if g.hasNeighbor(u, v) {
		return
	}
	g.nbr[u] = insertSorted(g.nbr[u], v)
	g.nbr[v] = insertSorted(g.nbr[v], u)
	g.m++
}

// RemoveEdge deletes the undirected edge {u, v} if present.
func (g *Graph) RemoveEdge(u, v ids.NodeID) {
	g.valid(u)
	g.valid(v)
	if u == v || !g.hasNeighbor(u, v) {
		return
	}
	g.nbr[u] = removeSorted(g.nbr[u], v)
	g.nbr[v] = removeSorted(g.nbr[v], u)
	g.m--
}

// HasEdge reports whether {u, v} is an edge.
func (g *Graph) HasEdge(u, v ids.NodeID) bool {
	g.valid(u)
	g.valid(v)
	return u != v && g.hasNeighbor(u, v)
}

// Degree returns the number of neighbors of v.
func (g *Graph) Degree(v ids.NodeID) int {
	g.valid(v)
	return len(g.nbr[v])
}

// MinDegree returns the minimum vertex degree, or 0 for the empty graph.
func (g *Graph) MinDegree() int {
	if g.n == 0 {
		return 0
	}
	min := g.n
	for v := 0; v < g.n; v++ {
		if d := len(g.nbr[v]); d < min {
			min = d
		}
	}
	return min
}

// Neighbors returns the sorted neighbor list of v. The returned slice is
// shared with the graph and must not be modified; copy it if needed.
func (g *Graph) Neighbors(v ids.NodeID) []ids.NodeID {
	g.valid(v)
	return g.nbr[v]
}

// Edges returns all edges in normalized, sorted order.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.m)
	for u := 0; u < g.n; u++ {
		for _, v := range g.nbr[u] {
			if ids.NodeID(u) < v {
				out = append(out, Edge{U: ids.NodeID(u), V: v})
			}
		}
	}
	return out
}

// Clone returns a deep copy of the graph. Its lists are consecutive
// windows of one backing array, as Load's are, each capped at its length:
// an AddEdge on the clone copies the list it grows rather than writing into
// the next one, so clones edited in place (a churn schedule's) stay apart.
func (g *Graph) Clone() *Graph {
	c := New(g.n)
	slab := make([]ids.NodeID, 0, 2*g.m)
	for u, l := range g.nbr[:g.n] {
		start := len(slab)
		slab = append(slab, l...)
		c.nbr[u] = slab[start:len(slab):len(slab)]
	}
	c.m = g.m
	return c
}

// Equal reports whether g and h have the same vertex count and edge set.
func (g *Graph) Equal(h *Graph) bool {
	if g.n != h.n || g.m != h.m {
		return false
	}
	for u := 0; u < g.n; u++ {
		a, b := g.nbr[u], h.nbr[u]
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
	}
	return true
}

// RemoveVertices returns a copy of g in which every vertex in drop has all
// of its incident edges removed. The vertex set (and vertex numbering) is
// preserved: dropped vertices become isolated. This matches the paper's
// "subgraph induced by V \ Vb" analyses while keeping IDs stable.
func (g *Graph) RemoveVertices(drop ids.Set) *Graph {
	c := g.Clone()
	for v := range drop {
		c.valid(v)
		for len(c.nbr[v]) > 0 {
			c.RemoveEdge(v, c.nbr[v][0])
		}
	}
	return c
}

// InducedSubgraphConnected reports whether the subgraph induced by the
// vertices NOT in drop is connected. A sub-vertex-set of size ≤ 1 counts
// as connected. This is the paper's "subgraph of correct nodes is
// connected" predicate with drop = Vb.
func (g *Graph) InducedSubgraphConnected(drop ids.Set) bool {
	keep := make([]bool, g.n)
	var start = -1
	cnt := 0
	for v := 0; v < g.n; v++ {
		if !drop.Has(ids.NodeID(v)) {
			keep[v] = true
			cnt++
			if start < 0 {
				start = v
			}
		}
	}
	if cnt <= 1 {
		return true
	}
	seen := make([]bool, g.n)
	stack := []int{start}
	seen[start] = true
	visited := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range g.nbr[u] {
			if keep[w] && !seen[w] {
				seen[w] = true
				visited++
				stack = append(stack, int(w))
			}
		}
	}
	return visited == cnt
}

// String renders the graph as "n=<n> m=<m> edges=[...]".
func (g *Graph) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d m=%d [", g.n, g.m)
	for i, e := range g.Edges() {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(e.String())
	}
	b.WriteByte(']')
	return b.String()
}

// DOT renders the graph in Graphviz DOT format.
func (g *Graph) DOT(name string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "graph %q {\n", name)
	for v := 0; v < g.n; v++ {
		fmt.Fprintf(&b, "  %d;\n", v)
	}
	for _, e := range g.Edges() {
		fmt.Fprintf(&b, "  %d -- %d;\n", e.U, e.V)
	}
	b.WriteString("}\n")
	return b.String()
}

func insertSorted(s []ids.NodeID, v ids.NodeID) []ids.NodeID {
	i, _ := slices.BinarySearch(s, v)
	if len(s) == cap(s) {
		// Grow straight to a small round capacity instead of letting append
		// walk 1→2→4, which costs a graph built edge by edge two more
		// allocations a list. Four entries, not more: degree-1 leaves
		// dominate the sparse large-n families, so slack per list adds up.
		c := 2 * cap(s)
		if c < 4 {
			c = 4
		}
		ns := make([]ids.NodeID, len(s)+1, c)
		copy(ns, s[:i])
		ns[i] = v
		copy(ns[i+1:], s[i:])
		return ns
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

func removeSorted(s []ids.NodeID, v ids.NodeID) []ids.NodeID {
	if i, found := slices.BinarySearch(s, v); found {
		return append(s[:i], s[i+1:]...)
	}
	return s
}
