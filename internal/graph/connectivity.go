package graph

import (
	"fmt"

	"github.com/nectar-repro/nectar/internal/ids"
)

// This file implements exact vertex connectivity à la Even/Tarjan: κ(s,t)
// for non-adjacent s,t is computed as a max-flow on the vertex-split
// digraph (each vertex v becomes v_in → v_out with capacity 1; every
// undirected edge {u,v} becomes u_out → v_in and v_out → u_in with
// capacity n), and κ(G) is a minimum over a small set of pairs chosen so
// that at least one of them realizes a minimum vertex cut.
//
// The flow network is stored in compressed-sparse-row form and built once
// per graph: per-pair evaluation resets the capacity array to its pristine
// copy (one memcpy) instead of reallocating the arc lists, which dominated
// the profile at large n. Arc order within each node reproduces the append
// order of the historical per-pair builder exactly, so augmenting-path
// choices — and therefore the residual graph MinVertexCut extracts a cut
// from — are unchanged (DESIGN.md §14).
//
// Corollary 1 of the paper states that G is t-Byzantine partitionable iff
// κ(G) ≤ t, and NECTAR's decision phase needs exactly the predicate
// κ(G) > t, so ConnectivityUpTo and ConnectivityAtLeast terminate early.

// LocalConnectivity returns κ(s, t): the maximum number of internally
// vertex-disjoint s-t paths, equal by Menger's theorem to the size of a
// minimum vertex cut separating s from t. It panics if s == t or if s and
// t are adjacent (no vertex cut can separate adjacent vertices).
func (g *Graph) LocalConnectivity(s, t ids.NodeID) int {
	if s == t {
		panic("graph: LocalConnectivity with s == t")
	}
	if g.HasEdge(s, t) {
		panic(fmt.Sprintf("graph: LocalConnectivity of adjacent pair %v,%v", s, t))
	}
	f := newFlowNet(g)
	return f.maxflow(outNode(s), inNode(t), g.n)
}

// IsComplete reports whether every pair of distinct vertices is adjacent.
func (g *Graph) IsComplete() bool {
	return g.m == g.n*(g.n-1)/2
}

// Connectivity returns the vertex connectivity κ(G): the size of a
// smallest vertex subset whose removal disconnects the graph (or leaves a
// single vertex). By convention κ(K_n) = n-1, κ of a disconnected graph is
// 0, and κ of graphs with fewer than two vertices is 0.
func (g *Graph) Connectivity() int { return g.ConnectivityUpTo(g.n) }

// ConnectivityUpTo returns min(κ(G), limit). The max-flow search stops as
// soon as κ is known to reach limit, so a small limit is considerably
// cheaper than Connectivity; limit 1 is one traversal, and a graph with a
// cut vertex never reaches max-flow. One call answers every threshold up
// to limit: a trial's ground truth reads κ ≤ t and κ ≥ 2t from one.
func (g *Graph) ConnectivityUpTo(limit int) int {
	if limit <= 0 {
		return limit
	}
	if limit == 1 {
		if g.n >= 2 && g.IsConnected() {
			return 1
		}
		return 0
	}
	if g.kappaIsOne() {
		return 1
	}
	k, _, _ := g.connectivity(limit)
	return k
}

// ConnectivityAtLeast reports whether κ(G) ≥ k; NECTAR nodes use it with
// k = t+1 (Alg. 1 l. 18). κ ≤ n-1, so k ≥ n is false without a search.
func (g *Graph) ConnectivityAtLeast(k int) bool {
	return k <= 0 || k < g.n && g.ConnectivityUpTo(k) >= k
}

// kappaIsOne reports κ(G) == 1 in O(n+m) via articulation points: a
// connected non-complete graph has κ = 1 iff it has a cut vertex, or is
// K₂. This is the fast path that makes tree-topology ground truth and
// t ≥ 1 decisions linear — the n=10⁴ runs never reach max-flow on trees.
func (g *Graph) kappaIsOne() bool {
	if g.n < 2 || g.IsComplete() || !g.IsConnected() {
		return false
	}
	return g.n == 2 || g.HasArticulationPoint()
}

// IsTByzPartitionable reports whether G is t-Byzantine partitionable:
// per Corollary 1, κ(G) ≤ t.
func (g *Graph) IsTByzPartitionable(t int) bool {
	return !g.ConnectivityAtLeast(t + 1)
}

// MinVertexCut returns a minimum vertex cut and true, or (nil, false) for
// complete graphs and graphs with fewer than two vertices, which have no
// vertex cut. A disconnected graph yields the empty cut (non-nil, len 0).
func (g *Graph) MinVertexCut() ([]ids.NodeID, bool) {
	if g.n < 2 || g.IsComplete() {
		return nil, false
	}
	k, s, t := g.connectivity(g.n)
	if k == 0 {
		return []ids.NodeID{}, true
	}
	// Recompute the flow for the minimizing pair and extract the cut.
	f := newFlowNet(g)
	f.maxflow(outNode(s), inNode(t), g.n)
	return f.cutVertices(outNode(s), g.n), true
}

// connectivity computes min(κ(G), limit) plus the non-adjacent pair (s,t)
// realizing it (meaningful only when the returned value is < n-1 and the
// graph is connected).
func (g *Graph) connectivity(limit int) (k int, s, t ids.NodeID) {
	if g.n < 2 {
		return 0, 0, 0
	}
	if g.IsComplete() {
		return min(g.n-1, limit), 0, 0
	}
	if !g.IsConnected() {
		return 0, 0, 0
	}
	// κ ≤ δ, so the minimum-degree vertex bounds the search; choosing it
	// as the pivot also keeps the neighbor-pair enumeration small.
	v0 := g.minDegreeVertex()
	best := min(g.Degree(v0), limit)
	bs, bt := v0, v0
	f := newFlowNet(g)
	consider := func(a, b ids.NodeID) {
		if best == 0 {
			return
		}
		f.reset()
		if c := f.maxflow(outNode(a), inNode(b), best); c < best {
			best, bs, bt = c, a, b
		}
	}
	// Any minimum cut either avoids v0 — then it separates v0 from some
	// non-neighbor — or contains v0 — then it separates two neighbors of
	// v0 (see DESIGN.md §1/S2 and the package tests for the argument).
	forEachPivotPair(g, v0, consider)
	return best, bs, bt
}

// minDegreeVertex returns the lowest-ID vertex of minimum degree.
func (g *Graph) minDegreeVertex() ids.NodeID {
	var v0 ids.NodeID
	for v := 1; v < g.n; v++ {
		if g.Degree(ids.NodeID(v)) < g.Degree(v0) {
			v0 = ids.NodeID(v)
		}
	}
	return v0
}

// forEachPivotPair enumerates the candidate pair family for pivot v0 —
// v0 × its non-neighbors, then non-adjacent pairs of its neighbors.
func forEachPivotPair(g *Graph, v0 ids.NodeID, consider func(a, b ids.NodeID)) {
	for v := 0; v < g.n; v++ {
		w := ids.NodeID(v)
		if w != v0 && !g.HasEdge(v0, w) {
			consider(v0, w)
		}
	}
	nbrs := g.Neighbors(v0)
	for i := 0; i < len(nbrs); i++ {
		for j := i + 1; j < len(nbrs); j++ {
			if !g.HasEdge(nbrs[i], nbrs[j]) {
				consider(nbrs[i], nbrs[j])
			}
		}
	}
}

// ---- Dinic max-flow on the vertex-split digraph, CSR arc storage ----

func inNode(v ids.NodeID) int  { return 2 * int(v) }
func outNode(v ids.NodeID) int { return 2*int(v) + 1 }

// flowNet is the vertex-split flow network in CSR form. Node x's arcs are
// arcTo[off[x]:off[x+1]]; arcPair[i] is the index of arc i's reverse. The
// pristine capacities live in cap0 so reset is a single copy.
type flowNet struct {
	off     []int32
	arcTo   []int32
	arcPair []int32
	arcCap  []int32
	cap0    []int32
	// scratch buffers for Dinic
	level []int32
	iter  []int32
	queue []int32
}

func newFlowNet(g *Graph) *flowNet {
	nn := 2 * g.n
	arcs := 2*g.n + 4*g.m
	// Every array, the builder's cursors included, is carved from one
	// slab, each window capped at its length.
	slab := make([]int32, (nn+1)+4*arcs+4*nn)
	carve := func(k int) []int32 {
		w := slab[:k:k]
		slab = slab[k:]
		return w
	}
	f := &flowNet{
		off:     carve(nn + 1),
		arcTo:   carve(arcs),
		arcPair: carve(arcs),
		arcCap:  carve(arcs),
		cap0:    carve(arcs),
		level:   carve(nn),
		iter:    carve(nn),
		queue:   carve(nn)[:0],
	}
	// Both halves of vertex v carry 1 + deg(v) arcs: in(v) has the split
	// arc plus one reverse stub per incident edge; out(v) has the split
	// stub plus one forward arc per incident edge.
	for v := 0; v < g.n; v++ {
		d := int32(1 + len(g.nbr[v]))
		f.off[inNode(ids.NodeID(v))+1] = d
		f.off[outNode(ids.NodeID(v))+1] = d
	}
	for x := 0; x < nn; x++ {
		f.off[x+1] += f.off[x]
	}
	// Fill in the historical builder's chronological order: split arcs for
	// v = 0..n-1, then both directions of each edge in Edges() order. The
	// per-node cursor walk makes CSR slot order equal append order.
	cur := carve(nn)
	copy(cur, f.off[:nn])
	addArc := func(from, to, cap int) {
		i, j := cur[from], cur[to]
		cur[from]++
		cur[to]++
		f.arcTo[i], f.cap0[i], f.arcPair[i] = int32(to), int32(cap), j
		f.arcTo[j], f.cap0[j], f.arcPair[j] = int32(from), 0, i
	}
	inf := g.n + 1
	for v := 0; v < g.n; v++ {
		addArc(inNode(ids.NodeID(v)), outNode(ids.NodeID(v)), 1)
	}
	for u := 0; u < g.n; u++ {
		for _, v := range g.nbr[u] {
			if ids.NodeID(u) < v {
				addArc(outNode(ids.NodeID(u)), inNode(v), inf)
				addArc(outNode(v), inNode(ids.NodeID(u)), inf)
			}
		}
	}
	copy(f.arcCap, f.cap0)
	return f
}

// reset restores all capacities to their pristine values, readying the
// network for another source/sink pair.
func (f *flowNet) reset() {
	copy(f.arcCap, f.cap0)
}

// maxflow returns min(maxflow(s→t), limit).
func (f *flowNet) maxflow(s, t, limit int) int {
	flow := 0
	for flow < limit {
		if !f.bfs(s, t) {
			break
		}
		for i := range f.iter {
			f.iter[i] = 0
		}
		for flow < limit {
			pushed := f.dfs(int32(s), int32(t), limit-flow)
			if pushed == 0 {
				break
			}
			flow += pushed
		}
	}
	return flow
}

func (f *flowNet) bfs(s, t int) bool {
	for i := range f.level {
		f.level[i] = -1
	}
	f.level[s] = 0
	queue := append(f.queue[:0], int32(s))
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		lv := f.level[u] + 1
		for i := f.off[u]; i < f.off[u+1]; i++ {
			if to := f.arcTo[i]; f.arcCap[i] > 0 && f.level[to] < 0 {
				f.level[to] = lv
				queue = append(queue, to)
			}
		}
	}
	f.queue = queue[:0]
	return f.level[t] >= 0
}

func (f *flowNet) dfs(u, t int32, want int) int {
	if u == t {
		return want
	}
	for ; f.iter[u] < f.off[u+1]-f.off[u]; f.iter[u]++ {
		i := f.off[u] + f.iter[u]
		to := f.arcTo[i]
		if f.arcCap[i] <= 0 || f.level[to] != f.level[u]+1 {
			continue
		}
		pushed := f.dfs(to, t, min(want, int(f.arcCap[i])))
		if pushed > 0 {
			f.arcCap[i] -= int32(pushed)
			f.arcCap[f.arcPair[i]] += int32(pushed)
			return pushed
		}
	}
	return 0
}

// cutVertices extracts the minimum vertex cut after a completed maxflow:
// vertices whose in-node is residual-reachable from s but whose out-node
// is not are exactly the saturated split arcs crossing the cut.
func (f *flowNet) cutVertices(s, n int) []ids.NodeID {
	reach := make([]bool, 2*n)
	reach[s] = true
	stack := append(f.queue[:0], int32(s))
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for i := f.off[u]; i < f.off[u+1]; i++ {
			if to := f.arcTo[i]; f.arcCap[i] > 0 && !reach[to] {
				reach[to] = true
				stack = append(stack, to)
			}
		}
	}
	f.queue = stack[:0]
	var cut []ids.NodeID
	for v := 0; v < n; v++ {
		if reach[inNode(ids.NodeID(v))] && !reach[outNode(ids.NodeID(v))] {
			cut = append(cut, ids.NodeID(v))
		}
	}
	return cut
}
