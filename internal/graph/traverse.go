package graph

import (
	"slices"

	"github.com/nectar-repro/nectar/internal/ids"
)

// Reachable returns, for every vertex, whether it is reachable from src
// (src is reachable from itself).
func (g *Graph) Reachable(src ids.NodeID) []bool {
	g.valid(src)
	seen := make([]bool, g.n)
	seen[src] = true
	queue := []ids.NodeID{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.nbr[u] {
			if !seen[v] {
				seen[v] = true
				queue = append(queue, v)
			}
		}
	}
	return seen
}

// CountReachable returns the number of vertices reachable from src,
// including src itself. This is Alg. 1's DetectReachableNode(Gi). It runs
// once per node per decision, so it counts inside its own BFS on one
// exact-size scratch — the queue, then a visited bitset.
func (g *Graph) CountReachable(src ids.NodeID) int {
	g.valid(src)
	scratch := make([]uint32, g.n+(g.n+31)/32)
	queue, seen := scratch[:1:g.n], scratch[g.n:]
	queue[0] = uint32(src)
	seen[src>>5] = 1 << (src & 31)
	for head := 0; head < len(queue); head++ {
		for _, v := range g.nbr[queue[head]] {
			if w := &seen[v>>5]; *w&(1<<(v&31)) == 0 {
				*w |= 1 << (v & 31)
				queue = append(queue, uint32(v)) // never grows: a vertex enters once
			}
		}
	}
	return len(queue)
}

// IsConnected reports whether the graph is connected. Graphs with zero or
// one vertex are connected.
func (g *Graph) IsConnected() bool {
	if g.n <= 1 {
		return true
	}
	return g.CountReachable(0) == g.n
}

// Components returns the connected components as slices of sorted vertex
// IDs; components are ordered by their smallest member.
func (g *Graph) Components() [][]ids.NodeID {
	var comps [][]ids.NodeID
	seen := make([]bool, g.n)
	for s := 0; s < g.n; s++ {
		if seen[s] {
			continue
		}
		var comp []ids.NodeID
		stack := []ids.NodeID{ids.NodeID(s)}
		seen[s] = true
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, u)
			for _, v := range g.nbr[u] {
				if !seen[v] {
					seen[v] = true
					stack = append(stack, v)
				}
			}
		}
		slices.Sort(comp)
		comps = append(comps, comp)
	}
	return comps
}

// ComponentSizes returns, for every vertex, the size of its connected
// component: what Components tells a decision, in one slice and one
// scratch rather than a list per component — a view with many
// unreachable vertices has as many components.
func (g *Graph) ComponentSizes() []int32 {
	sizes := make([]int32, g.n) // 0 = not reached yet, -1 = queued
	queue := make([]ids.NodeID, 0, g.n)
	for s := range sizes {
		if sizes[s] != 0 {
			continue
		}
		start := len(queue)
		queue = append(queue, ids.NodeID(s))
		sizes[s] = -1
		for head := start; head < len(queue); head++ {
			for _, v := range g.nbr[queue[head]] {
				if sizes[v] == 0 {
					sizes[v] = -1
					queue = append(queue, v) // never grows: a vertex enters once
				}
			}
		}
		for _, v := range queue[start:] {
			sizes[v] = int32(len(queue) - start)
		}
	}
	return sizes
}

// IsPartitioned reports whether the graph satisfies Definition 1 of the
// paper: it can be split into k ≥ 2 non-empty parts with no crossing
// edges, i.e. it has at least two connected components. Graphs with fewer
// than two vertices are never partitioned.
func (g *Graph) IsPartitioned() bool {
	return g.n >= 2 && !g.IsConnected()
}

// BFSDistances returns the hop distance from src to every vertex, with -1
// for unreachable vertices.
func (g *Graph) BFSDistances(src ids.NodeID) []int {
	g.valid(src)
	dist := make([]int, g.n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []ids.NodeID{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.nbr[u] {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// Diameter returns the longest shortest-path length in the graph and true,
// or (0, false) if the graph is disconnected or has no vertices. The
// diameter bounds how many synchronous rounds edge knowledge needs to
// cross the network (§IV-B).
func (g *Graph) Diameter() (int, bool) {
	if g.n == 0 || !g.IsConnected() {
		return 0, false
	}
	d := 0
	for v := 0; v < g.n; v++ {
		for _, dv := range g.BFSDistances(ids.NodeID(v)) {
			if dv > d {
				d = dv
			}
		}
	}
	return d, true
}
