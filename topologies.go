package nectar

import (
	"math/rand"

	"github.com/nectar-repro/nectar/internal/topology"
)

// Topology generators re-exported from the topology substrate (§V-B).

// Point is a 2D position in the drone scenario.
type Point = topology.Point

// Ring returns the cycle over n vertices (κ = 2 for n ≥ 3).
func Ring(n int) *Graph { return topology.Ring(n) }

// Line returns the path graph (κ = 1).
func Line(n int) *Graph { return topology.Line(n) }

// Star returns the star with center 0 (κ = 1) — the paper's Fig. 1b.
func Star(n int) *Graph { return topology.Star(n) }

// Complete returns K_n (κ = n-1).
func Complete(n int) *Graph { return topology.Complete(n) }

// ErdosRenyi returns G(n, p), p in [0, 1].
func ErdosRenyi(n int, p float64, rng *rand.Rand) (*Graph, error) {
	return topology.ErdosRenyi(n, p, rng)
}

// Harary returns the k-connected Harary graph H_{k,n} with the minimum
// possible number of edges — the paper's "k-regular k-connected" family.
func Harary(k, n int) (*Graph, error) { return topology.Harary(k, n) }

// RandomRegular returns a Steger-Wormald random simple k-regular graph.
func RandomRegular(k, n int, rng *rand.Rand) (*Graph, error) {
	return topology.RandomRegular(k, n, rng)
}

// RandomRegularConnected retries RandomRegular until κ = k.
func RandomRegularConnected(k, n int, rng *rand.Rand) (*Graph, error) {
	return topology.RandomRegularConnected(k, n, rng)
}

// KDiamond returns the k-connected, logarithmic-diameter k-diamond graph
// (Logarithmic Harary Graph reconstruction; DESIGN.md §4).
func KDiamond(k, n int) (*Graph, error) { return topology.KDiamond(k, n) }

// KPastedTree returns the k-connected, logarithmic-diameter k-pasted-tree
// graph (Logarithmic Harary Graph reconstruction; DESIGN.md §4).
func KPastedTree(k, n int) (*Graph, error) { return topology.KPastedTree(k, n) }

// GeneralizedWheel returns GW(c, n): a c-clique hub plus an external
// cycle with full spokes (κ = c+2) — the Byzantine worst case of Bonomi
// et al.
func GeneralizedWheel(c, n int) (*Graph, error) {
	return topology.GeneralizedWheel(c, n)
}

// MultipartiteWheel is the complete-multipartite-hub wheel variant.
func MultipartiteWheel(c, parts, n int) (*Graph, error) {
	return topology.MultipartiteWheel(c, parts, n)
}

// KaryTree returns the balanced k-ary tree over n vertices in heap order
// (κ = 1): the sparse hierarchical family of the large-n benchmarks.
func KaryTree(k, n int) (*Graph, error) { return topology.KaryTree(k, n) }

// TreeOfCliques returns a k-ary hierarchy of c-cliques joined by b-edge
// matchings (κ = min(b, c-1)) — the tunable-κ hierarchical family.
func TreeOfCliques(cliques, c, b, k int) (*Graph, error) {
	return topology.TreeOfCliques(cliques, c, b, k)
}

// Drone generates the drone scenario (§V-B, Fig. 2): two uniform scatters
// around barycenters at distance d, edges within the communication scope
// radius. Returns the graph and drone positions.
func Drone(n int, d, radius float64, rng *rand.Rand) (*Graph, []Point, error) {
	return topology.Drone(n, d, radius, rng)
}

// GeometricGraph builds the unit-disk graph over arbitrary positions.
func GeometricGraph(pts []Point, radius float64) *Graph {
	return topology.GeometricGraph(pts, radius)
}
