// Package topology generates the network families used in the paper's
// evaluation (§V-B):
//
//   - k-regular k-connected graphs (Harary graphs, plus Steger–Wormald
//     random regular graphs, the paper's citation [24]);
//   - k-diamond and k-pasted-tree graphs, reconstructions of the
//     Logarithmic Harary Graphs of Baldoni et al. [25] (k-connected,
//     logarithmic diameter — see DESIGN.md §4 for the reconstruction
//     argument);
//   - generalized and multipartite wheel graphs (Bonomi et al. [23]),
//     the Byzantine worst cases with a potential adversarial hub clique;
//   - the drone scenario: random geometric graphs over two scatters of
//     points around barycenters separated by a distance d (§V-B, Fig. 2);
//   - elementary shapes (line, ring, star, complete, Erdős–Rényi) used by
//     tests and examples.
//
// All randomized generators take an explicit *rand.Rand so experiments are
// reproducible from seeds.
package topology

import (
	"fmt"
	"math/rand"

	"github.com/nectar-repro/nectar/internal/graph"
	"github.com/nectar-repro/nectar/internal/ids"
)

// Line returns the path graph 0-1-...-n-1 (κ = 1).
func Line(n int) *graph.Graph {
	g := graph.New(n)
	for v := 0; v < n-1; v++ {
		g.AddEdge(ids.NodeID(v), ids.NodeID(v+1))
	}
	return g
}

// Ring returns the cycle over n vertices (κ = 2 for n ≥ 3).
func Ring(n int) *graph.Graph {
	g := Line(n)
	if n >= 3 {
		g.AddEdge(0, ids.NodeID(n-1))
	}
	return g
}

// Star returns the star with center 0 and n-1 leaves (κ = 1): the paper's
// Fig. 1b, 1-Byzantine-partitionable at the center.
func Star(n int) *graph.Graph {
	g := graph.New(n)
	for v := 1; v < n; v++ {
		g.AddEdge(0, ids.NodeID(v))
	}
	return g
}

// Complete returns K_n (κ = n-1).
func Complete(n int) *graph.Graph {
	g := graph.New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			g.AddEdge(ids.NodeID(u), ids.NodeID(v))
		}
	}
	return g
}

// ErdosRenyi returns G(n, p): every pair is an edge independently with
// probability p, which must be in [0, 1].
func ErdosRenyi(n int, p float64, rng *rand.Rand) (*graph.Graph, error) {
	if !(p >= 0 && p <= 1) { // NaN fails too
		return nil, fmt.Errorf("topology: ErdosRenyi requires p in [0,1], got %v", p)
	}
	g := graph.New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				g.AddEdge(ids.NodeID(u), ids.NodeID(v))
			}
		}
	}
	return g, nil
}

// Harary returns the Harary graph H_{k,n}: a k-connected graph over n
// vertices with the minimum possible number of edges, ⌈kn/2⌉. For even k
// it is the circulant C_n(1..k/2); odd k adds (near-)diameter chords.
// This is the "k-regular k-connected" family of the paper's Fig. 3
// (connectivity exactly k, each node with k neighbors for even k·n).
func Harary(k, n int) (*graph.Graph, error) {
	if k < 1 || n < k+1 {
		return nil, fmt.Errorf("topology: Harary requires 1 <= k < n, got k=%d n=%d", k, n)
	}
	g := graph.New(n)
	if k == 1 {
		// Minimal 1-connected graph: a path.
		return Line(n), nil
	}
	r := k / 2
	for off := 1; off <= r; off++ {
		for v := 0; v < n; v++ {
			g.AddEdge(ids.NodeID(v), ids.NodeID((v+off)%n))
		}
	}
	if k%2 == 1 {
		if n%2 == 0 {
			for v := 0; v < n/2; v++ {
				g.AddEdge(ids.NodeID(v), ids.NodeID(v+n/2))
			}
		} else {
			// Classic odd-k, odd-n construction: connect i to i+(n-1)/2
			// for 0 <= i <= (n-1)/2.
			half := (n - 1) / 2
			for v := 0; v <= half; v++ {
				g.AddEdge(ids.NodeID(v), ids.NodeID((v+half)%n))
			}
		}
	}
	return g, nil
}

// RandomRegular returns a uniform-ish random simple k-regular graph over n
// vertices using the Steger–Wormald pairing procedure (paper citation
// [24]). It requires k < n and k·n even. The result is k-regular but its
// connectivity is only k with high probability; use RandomRegularConnected
// when exact connectivity is required.
func RandomRegular(k, n int, rng *rand.Rand) (*graph.Graph, error) {
	if k < 0 || k >= n {
		return nil, fmt.Errorf("topology: RandomRegular requires 0 <= k < n, got k=%d n=%d", k, n)
	}
	if k*n%2 != 0 {
		return nil, fmt.Errorf("topology: RandomRegular requires even k*n, got k=%d n=%d", k, n)
	}
	const maxAttempts = 200
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if g, ok := tryPairing(k, n, rng); ok {
			return g, nil
		}
	}
	return nil, fmt.Errorf("topology: RandomRegular(k=%d, n=%d) failed after %d attempts", k, n, maxAttempts)
}

// tryPairing runs one Steger–Wormald attempt: repeatedly join two random
// unsaturated distinct non-adjacent vertices (weighted by remaining
// stubs). Fails if it gets stuck.
func tryPairing(k, n int, rng *rand.Rand) (*graph.Graph, bool) {
	g := graph.New(n)
	stubs := make([]ids.NodeID, 0, k*n)
	for v := 0; v < n; v++ {
		for i := 0; i < k; i++ {
			stubs = append(stubs, ids.NodeID(v))
		}
	}
	// A generous retry budget per edge keeps the failure probability low
	// while guaranteeing termination.
	for len(stubs) > 0 {
		placed := false
		for try := 0; try < 50*len(stubs); try++ {
			i := rng.Intn(len(stubs))
			j := rng.Intn(len(stubs))
			u, v := stubs[i], stubs[j]
			if i == j || u == v || g.HasEdge(u, v) {
				continue
			}
			g.AddEdge(u, v)
			// Remove the two used stubs (order matters: delete the larger
			// index first).
			if i < j {
				i, j = j, i
			}
			stubs[i] = stubs[len(stubs)-1]
			stubs = stubs[:len(stubs)-1]
			stubs[j] = stubs[len(stubs)-1]
			stubs = stubs[:len(stubs)-1]
			placed = true
			break
		}
		if !placed {
			return nil, false
		}
	}
	return g, true
}

// RandomRegularConnected returns a random k-regular graph with vertex
// connectivity exactly k, retrying the pairing until the connectivity
// check passes.
func RandomRegularConnected(k, n int, rng *rand.Rand) (*graph.Graph, error) {
	const maxAttempts = 50
	for attempt := 0; attempt < maxAttempts; attempt++ {
		g, err := RandomRegular(k, n, rng)
		if err != nil {
			return nil, err
		}
		if g.ConnectivityAtLeast(k) {
			return g, nil
		}
	}
	return nil, fmt.Errorf("topology: RandomRegularConnected(k=%d, n=%d): connectivity %d not reached", k, n, maxAttempts)
}
