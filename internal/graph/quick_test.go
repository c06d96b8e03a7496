package graph

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/nectar-repro/nectar/internal/ids"
)

// quickGraph decodes an arbitrary byte string into a small graph, giving
// testing/quick a dense encoding of graph space.
func quickGraph(data []byte) *Graph {
	n := 2 + int(uint(len(data))%7)
	g := New(n)
	for i, b := range data {
		u := ids.NodeID(int(b) % n)
		v := ids.NodeID((int(b)/n + i) % n)
		if u != v {
			g.AddEdge(u, v)
		}
	}
	return g
}

func TestQuickConnectivityBounds(t *testing.T) {
	// 0 ≤ κ ≤ min degree ≤ n-1, and κ > 0 iff connected (n ≥ 2).
	f := func(data []byte) bool {
		g := quickGraph(data)
		k := g.Connectivity()
		if k < 0 || k > g.MinDegree() {
			return false
		}
		if g.N() >= 2 && (k > 0) != g.IsConnected() {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickConnectivityUpToIsCappedKappa: the bounded search is the exact
// κ capped at the limit, for every limit from 0 to n, and
// ConnectivityAtLeast agrees with it at every threshold.
func TestQuickConnectivityUpToIsCappedKappa(t *testing.T) {
	f := func(data []byte) bool {
		g := quickGraph(data)
		k := g.Connectivity()
		for l := 0; l <= g.N(); l++ {
			if g.ConnectivityUpTo(l) != min(k, l) || g.ConnectivityAtLeast(l) != (k >= l) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickAddingEdgesNeverDecreasesConnectivity(t *testing.T) {
	f := func(data []byte, extraU, extraV uint8) bool {
		g := quickGraph(data)
		before := g.Connectivity()
		u := ids.NodeID(int(extraU) % g.N())
		v := ids.NodeID(int(extraV) % g.N())
		if u == v {
			return true
		}
		g.AddEdge(u, v)
		return g.Connectivity() >= before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickMinCutDisconnectsAndMatchesKappa(t *testing.T) {
	f := func(data []byte) bool {
		g := quickGraph(data)
		cut, ok := g.MinVertexCut()
		if !ok {
			return g.IsComplete() || g.N() < 2
		}
		if len(cut) != g.Connectivity() {
			return false
		}
		return !g.InducedSubgraphConnected(ids.NewSet(cut...))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickTByzPartitionableMonotoneInT(t *testing.T) {
	// If t Byzantine nodes can partition a graph, so can t+1.
	f := func(data []byte) bool {
		g := quickGraph(data)
		prev := false
		for tb := 0; tb < g.N(); tb++ {
			cur := g.IsTByzPartitionable(tb)
			if prev && !cur {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestQuickCloneEqualAndIndependent(t *testing.T) {
	f := func(data []byte) bool {
		g := quickGraph(data)
		c := g.Clone()
		if !g.Equal(c) {
			return false
		}
		// Mutating the clone must not affect the original.
		if c.M() > 0 {
			e := c.Edges()[0]
			c.RemoveEdge(e.U, e.V)
			return g.HasEdge(e.U, e.V) && !c.HasEdge(e.U, e.V)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickDiameterAtMostNMinus1(t *testing.T) {
	f := func(data []byte) bool {
		g := quickGraph(data)
		d, ok := g.Diameter()
		if !ok {
			return true
		}
		return d >= 0 && d <= g.N()-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickReachabilityIsSymmetricInCount(t *testing.T) {
	// |reachable(u)| == |reachable(v)| whenever u,v are in the same
	// component; and u reachable from v iff v reachable from u.
	f := func(data []byte, a, b uint8) bool {
		g := quickGraph(data)
		u := ids.NodeID(int(a) % g.N())
		v := ids.NodeID(int(b) % g.N())
		ru := g.Reachable(u)
		rv := g.Reachable(v)
		if ru[v] != rv[u] {
			return false
		}
		if ru[v] && g.CountReachable(u) != g.CountReachable(v) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickMengerLowerBoundsGlobalKappa(t *testing.T) {
	// For every non-adjacent pair, κ(s,t) ≥ κ(G).
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 120; trial++ {
		n := 3 + rng.Intn(6)
		g := randomGraph(n, 0.5, rng)
		k := g.Connectivity()
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				uu, vv := ids.NodeID(u), ids.NodeID(v)
				if g.HasEdge(uu, vv) {
					continue
				}
				if lc := g.LocalConnectivity(uu, vv); lc < k {
					t.Fatalf("κ(%v,%v)=%d below κ(G)=%d on %v", uu, vv, lc, k, g)
				}
			}
		}
	}
}
