package graph

import (
	"math/rand"
	"testing"

	"github.com/nectar-repro/nectar/internal/ids"
)

// churnStep mutates g by one random edge toggle and returns (adds, dels).
func churnStep(g *Graph, rng *rand.Rand) (int, int) {
	n := g.N()
	for {
		u := ids.NodeID(rng.Intn(n))
		v := ids.NodeID(rng.Intn(n))
		if u == v {
			continue
		}
		if g.HasEdge(u, v) {
			g.RemoveEdge(u, v)
			return 0, 1
		}
		g.AddEdge(u, v)
		return 1, 0
	}
}

func TestKappaTrackerMatchesExactVerdicts(t *testing.T) {
	// Across random churn sequences and thresholds, the tracker's verdict
	// must equal the exact κ ≤ t predicate on every eval, and its interval
	// must contain the true κ.
	for _, tb := range []int{0, 1, 2, 3} {
		for seed := int64(1); seed <= 5; seed++ {
			rng := rand.New(rand.NewSource(seed))
			n := 8 + rng.Intn(8)
			g := randomGraph(n, 0.35, rng)
			tr := NewKappaTracker(tb, -1)
			adds, dels := 0, 0
			for step := 0; step < 60; step++ {
				b := tr.Eval(g, adds, dels)
				exact := g.Connectivity()
				if b.Lo > exact || exact > b.Hi {
					t.Fatalf("t=%d seed=%d step=%d: κ=%d outside certified [%d,%d]", tb, seed, step, exact, b.Lo, b.Hi)
				}
				if b.Partitionable != (exact <= tb) {
					t.Fatalf("t=%d seed=%d step=%d: verdict %v but κ=%d", tb, seed, step, b.Partitionable, exact)
				}
				if b.Exact && b.Lo != exact {
					t.Fatalf("t=%d seed=%d step=%d: Exact bound %d but κ=%d", tb, seed, step, b.Lo, exact)
				}
				// A few quiet epochs (no churn) between some steps exercise
				// the pure-skip path.
				if step%3 != 0 {
					a, d := churnStep(g, rng)
					adds, dels = a, d
				} else {
					adds, dels = 0, 0
				}
			}
			st := tr.Stats()
			if st.Evals != 60 {
				t.Fatalf("evals=%d", st.Evals)
			}
			if st.Skips+st.WitnessHits+st.Recomputes != st.Evals {
				t.Fatalf("stats don't partition evals: %+v", st)
			}
		}
	}
}

func TestKappaTrackerSkipsQuietEpochs(t *testing.T) {
	// With no churn after the first eval, every later eval must be a skip
	// (or witness hit) — never a full recompute.
	rng := rand.New(rand.NewSource(9))
	g := randomGraph(12, 0.4, rng)
	tr := NewKappaTracker(2, -1)
	tr.Eval(g, 0, 0)
	base := tr.Stats().Recomputes
	for i := 0; i < 10; i++ {
		tr.Eval(g, 0, 0)
	}
	if got := tr.Stats().Recomputes; got != base {
		t.Fatalf("quiet epochs recomputed: %d -> %d", base, got)
	}
}

func TestEdgeDiffCountsToggles(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randomGraph(10, 0.3, rng)
	b := a.Clone()
	wantAdds, wantDels := 0, 0
	for i := 0; i < 15; i++ {
		ad, dl := churnStep(b, rng)
		wantAdds += ad
		wantDels += dl
	}
	adds, dels := EdgeDiff(a, b)
	// Toggling the same pair twice cancels, so the diff is ≤ the toggle
	// count; net edge delta must match exactly.
	if adds > wantAdds || dels > wantDels {
		t.Fatalf("diff (%d,%d) exceeds toggles (%d,%d)", adds, dels, wantAdds, wantDels)
	}
	if adds-dels != b.M()-a.M() {
		t.Fatalf("net diff %d != edge delta %d", adds-dels, b.M()-a.M())
	}
	if ad, dl := EdgeDiff(a, a); ad != 0 || dl != 0 {
		t.Fatalf("self-diff (%d,%d)", ad, dl)
	}
}

func TestApproxConnectivityIsUpperBound(t *testing.T) {
	// κ̂ ≥ κ always (one-sided error), κ̂ ≤ min degree, and with enough
	// samples κ̂ = κ.
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 80; trial++ {
		n := 5 + rng.Intn(10)
		g := randomGraph(n, 0.4, rng)
		k := g.Connectivity()
		for _, samples := range []int{1, 3, 8} {
			est := g.ApproxConnectivity(samples, int64(trial))
			if est < k {
				t.Fatalf("trial %d samples=%d: κ̂=%d below κ=%d on %v", trial, samples, est, k, g)
			}
			if est > g.MinDegree() && g.N() >= 2 && !g.IsComplete() && g.IsConnected() {
				t.Fatalf("trial %d: κ̂=%d above δ=%d", trial, est, g.MinDegree())
			}
		}
		if est := g.ApproxConnectivity(0, 1); est != k {
			t.Fatalf("trial %d: exhaustive κ̂=%d != κ=%d on %v", trial, est, k, g)
		}
	}
}

func TestApproxConnectivityDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	g := randomGraph(14, 0.35, rng)
	a := g.ApproxConnectivity(4, 7)
	for i := 0; i < 5; i++ {
		if b := g.ApproxConnectivity(4, 7); b != a {
			t.Fatalf("same seed differed: %d vs %d", a, b)
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
	if g.Equal(c) || g.SameEdges(c.Edges()) {
		t.Fatal("comparison ignored removed edge")
	}
}
