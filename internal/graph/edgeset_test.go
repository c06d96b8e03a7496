package graph

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/nectar-repro/nectar/internal/ids"
)

// An EdgeSet is a NECTAR node's view while it floods, and the decision
// phase loads it into the Graph the node would otherwise have kept. These
// tests drive sets and graphs through the same additions — arbitrary pairs,
// as a Byzantine coalition's fake edges would be, and repeats, as duplicate
// deliveries are — at vertex counts on both sides of every storage boundary:
// matrix rows of one, two and three words, the table above n = 192, and the
// largest n whose keys still pack into 32 bits.

var setSizes = []int{1, 2, 63, 64, 65, 192, 193, 300, MaxSetVertices}

// mixRef is an edge's term of Sum, from the definition: splitmix64's
// finalizer over U in the high half of a word and V in the low.
func mixRef(e Edge) uint64 {
	z := uint64(e.U)<<32 | uint64(e.V)
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// randomPair draws a pair of distinct vertices, a third of the time one of
// them the first or the last vertex, where the packed keys are extreme.
func randomPair(rng *rand.Rand, n int) (ids.NodeID, ids.NodeID) {
	for {
		u, v := ids.NodeID(rng.Intn(n)), ids.NodeID(rng.Intn(n))
		if rng.Intn(3) == 0 {
			u = ids.NodeID((n - 1) * rng.Intn(2))
		}
		if u != v {
			return u, v
		}
	}
}

// checkSet compares every observable of s with g, which was given the same
// additions.
func checkSet(t *testing.T, where string, s *EdgeSet, g *Graph, rng *rand.Rand) {
	t.Helper()
	n := g.N()
	if s.N() != n || s.M() != g.M() {
		t.Fatalf("%s: set has n=%d m=%d, graph n=%d m=%d", where, s.N(), s.M(), n, g.M())
	}
	es := g.Edges()
	// Membership: every pair where that is affordable; else every edge, its
	// neighbouring pairs and a sample of the rest.
	probe := func(u, v ids.NodeID) {
		if u == v || int(u) >= n || int(v) >= n {
			return
		}
		if s.Has(u, v) != g.HasEdge(u, v) || s.Has(v, u) != g.HasEdge(u, v) {
			t.Fatalf("%s: Has(%d,%d) = %v, graph says %v", where, u, v, s.Has(u, v), g.HasEdge(u, v))
		}
	}
	if n <= 300 {
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				probe(ids.NodeID(u), ids.NodeID(v))
			}
		}
	} else {
		for _, e := range es {
			probe(e.U, e.V)
			probe(e.U, e.V+1)
			probe(e.U+1, e.V)
			probe(e.U, e.V-1)
		}
		for i := 0; i < 4096; i++ {
			probe(randomPair(rng, n))
		}
	}
	var sum uint64
	for _, e := range es {
		sum += mixRef(e)
	}
	if s.Sum() != sum {
		t.Fatalf("%s: Sum %#x, the edges sum to %#x", where, s.Sum(), sum)
	}
	same, c := setOf(n, es), s.Clone()
	if !s.Equal(same) || !same.Equal(s) || !c.Equal(s) || c.Sum() != s.Sum() {
		t.Fatalf("%s: the set does not equal the graph's edges, or its clone", where)
	}
	if m := len(es); c.stride == 0 && m >= minTableSize && !(2*m <= len(c.table) && len(c.table) < 4*m) {
		t.Fatalf("%s: a clone of %d edges has a table of %d slots", where, m, len(c.table))
	}
	if len(es) < n*(n-1)/2 {
		// The clone shares nothing: what it learns, the set does not.
		u, v := randomPair(rng, n)
		for g.HasEdge(u, v) {
			u, v = randomPair(rng, n)
		}
		if !c.Add(u, v) || s.Has(u, v) || s.Equal(c) || c.Equal(s) {
			t.Fatalf("%s: an edge added to the clone shows in the set", where)
		}
	}
	if len(es) > 0 && len(es) < n*(n-1)/2 {
		outside := Edge{}
		for {
			if u, v := randomPair(rng, n); !g.HasEdge(u, v) {
				outside = NewEdge(u, v)
				break
			}
		}
		i := rng.Intn(len(es))
		for _, near := range [][]Edge{
			es[1:],
			append(slices.Clone(es), outside),
			slices.Replace(slices.Clone(es), i, i+1, outside),
		} {
			if off := setOf(n, near); s.Equal(off) || off.Equal(s) {
				t.Fatalf("%s: the set equals one an edge off it", where)
			}
		}
	}
	loaded, log := usedGraph(rng), slices.Clone(s.log)
	loaded.Load(s)
	if !loaded.Equal(g) || !slices.Equal(loaded.Edges(), es) {
		t.Fatalf("%s: the loaded graph differs from the graph", where)
	}
	if !slices.Equal(s.log, log) {
		t.Fatalf("%s: loading the set wrote to it", where)
	}
	if !reflect.DeepEqual(loaded.Components(), g.Components()) {
		t.Fatalf("%s: the loaded graph's components differ", where)
	}
	if n <= 300 {
		if a, b := loaded.Connectivity(), g.Connectivity(); a != b {
			t.Fatalf("%s: the loaded graph has κ = %d, the graph %d", where, a, b)
		}
	}
}

// setOf is the set of the edges es over n vertices.
func setOf(n int, es []Edge) *EdgeSet {
	s := new(EdgeSet)
	s.Reset(n)
	for _, e := range es {
		s.Add(e.U, e.V)
	}
	return s
}

// addBoth adds steps random pairs to s and g, every fifth a repeat of an
// edge already added, and checks that Add tells new edges from known ones.
func addBoth(t *testing.T, rng *rand.Rand, s *EdgeSet, g *Graph, steps int) {
	t.Helper()
	if g.N() < 2 {
		return
	}
	var added []Edge
	for i := 0; i < steps; i++ {
		u, v := randomPair(rng, g.N())
		if i%5 == 4 && len(added) > 0 {
			e := added[rng.Intn(len(added))]
			u, v = e.V, e.U
		}
		if got, want := s.Add(u, v), !g.HasEdge(u, v); got != want {
			t.Fatalf("Add(%d,%d) = %v, want %v", u, v, got, want)
		}
		g.AddEdge(u, v)
		added = append(added, NewEdge(u, v))
	}
}

func TestEdgeSetMatchesGraph(t *testing.T) {
	for _, n := range setSizes {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(n)))
			var s EdgeSet
			s.Reset(n)
			g := New(n)
			checkSet(t, "empty", &s, g, rng)
			steps := min(6*n, 3000)
			for round := 1; round <= 3; round++ {
				addBoth(t, rng, &s, g, steps/3)
				checkSet(t, fmt.Sprintf("after %d additions", round*steps/3), &s, g, rng)
			}
		})
	}
}

// TestEdgeSetResetMatchesFresh: one set reset through vertex counts on both
// sides of every storage boundary — growing, shrinking, through zero, each
// time full of edges — is from every Reset on the empty set of its n, and
// after the same additions equal in every observable to a fresh one.
func TestEdgeSetResetMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var s EdgeSet
	for i, n := range []int{300, 64, 0, 193, 1, 192, MaxSetVertices, 2, 193, 64, 64, 0, 300} {
		where := fmt.Sprintf("reset %d to n=%d", i, n)
		s.Reset(n)
		checkSet(t, where+", empty", &s, New(n), rng)
		seed := rng.Int63()
		steps := min(8*n, 3000)
		g := New(n)
		addBoth(t, rand.New(rand.NewSource(seed)), &s, g, steps)
		checkSet(t, where+", filled", &s, g, rng)
		var fresh EdgeSet
		fresh.Reset(n)
		addBoth(t, rand.New(rand.NewSource(seed)), &fresh, New(n), steps)
		if s.Sum() != fresh.Sum() || !s.Equal(&fresh) || !fresh.Equal(&s) {
			t.Fatalf("%s: differs from a fresh set after the same additions", where)
		}
	}
}

// TestEdgeSetReuseIsAllocationFree pins the point of Reset and Load: filling
// a reset set with the view it held before, and loading that view into a
// graph that held it before, allocate nothing — in the bit matrix's regime
// and the table's.
func TestEdgeSetReuseIsAllocationFree(t *testing.T) {
	for _, n := range []int{64, 300} {
		var s EdgeSet
		fill := func() {
			s.Reset(n)
			for v := 1; v < n; v++ {
				s.Add(ids.NodeID(v), ids.NodeID((v-1)/3)) // a 3-ary tree
			}
		}
		fill()
		if allocs := testing.AllocsPerRun(10, fill); allocs != 0 {
			t.Errorf("n=%d: refilling a reset set allocates %.0f objects, want 0", n, allocs)
		}
		g := new(Graph)
		g.Load(&s)
		if allocs := testing.AllocsPerRun(10, func() { g.Load(&s) }); allocs != 0 {
			t.Errorf("n=%d: reloading a graph allocates %.0f objects, want 0", n, allocs)
		}
	}
}

// TestEdgeSetKeyBoundary: at MaxSetVertices the extreme pairs pack into
// distinct keys that every probe tells apart; past it Reset refuses, as
// Add does a vertex out of range.
func TestEdgeSetKeyBoundary(t *testing.T) {
	const n = MaxSetVertices
	var s EdgeSet
	s.Reset(n)
	extremes := []Edge{{0, 1}, {0, n - 1}, {1, n - 1}, {n - 2, n - 1}, {n/2 - 1, n / 2}, {255, 256}}
	for i, e := range extremes {
		for _, f := range extremes[i:] {
			if s.Has(f.U, f.V) {
				t.Fatalf("%v reads as a member before it was added", f)
			}
		}
		if !s.Add(e.V, e.U) || !s.Has(e.U, e.V) {
			t.Fatalf("%v was not added", e)
		}
	}
	g := new(Graph)
	g.Load(&s)
	if !g.Equal(FromEdges(n, extremes)) {
		t.Fatalf("the set loads as %v", g.Edges())
	}
	mustPanic(t, "Reset past MaxSetVertices", func() { s.Reset(n + 1) })
	mustPanic(t, "Add of a vertex out of range", func() { s.Add(0, n) })
	mustPanic(t, "Add of a self-loop", func() { s.Add(3, 3) })
}

// The TestFingerprint tests hold the decision memo's view key: Sum files an
// entry and Equal confirms it exactly (DESIGN.md §9).

func TestFingerprintEqualGraphsMatch(t *testing.T) {
	for _, n := range []int{9, 300} {
		edges := []Edge{{0, 1}, {1, 2}, {3, 7}, {2, 8}, {4, 5}}
		reversed := slices.Clone(edges)
		slices.Reverse(reversed)
		a, b := setOf(n, edges), setOf(n, reversed)
		if a.Sum() != b.Sum() || !a.Equal(b) || !b.Equal(a) {
			t.Errorf("n=%d: the same edges added in another order do not match", n)
		}
		if s := setOf(n, nil); s.Sum() != 0 || !s.Equal(setOf(n, nil)) || s.Equal(a) || a.Equal(s) {
			t.Errorf("n=%d: the empty set does not match only itself", n)
		}
	}
}

// TestFingerprintDistinguishes: one edge more, another edge, edges in
// adjacent bit positions of one row, or the same edges over more vertices
// are told apart — by Sum, and by Equal either way.
func TestFingerprintDistinguishes(t *testing.T) {
	for _, n := range []int{20, 300} {
		base := []Edge{{0, 1}, {1, 2}, {3, 7}, {2, 8}, {4, 5}, {0, 18}}
		a := setOf(n, base)
		for name, other := range map[string]*EdgeSet{
			"one more":   setOf(n, append(slices.Clone(base), Edge{5, 6})),
			"another":    setOf(n, slices.Replace(slices.Clone(base), 0, 1, Edge{0, 2})),
			"bit beside": setOf(n, slices.Replace(slices.Clone(base), 5, 6, Edge{0, 19})),
		} {
			if other.Sum() == a.Sum() || a.Equal(other) || other.Equal(a) {
				t.Errorf("n=%d: %q is not told apart", n, name)
			}
		}
		if wider := setOf(n+1, base); a.Equal(wider) || wider.Equal(a) {
			t.Errorf("n=%d: the same edges over n+1 vertices match", n)
		}
	}
}

// TestFingerprintMutationTracksState: an added edge shows in Sum and Equal,
// and a reset set given the same edges again has the same key.
func TestFingerprintMutationTracksState(t *testing.T) {
	for _, n := range []int{6, 300} {
		s := setOf(n, []Edge{{1, 4}})
		before := s.Clone()
		s.Add(2, 3)
		if s.Sum() == before.Sum() || s.Equal(before) || before.Equal(s) {
			t.Errorf("n=%d: an added edge is not reflected", n)
		}
		s.Reset(n)
		s.Add(4, 1)
		if s.Sum() != before.Sum() || !s.Equal(before) {
			t.Errorf("n=%d: refilling a reset set did not restore the view key", n)
		}
	}
}

// TestFingerprintMatchesPerEdgeReference: the incrementally kept Sum is the
// sum of the mix over the members, Equal accepts a set's own members and
// refuses them one short, on random sets of every size class — both sides
// of the storage boundary at 192, and tables grown through several
// doublings.
func TestFingerprintMatchesPerEdgeReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, n := range []int{1, 2, 63, 64, 65, 192, 193, 500} {
		var pairs []Edge
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				pairs = append(pairs, Edge{U: ids.NodeID(u), V: ids.NodeID(v)})
			}
		}
		for _, m := range []int{0, 1, n - 1, len(pairs) / 3, len(pairs), 511, 512, 1024} {
			if m > len(pairs) || m < 0 {
				continue
			}
			rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
			s := setOf(n, pairs[:m])
			var sum uint64
			for _, e := range pairs[:m] {
				sum += mixRef(e)
			}
			if s.Sum() != sum {
				t.Errorf("n=%d, m=%d: Sum %#x, the edges sum to %#x", n, m, s.Sum(), sum)
			}
			if !s.Equal(setOf(n, pairs[:m])) {
				t.Errorf("n=%d, m=%d: Equal rejects the set's own edges", n, m)
			}
			if m > 0 && (s.Equal(setOf(n, pairs[1:m])) || setOf(n, pairs[1:m]).Equal(s)) {
				t.Errorf("n=%d, m=%d: Equal accepts a set one edge short", n, m)
			}
		}
	}
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}
