package redteam

import (
	"hash/fnv"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"github.com/nectar-repro/nectar/internal/graph"
	"github.com/nectar-repro/nectar/internal/ids"
	"github.com/nectar-repro/nectar/internal/topology"
)

func TestPlacementNormalization(t *testing.T) {
	p := NewPlacement(7, 3, 7, 1)
	if got := p.Key(); got != "1,3,7" {
		t.Errorf("Key() = %q, want 1,3,7", got)
	}
	if !p.Has(3) || p.Has(2) {
		t.Error("membership wrong")
	}
	q := p.Clone()
	q[0] = 9
	if p[0] != 1 {
		t.Error("Clone aliases the original")
	}
	if len(NewPlacement()) != 0 {
		t.Error("empty placement should have no members")
	}
}

func TestObjectiveDamage(t *testing.T) {
	m := EvalMetrics{Accuracy: 0.75, Agreement: 0.5, KBPerNode: 12.5}
	cases := []struct {
		obj  Objective
		want float64
	}{
		{ObjMisclassify, 0.25},
		{ObjDisagree, 0.5},
		{ObjTraffic, 12.5},
	}
	for _, c := range cases {
		if got := c.obj.Damage(m); got != c.want {
			t.Errorf("%s damage = %v, want %v", c.obj, got, c.want)
		}
		if !c.obj.Valid() {
			t.Errorf("%s should be valid", c.obj)
		}
	}
	if Objective("nosuch").Valid() {
		t.Error("bogus objective accepted")
	}
}

// adjacencyDamage scores 1 for placements containing an adjacent pair and
// 0 otherwise — the shape of the omit-own attack landscape, flat almost
// everywhere.
func adjacencyDamage(g *graph.Graph) Evaluator {
	return func(p Placement) (float64, error) {
		for i := 0; i < len(p); i++ {
			for j := i + 1; j < len(p); j++ {
				if g.HasEdge(p[i], p[j]) {
					return 1, nil
				}
			}
		}
		return 0, nil
	}
}

func TestAnnealEscapesFlatLandscape(t *testing.T) {
	g, err := topology.Harary(3, 16)
	if err != nil {
		t.Fatal(err)
	}
	// 64 < C(16,2) = 120: the annealing walk, not the exact search.
	out, err := Search{
		Graph: g, T: 2, Budget: 64, Eval: adjacencyDamage(g),
		Rand: rand.New(rand.NewSource(11)),
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.Exact || out.Damage != 1 {
		t.Fatalf("anneal exact=%v damage=%v, want a sampled damage 1 (placement %v)", out.Exact, out.Damage, out.Placement)
	}
}

func TestSearchDeterministicPerSeed(t *testing.T) {
	g, err := topology.Harary(4, 14)
	if err != nil {
		t.Fatal(err)
	}
	// Damage depends only on the placement, so reruns with the same seed
	// must retrace the identical candidate sequence — sampled (C(14,3) =
	// 364 > 40) and exact alike.
	eval := func(p Placement) (float64, error) {
		var sum float64
		for _, v := range p {
			sum += float64(g.Degree(v)) + float64(v)/100
		}
		return sum, nil
	}
	for _, budget := range []int{40, 364} {
		var traces [2][]Step
		var outs [2]Outcome
		for run := 0; run < 2; run++ {
			run := run
			out, err := Search{
				Graph: g, T: 3, Budget: budget, Eval: eval,
				Rand:   rand.New(rand.NewSource(99)),
				OnStep: func(s Step) { traces[run] = append(traces[run], s) },
			}.Run()
			if err != nil {
				t.Fatalf("budget %d: %v", budget, err)
			}
			outs[run] = out
		}
		if !reflect.DeepEqual(outs[0], outs[1]) {
			t.Errorf("budget %d: outcomes differ across identical runs: %+v vs %+v",
				budget, outs[0], outs[1])
		}
		if !reflect.DeepEqual(traces[0], traces[1]) {
			t.Errorf("budget %d: traces differ across identical runs", budget)
		}
		if outs[0].Exact != (budget == 364) {
			t.Errorf("budget %d: Exact = %v", budget, outs[0].Exact)
		}
	}
}

func TestBudgetIsRespectedAndCacheHitsAreFree(t *testing.T) {
	g := topology.Ring(10)
	calls := 0
	eval := func(p Placement) (float64, error) {
		calls++
		return 0, nil // flat: the annealing walk revisits candidates
	}
	out, err := Search{
		Graph: g, T: 2, Budget: 15, Eval: eval,
		Rand: rand.New(rand.NewSource(5)),
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if calls > 15 {
		t.Errorf("evaluator called %d times, budget 15", calls)
	}
	if out.Evals != calls {
		t.Errorf("Evals = %d, want %d", out.Evals, calls)
	}
}

// lexSubsets is the oracle's enumeration, independent of the search's:
// every t-bit mask of n bits as a member list, sorted lexicographically.
func lexSubsets(n, t int) []string {
	var subsets [][]int
	for mask := 0; mask < 1<<n; mask++ {
		if bits.OnesCount(uint(mask)) != t {
			continue
		}
		var s []int
		for v := 0; v < n; v++ {
			if mask&(1<<v) != 0 {
				s = append(s, v)
			}
		}
		subsets = append(subsets, s)
	}
	sort.Slice(subsets, func(i, j int) bool {
		a, b := subsets[i], subsets[j]
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	keys := make([]string, len(subsets))
	for i, s := range subsets {
		members := make([]ids.NodeID, len(s))
		for k, v := range s {
			members[k] = ids.NodeID(v)
		}
		keys[i] = NewPlacement(members...).Key()
	}
	return keys
}

// TestExactSearchVisitsEverySubsetOnceInOrder: whenever C(n,t) fits the
// budget, the search scores each t-subset exactly once, in lexicographic
// order, and returns the brute-force maximum (its first occurrence).
func TestExactSearchVisitsEverySubsetOnceInOrder(t *testing.T) {
	// A synthetic landscape with ties, so "first maximum" matters.
	damage := func(key string) float64 {
		h := fnv.New32a()
		h.Write([]byte(key))
		return float64(h.Sum32() % 7)
	}
	for n := 2; n <= 9; n++ {
		for k := 1; k <= 3 && k < n; k++ {
			want := lexSubsets(n, k)
			bestKey, bestD := "", -1.0
			for _, key := range want {
				if d := damage(key); d > bestD {
					bestKey, bestD = key, d
				}
			}
			var visited []string
			out, err := Search{
				Graph: graph.New(n), T: k, Budget: len(want),
				Eval: func(p Placement) (float64, error) {
					visited = append(visited, p.Key())
					return damage(p.Key()), nil
				},
			}.Run()
			if err != nil {
				t.Fatalf("n=%d t=%d: %v", n, k, err)
			}
			if !reflect.DeepEqual(visited, want) {
				t.Fatalf("n=%d t=%d: visited %v, want %v", n, k, visited, want)
			}
			if out.Evals != spaceSize(n, k) || out.Evals != len(want) || !out.Exact {
				t.Errorf("n=%d t=%d: Evals=%d Exact=%v, want %d exact", n, k, out.Evals, out.Exact, len(want))
			}
			if out.Damage != bestD || out.Placement.Key() != bestKey {
				t.Errorf("n=%d t=%d: best %v at [%s], want %v at [%s]",
					n, k, out.Damage, out.Placement.Key(), bestD, bestKey)
			}
			// One placement short of the space, the search samples.
			if len(want) > 1 {
				out, err := Search{
					Graph: graph.New(n), T: k, Budget: len(want) - 1,
					Eval: func(p Placement) (float64, error) { return damage(p.Key()), nil },
					Rand: rand.New(rand.NewSource(int64(n*10 + k))),
				}.Run()
				if err != nil || out.Exact || out.Evals > len(want)-1 {
					t.Errorf("n=%d t=%d budget %d: Exact=%v Evals=%d err=%v, want a sampled search",
						n, k, len(want)-1, out.Exact, out.Evals, err)
				}
			}
		}
	}
}

// TestSpaceSizeSaturates: C(n,t) is exact while it fits an int and
// saturates, never wraps, beyond; a saturated space takes the sampled
// path.
func TestSpaceSizeSaturates(t *testing.T) {
	cases := []struct{ n, t, want int }{
		{16, 2, 120}, {24, 3, 2024}, {24, 21, 2024}, {9, 0, 1}, {9, 9, 1}, {3, 4, 0},
		{66, 33, 7219428434016265740}, // the last central C(2m,m) below 2⁶³
		{67, 33, math.MaxInt},
		{10000, 50, math.MaxInt},
	}
	for _, c := range cases {
		if got := spaceSize(c.n, c.t); got != c.want {
			t.Errorf("spaceSize(%d,%d) = %d, want %d", c.n, c.t, got, c.want)
		}
	}
	out, err := Search{
		Graph: graph.New(10000), T: 50, Budget: 5,
		Eval: func(Placement) (float64, error) { return 0, nil },
		Rand: rand.New(rand.NewSource(1)),
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.Exact || out.Evals != 5 || len(out.Placement) != 50 {
		t.Errorf("n=10000 t=50: Exact=%v Evals=%d |placement|=%d, want 5 sampled evals of 50 slots",
			out.Exact, out.Evals, len(out.Placement))
	}
}

func TestCutSeedPrefersTheCut(t *testing.T) {
	// Barbell: two K4s joined through vertices 3-4; the min cut is one of
	// the bridge endpoints.
	g := graph.New(8)
	for _, e := range [][2]ids.NodeID{
		{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3},
		{4, 5}, {4, 6}, {4, 7}, {5, 6}, {5, 7}, {6, 7},
		{3, 4},
	} {
		g.AddEdge(e[0], e[1])
	}
	seed := cutSeed(g, 1)
	if len(seed) != 1 || (seed[0] != 3 && seed[0] != 4) {
		t.Errorf("cutSeed = %v, want a bridge endpoint (3 or 4)", seed)
	}
	// Padding beyond the cut keeps the placement sized t.
	if got := cutSeed(g, 3); len(got) != 3 {
		t.Errorf("cutSeed t=3 returned %v", got)
	}
}

func TestSearchValidation(t *testing.T) {
	g := topology.Ring(6)
	eval := func(Placement) (float64, error) { return 0, nil }
	rng := rand.New(rand.NewSource(1))
	bad := []Search{
		{T: 1, Budget: 1, Eval: eval, Rand: rng},              // no graph
		{Graph: g, T: 0, Budget: 1, Eval: eval, Rand: rng},    // t = 0
		{Graph: g, T: 6, Budget: 1, Eval: eval, Rand: rng},    // t = n
		{Graph: g, T: 1, Budget: 0, Eval: eval, Rand: rng},    // no budget
		{Graph: g, T: 1, Budget: 1, Rand: rng},                // no evaluator
		{Graph: g, T: 1, Budget: 1, Eval: eval /* no rand */}, // sampling needs rng
	}
	for i, s := range bad {
		if _, err := s.Run(); err == nil {
			t.Errorf("case %d: invalid search accepted", i)
		}
	}
	// The exact search draws nothing, so it needs no Rand.
	if _, err := (Search{Graph: g, T: 1, Budget: 6, Eval: eval}).Run(); err != nil {
		t.Errorf("exact search without Rand: %v", err)
	}
}
