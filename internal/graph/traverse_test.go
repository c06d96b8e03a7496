package graph

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/nectar-repro/nectar/internal/ids"
)

func TestReachableAndCount(t *testing.T) {
	g := New(5)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	// 3 and 4 isolated.
	want := []bool{true, true, true, false, false}
	if got := g.Reachable(0); !reflect.DeepEqual(got, want) {
		t.Errorf("Reachable(0) = %v, want %v", got, want)
	}
	if got := g.CountReachable(0); got != 3 {
		t.Errorf("CountReachable(0) = %d, want 3", got)
	}
	if got := g.CountReachable(3); got != 1 {
		t.Errorf("CountReachable(3) = %d, want 1", got)
	}
}

// TestCountReachableMatchesReachable: the counting BFS agrees with the set
// it no longer builds, from every source of random sparse graphs whose sizes
// straddle the word boundaries of its visited bitset — on one allocation.
func TestCountReachableMatchesReachable(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{1, 2, 31, 32, 33, 64, 65, 200} {
		g := randomGraph(n, 1.2/float64(n), rng) // around the connectivity threshold: many components
		for src := 0; src < n; src++ {
			want := 0
			for _, ok := range g.Reachable(ids.NodeID(src)) {
				if ok {
					want++
				}
			}
			if got := g.CountReachable(ids.NodeID(src)); got != want {
				t.Fatalf("n=%d: CountReachable(%d) = %d, Reachable marks %d", n, src, got, want)
			}
		}
		if allocs := testing.AllocsPerRun(10, func() { g.CountReachable(0) }); allocs != 1 {
			t.Errorf("n=%d: CountReachable makes %.0f allocations, want 1", n, allocs)
		}
	}
}

func TestIsConnected(t *testing.T) {
	tests := []struct {
		name string
		g    *Graph
		want bool
	}{
		{"empty", New(0), true},
		{"single", New(1), true},
		{"two isolated", New(2), false},
		{"path", pathGraph(6), true},
		{"cycle", cycleGraph(5), true},
		{"complete", completeGraph(4), true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.g.IsConnected(); got != tc.want {
				t.Errorf("IsConnected = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestComponents(t *testing.T) {
	g := New(6)
	g.AddEdge(0, 2)
	g.AddEdge(2, 4)
	g.AddEdge(1, 3)
	comps := g.Components()
	want := [][]ids.NodeID{{0, 2, 4}, {1, 3}, {5}}
	if !reflect.DeepEqual(comps, want) {
		t.Errorf("Components = %v, want %v", comps, want)
	}
}

func TestIsPartitioned(t *testing.T) {
	if New(1).IsPartitioned() {
		t.Error("single vertex cannot be partitioned (Def. 1 needs k >= 2 parts)")
	}
	if !New(2).IsPartitioned() {
		t.Error("two isolated vertices are partitioned")
	}
	if pathGraph(4).IsPartitioned() {
		t.Error("connected path reported partitioned")
	}
	g := pathGraph(4)
	g.RemoveEdge(1, 2)
	if !g.IsPartitioned() {
		t.Error("split path should be partitioned")
	}
}

func TestBFSDistances(t *testing.T) {
	g := pathGraph(4)
	want := []int{0, 1, 2, 3}
	if got := g.BFSDistances(0); !reflect.DeepEqual(got, want) {
		t.Errorf("BFSDistances(0) = %v, want %v", got, want)
	}
	h := New(3)
	h.AddEdge(0, 1)
	want = []int{0, 1, -1}
	if got := h.BFSDistances(0); !reflect.DeepEqual(got, want) {
		t.Errorf("BFSDistances with unreachable = %v, want %v", got, want)
	}
}

func TestDiameter(t *testing.T) {
	tests := []struct {
		name   string
		g      *Graph
		want   int
		wantOK bool
	}{
		{"empty", New(0), 0, false},
		{"single", New(1), 0, true},
		{"disconnected", New(3), 0, false},
		{"path5", pathGraph(5), 4, true},
		{"cycle6", cycleGraph(6), 3, true},
		{"complete5", completeGraph(5), 1, true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got, ok := tc.g.Diameter()
			if got != tc.want || ok != tc.wantOK {
				t.Errorf("Diameter = (%d,%v), want (%d,%v)", got, ok, tc.want, tc.wantOK)
			}
		})
	}
}

func TestComponentsPartitionProperty(t *testing.T) {
	// Components must partition the vertex set, and there must be no edges
	// between distinct components.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(14)
		g := randomGraph(n, rng.Float64()*0.5, rng)
		comps := g.Components()
		owner := make(map[ids.NodeID]int)
		total := 0
		for ci, comp := range comps {
			total += len(comp)
			for _, v := range comp {
				if _, dup := owner[v]; dup {
					t.Fatalf("vertex %v in two components", v)
				}
				owner[v] = ci
			}
		}
		if total != n {
			t.Fatalf("components cover %d of %d vertices", total, n)
		}
		for _, e := range g.Edges() {
			if owner[e.U] != owner[e.V] {
				t.Fatalf("edge %v crosses components", e)
			}
		}
	}
}
