package nectar

// Large-n scaling benchmarks (DESIGN.md §14). BenchmarkLargeN runs full
// detections at n = 10³ on the sparse families the regime targets (ring,
// k-ary tree, geometric scatter), and on the scatter at n = 10⁴, with the
// slim scheme, so the numbers measure the engine — staging, dedup,
// decision phase — not signature arithmetic.

import (
	"fmt"
	"math/rand"
	"os"
	"testing"
)

// scaleFull reports whether the n=10⁴ case should run. It takes seconds
// and a large heap, so it is opt-in via NECTAR_SCALE=1 and skipped in the
// CI -benchtime=1x sweep, which runs every benchmark it can see; CI's
// large-n step runs it on its own.
func scaleFull() bool { return os.Getenv("NECTAR_SCALE") != "" }

// largeNGraph builds one of the sparse large-n families.
func largeNGraph(b *testing.B, kind string, n int) *Graph {
	b.Helper()
	switch kind {
	case "ring":
		return Ring(n)
	case "tree":
		g, err := KaryTree(8, n)
		if err != nil {
			b.Fatal(err)
		}
		return g
	case "geom":
		// Scatter n points along a thin strip whose area grows linearly
		// with n, keeping density (and expected degree ≈ 2) constant. At
		// that density the strip fragments into large runs separated by
		// occasional gaps — the paper's drone-scatter motivation — so this
		// case measures the confirmed-partition regime at scale: every
		// component floods only its own edges and the decision phase
		// reports unreachable nodes.
		rng := rand.New(rand.NewSource(42))
		pts := make([]Point, n)
		side := 0.627 * float64(n)
		for i := range pts {
			pts[i] = Point{X: rng.Float64() * side, Y: rng.Float64() * 4}
		}
		return GeometricGraph(pts, 1.264)
	}
	b.Fatalf("unknown kind %q", kind)
	return nil
}

// BenchmarkLargeN: full NECTAR detections at scale, covering three
// regimes: the ring pays Θ(n) rounds (worst-case horizon), the k-ary
// tree is the connected full-flood case (every node learns all n-1
// edges within a logarithmic-diameter horizon), and the geometric
// scatter is the confirmed-partition case (per-component floods).
func BenchmarkLargeN(b *testing.B) {
	cases := []struct {
		kind string
		n    int
	}{
		{"ring", 1000}, {"tree", 1000}, {"geom", 1000}, {"geom", 10000},
	}
	for _, tc := range cases {
		b.Run(fmt.Sprintf("%s/n=%d", tc.kind, tc.n), func(b *testing.B) {
			if tc.n > 1000 && !scaleFull() {
				b.Skip("the n=10⁴ case is opt-in: set NECTAR_SCALE=1")
			}
			g := largeNGraph(b, tc.kind, tc.n)
			b.ReportAllocs()
			b.ResetTimer()
			var last *SimulationResult
			for i := 0; i < b.N; i++ {
				res, err := Simulate(SimulationConfig{
					Graph:      g,
					T:          1,
					Seed:       int64(i + 1),
					SchemeName: "slim",
				})
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(float64(last.ActiveRounds), "active-rounds")
			b.ReportMetric(float64(g.M()), "edges")
		})
	}
}
