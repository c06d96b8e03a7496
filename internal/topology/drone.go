package topology

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/nectar-repro/nectar/internal/graph"
	"github.com/nectar-repro/nectar/internal/ids"
)

// The drone scenario (§V-B, Fig. 2): two scatters of points are generated
// around two barycenters separated by a distance d; two drones share a
// communication channel iff their Euclidean distance is at most the
// communication scope `radius`.

// ScatterRadius is the radius of the disk around each barycenter inside
// which drone positions are drawn uniformly. The paper's calibration notes
// that d = 0 with radius = 2.4 yields a fully connected graph, which pins
// the scatter diameter at ≤ 2.4, i.e. a scatter radius of 1.2.
const ScatterRadius = 1.2

// Point is a 2D drone position.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Drone generates the drone scenario: ⌈n/2⌉ points uniform in the disk of
// radius ScatterRadius around (0,0) and ⌊n/2⌋ around (d,0), with an edge
// between every pair of points at distance ≤ radius. It returns the graph
// and the generated positions (indexed by node ID).
func Drone(n int, d, radius float64, rng *rand.Rand) (*graph.Graph, []Point, error) {
	if n < 1 {
		return nil, nil, fmt.Errorf("topology: Drone requires n >= 1, got %d", n)
	}
	if !(d >= 0) || !(radius > 0) { // NaN fails too
		return nil, nil, fmt.Errorf("topology: Drone requires d >= 0 and radius > 0, got d=%v radius=%v", d, radius)
	}
	pts := make([]Point, n)
	firstHalf := (n + 1) / 2
	for i := range pts {
		center := Point{}
		if i >= firstHalf {
			center = Point{X: d}
		}
		pts[i] = randomInDisk(center, ScatterRadius, rng)
	}
	return GeometricGraph(pts, radius), pts, nil
}

// GeometricGraph builds the unit-disk style graph over the given points:
// an edge joins every pair at distance ≤ radius.
func GeometricGraph(pts []Point, radius float64) *graph.Graph {
	var edges []graph.Edge
	for i := range pts {
		for j := i + 1; j < len(pts); j++ {
			if pts[i].Dist(pts[j]) <= radius {
				edges = append(edges, graph.Edge{U: ids.NodeID(i), V: ids.NodeID(j)})
			}
		}
	}
	return graph.FromEdges(len(pts), edges)
}

// randomInDisk draws a point uniformly from the disk of the given radius
// around center.
func randomInDisk(center Point, radius float64, rng *rand.Rand) Point {
	// Inverse-CDF sampling: r ~ radius*sqrt(U) is uniform over the disk.
	r := radius * math.Sqrt(rng.Float64())
	theta := 2 * math.Pi * rng.Float64()
	return Point{
		X: center.X + r*math.Cos(theta),
		Y: center.Y + r*math.Sin(theta),
	}
}
