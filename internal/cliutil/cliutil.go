// Package cliutil holds flag plumbing shared by the command-line tools:
// topology selection, node-list parsing, and the -trace and -metrics-out
// files.
package cliutil

import (
	"flag"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"

	"github.com/nectar-repro/nectar/internal/graph"
	"github.com/nectar-repro/nectar/internal/ids"
	"github.com/nectar-repro/nectar/internal/topology"
)

// TopologyFlags selects and parameterizes a generator.
type TopologyFlags struct {
	Kind   string
	N      int
	K      int
	C      int
	B      int
	Parts  int
	P      float64
	D      float64
	Radius float64
}

// TopologyKinds lists every topology the Build switch accepts, for -list
// modes and flag documentation. Keep in sync with Build (pinned by the
// package tests).
func TopologyKinds() []string {
	return []string{
		"ring", "line", "star", "complete", "er", "harary", "randomregular",
		"kdiamond", "kpasted", "gwheel", "mwheel", "drone", "tree", "cliquetree",
	}
}

// Register installs the topology flags on fs.
func (t *TopologyFlags) Register(fs *flag.FlagSet) {
	fs.StringVar(&t.Kind, "topo", "ring",
		"topology: "+strings.Join(TopologyKinds(), "|"))
	fs.IntVar(&t.N, "n", 20, "number of nodes")
	fs.IntVar(&t.K, "k", 4, "connectivity parameter (harary/randomregular/kdiamond/kpasted) or arity (tree/cliquetree)")
	fs.IntVar(&t.C, "c", 2, "hub size (gwheel/mwheel) or clique size (cliquetree)")
	fs.IntVar(&t.B, "b", 1, "inter-clique matching width, κ = min(b, c-1) (cliquetree)")
	fs.IntVar(&t.Parts, "parts", 2, "hub parts (mwheel)")
	fs.Float64Var(&t.P, "p", 0.3, "edge probability (er)")
	fs.Float64Var(&t.D, "d", 2.5, "barycenter distance (drone)")
	fs.Float64Var(&t.Radius, "radius", 1.2, "communication scope (drone)")
}

// Build generates the selected topology.
func (t *TopologyFlags) Build(rng *rand.Rand) (*graph.Graph, error) {
	if t.N < 0 {
		return nil, fmt.Errorf("-n must be >= 0, got %d", t.N)
	}
	switch t.Kind {
	case "ring":
		return topology.Ring(t.N), nil
	case "line":
		return topology.Line(t.N), nil
	case "star":
		return topology.Star(t.N), nil
	case "complete":
		return topology.Complete(t.N), nil
	case "er":
		return topology.ErdosRenyi(t.N, t.P, rng)
	case "harary":
		return topology.Harary(t.K, t.N)
	case "randomregular":
		return topology.RandomRegularConnected(t.K, t.N, rng)
	case "kdiamond":
		return topology.KDiamond(t.K, t.N)
	case "kpasted":
		return topology.KPastedTree(t.K, t.N)
	case "gwheel":
		return topology.GeneralizedWheel(t.C, t.N)
	case "mwheel":
		return topology.MultipartiteWheel(t.C, t.Parts, t.N)
	case "drone":
		g, _, err := topology.Drone(t.N, t.D, t.Radius, rng)
		return g, err
	case "tree":
		return topology.KaryTree(t.K, t.N)
	case "cliquetree":
		if t.C < 1 || t.N%t.C != 0 {
			return nil, fmt.Errorf("cliquetree: n=%d is not a multiple of clique size c=%d", t.N, t.C)
		}
		return topology.TreeOfCliques(t.N/t.C, t.C, t.B, t.K)
	}
	return nil, fmt.Errorf("unknown topology %q (valid: %s)", t.Kind, strings.Join(TopologyKinds(), ", "))
}

// ParseNodeList parses "1,4,7" into node IDs. A repeated ID is an error:
// a list names a set of nodes, and "1,1" is a typo for two of them.
func ParseNodeList(s string) ([]ids.NodeID, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]ids.NodeID, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseUint(strings.TrimSpace(p), 10, 32)
		if err != nil {
			return nil, fmt.Errorf("bad node id %q: %w", p, err)
		}
		if slices.Contains(out, ids.NodeID(v)) {
			return nil, fmt.Errorf("node id %d listed twice", v)
		}
		out = append(out, ids.NodeID(v))
	}
	return out, nil
}
