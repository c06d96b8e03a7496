// topogen generates and inspects the evaluation topologies: vertex count,
// edges, exact vertex connectivity, diameter, minimum degree, and
// t-Byzantine partitionability, with Graphviz DOT and JSON export for
// visualizing generated (and scheduled) topologies.
//
// Examples:
//
//	topogen -topo gwheel -c 3 -n 20 -t 5
//	topogen -topo drone -n 35 -d 6 -radius 1.2 -format dot > drone.dot
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	"github.com/nectar-repro/nectar/internal/cliutil"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "topogen:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("topogen", flag.ContinueOnError)
	var topo cliutil.TopologyFlags
	topo.Register(fs)
	seed := fs.Int64("seed", 1, "random seed")
	t := fs.Int("t", 1, "Byzantine bound for the partitionability report")
	format := fs.String("format", "text", "output format: text|dot|json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	g, err := topo.Build(rand.New(rand.NewSource(*seed)))
	if err != nil {
		return err
	}
	switch *format {
	case "dot":
		fmt.Fprint(w, g.DOT(topo.Kind))
		return nil
	case "json":
		type edge struct{ U, V uint32 }
		edges := make([]edge, 0, g.M())
		for _, e := range g.Edges() {
			edges = append(edges, edge{uint32(e.U), uint32(e.V)})
		}
		return json.NewEncoder(w).Encode(map[string]any{
			"topology": topo.Kind,
			"n":        g.N(),
			"edges":    edges,
		})
	case "text":
		// fall through to the report below
	default:
		return fmt.Errorf("unknown -format %q (valid: text, dot, json)", *format)
	}
	kappa := g.Connectivity()
	diam, connected := g.Diameter()
	fmt.Fprintf(w, "topology            %s\n", topo.Kind)
	fmt.Fprintf(w, "nodes               %d\n", g.N())
	fmt.Fprintf(w, "edges               %d\n", g.M())
	fmt.Fprintf(w, "min degree          %d\n", g.MinDegree())
	fmt.Fprintf(w, "vertex connectivity %d\n", kappa)
	if connected {
		fmt.Fprintf(w, "diameter            %d\n", diam)
	} else {
		fmt.Fprintf(w, "diameter            ∞ (disconnected, %d components)\n", len(g.Components()))
	}
	fmt.Fprintf(w, "%d-Byz partitionable %v (κ ≤ t iff partitionable, Cor. 1)\n", *t, g.IsTByzPartitionable(*t))
	if cut, ok := g.MinVertexCut(); ok {
		fmt.Fprintf(w, "a minimum cut       %v\n", cut)
	} else {
		fmt.Fprintf(w, "a minimum cut       none (complete graph)\n")
	}
	return nil
}
