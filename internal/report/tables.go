package report

import (
	"fmt"
	"math/rand"

	"github.com/nectar-repro/nectar/internal/graph"
	"github.com/nectar-repro/nectar/internal/harness"
	"github.com/nectar-repro/nectar/internal/stats"
	"github.com/nectar-repro/nectar/internal/topology"
)

// family is one of the Bonomi et al. topology families, parameterized by
// the nominal connectivity k.
type family struct {
	name string
	gen  func(k, n int) (*graph.Graph, error)
}

func families() []family {
	return []family{
		{"k-regular", topology.Harary},
		{"k-diamond", topology.KDiamond},
		{"k-pasted-tree", topology.KPastedTree},
		{"generalized-wheel", func(k, n int) (*graph.Graph, error) {
			return topology.GeneralizedWheel(k-2, n) // κ = (k-2)+2 = k
		}},
		{"multipartite-wheel", func(k, n int) (*graph.Graph, error) {
			return topology.MultipartiteWheel(k-2, 2, n)
		}},
	}
}

// topoCostCell is one (family, k, n) cell of the §V-C cost table.
type topoCostCell struct {
	fam  family
	k, n int
}

func (c topoCostCell) key() string { return fmt.Sprintf("%s/k=%d/n=%d", c.fam.name, c.k, c.n) }

// topoCostCells enumerates the grid, including the small-hub wheel
// variant (the wheel hub size is the paper's main unreported parameter;
// results/topo-cost.csv has both hub sizes side by side).
func topoCostCells(opts Options) []topoCostCell {
	type cell struct{ k, n int }
	grid := []cell{{10, 60}, {18, 60}, {10, 100}, {18, 100}}
	if opts.Quick {
		grid = []cell{{10, 40}}
	}
	extra := []family{
		{"generalized-wheel-hub3", func(_, n int) (*graph.Graph, error) {
			return topology.GeneralizedWheel(3, n) // κ = 5 regardless of k
		}},
	}
	var cells []topoCostCell
	for _, c := range grid {
		for _, fam := range append(families(), extra...) {
			cells = append(cells, topoCostCell{fam: fam, k: c.k, n: c.n})
		}
	}
	return cells
}

// topoCostExperiment regenerates the §V-C comparison: NECTAR's cost on
// the topology families at equal nominal connectivity, as KB/node and as
// a ratio to the k-regular cost (the paper: ≈2× cheaper on
// k-diamond/k-pasted-tree, ≈2.5× cheaper on the wheels).
func topoCostExperiment() Experiment {
	return Experiment{
		ID: "topo-cost",
		Declare: func(opts Options, b *Batch) error {
			trials := opts.trials(2, 1)
			for _, c := range topoCostCells(opts) {
				g, err := c.fam.gen(c.k, c.n)
				if err != nil {
					return fmt.Errorf("topo-cost %s: %w", c.key(), err)
				}
				b.Static(c.key(), harness.Spec{
					Name:       c.key(),
					Protocol:   harness.ProtoNectar,
					Attack:     harness.AttackNone,
					Scenario:   harness.FixedGraph(g),
					T:          1,
					Trials:     trials,
					Seed:       opts.Seed,
					SchemeName: opts.Scheme,
				})
			}
			return nil
		},
		Render: func(opts Options, r *Results) (*Output, error) {
			tbl := &Table{
				ID:      "topo-cost",
				Title:   "NECTAR data sent per node across topology families (multicast accounting)",
				Columns: []string{"family", "k", "n", "kappa", "edges", "diameter", "kb_per_node", "ratio_vs_kregular"},
			}
			var baseline float64
			for _, c := range topoCostCells(opts) {
				res, err := r.Static(c.key())
				if err != nil {
					return nil, fmt.Errorf("topo-cost %s: %w", c.key(), err)
				}
				// The generators are deterministic, so regenerating for the
				// topology metadata columns is exact.
				g, err := c.fam.gen(c.k, c.n)
				if err != nil {
					return nil, fmt.Errorf("topo-cost %s: %w", c.key(), err)
				}
				y := res.KBPerNodeBroadcast()
				if c.fam.name == "k-regular" {
					baseline = y
				}
				ratio := 0.0
				if y > 0 {
					ratio = baseline / y
				}
				diam, _ := g.Diameter()
				tbl.Rows = append(tbl.Rows, []string{
					c.fam.name,
					fmt.Sprintf("%d", c.k),
					fmt.Sprintf("%d", c.n),
					fmt.Sprintf("%d", g.Connectivity()),
					fmt.Sprintf("%d", g.M()),
					fmt.Sprintf("%d", diam),
					fmt.Sprintf("%.1f", y),
					fmt.Sprintf("%.2f", ratio),
				})
				opts.progress("topo-cost %s k=%d n=%d: %.1f KB/node (ratio %.2f)",
					c.fam.name, c.k, c.n, y, ratio)
			}
			return &Output{Table: tbl}, nil
		},
	}
}

// byzTopoCell is one (family, placement, t, protocol) cell of §V-D.
type byzTopoCell struct {
	famName   string
	placement string
	t         int
	protoName string
	spec      harness.Spec
}

func (c byzTopoCell) key() string {
	return fmt.Sprintf("%s/%s/t=%d/%s", c.famName, c.placement, c.t, c.protoName)
}

// byzTopoCells enumerates the §V-D resilience grid: the same attacks as
// Fig. 8 (poisoning for MtG, split-brain for NECTAR and MtGv2), with
// Byzantine nodes placed on a minimum vertex cut when one of size ≤ t
// exists ("cut") or uniformly at random ("random"). Family
// parameterizations chosen so that cuts of realistic size exist: the
// low-connectivity families break at t >= 2, k-diamond at k=4 resists
// until t >= 4 (see results/byz-topo.csv).
func byzTopoCells(opts Options) []byzTopoCell {
	trials := opts.trials(30, 6)
	n := 30
	if opts.Quick {
		n = 20
	}
	fams := []struct {
		name string
		gen  func(rng *rand.Rand) (*graph.Graph, error)
	}{
		{"k-regular(k=2)", func(*rand.Rand) (*graph.Graph, error) { return topology.Harary(2, n) }},
		{"k-pasted-tree(k=2)", func(*rand.Rand) (*graph.Graph, error) { return topology.KPastedTree(2, n) }},
		{"k-diamond(k=4)", func(*rand.Rand) (*graph.Graph, error) { return topology.KDiamond(4, n) }},
		{"generalized-wheel(c=2)", func(*rand.Rand) (*graph.Graph, error) { return topology.GeneralizedWheel(2, n) }},
		{"multipartite-wheel(c=2)", func(*rand.Rand) (*graph.Graph, error) { return topology.MultipartiteWheel(2, 2, n) }},
	}
	protocols := []struct {
		name   string
		proto  harness.ProtocolKind
		attack harness.AttackKind
	}{
		{"nectar", harness.ProtoNectar, harness.AttackSplitBrain},
		{"mtg", harness.ProtoMtG, harness.AttackPoison},
		{"mtgv2", harness.ProtoMtGv2, harness.AttackSplitBrain},
	}
	placements := []struct {
		name string
		fn   func(gen func(*rand.Rand) (*graph.Graph, error), t int) harness.ScenarioFn
	}{
		{"cut", harness.CutPlacement},
		{"random", harness.RandomPlacement},
	}
	ts := []int{1, 2, 4, 6}
	if opts.Quick {
		ts = []int{2, 4}
	}
	var cells []byzTopoCell
	for _, fam := range fams {
		for _, pl := range placements {
			for _, t := range ts {
				for _, pr := range protocols {
					cells = append(cells, byzTopoCell{
						famName:   fam.name,
						placement: pl.name,
						t:         t,
						protoName: pr.name,
						spec: harness.Spec{
							Protocol:   pr.proto,
							Attack:     pr.attack,
							Scenario:   pl.fn(fam.gen, t),
							T:          t,
							Trials:     trials,
							Seed:       opts.Seed,
							SchemeName: opts.Scheme,
						},
					})
				}
			}
		}
	}
	return cells
}

// byzTopoExperiment regenerates the §V-D resilience table.
func byzTopoExperiment() Experiment {
	return Experiment{
		ID: "byz-topo",
		Declare: func(opts Options, b *Batch) error {
			for _, c := range byzTopoCells(opts) {
				spec := c.spec
				spec.Name = c.key()
				b.Static(c.key(), spec)
			}
			return nil
		},
		Render: func(opts Options, r *Results) (*Output, error) {
			tbl := &Table{
				ID:    "byz-topo",
				Title: "Decision success rate on connectivity-dependent topologies (±95% CI)",
				// Per-protocol accuracy with its Student-t CI over trials,
				// plus NECTAR's agreement proportion with a Wilson 95%
				// interval (the right interval for a proportion over a few
				// dozen trials).
				Columns: []string{"family", "placement", "t",
					"nectar", "nectar_ci95", "mtg", "mtg_ci95", "mtgv2", "mtgv2_ci95",
					"nectar_agree", "nectar_agree_lo95", "nectar_agree_hi95"},
			}
			cells := byzTopoCells(opts)
			// Cells arrive protocol-major within each (family, placement,
			// t) row; fold every three protocol cells into one table row.
			for i := 0; i < len(cells); i += 3 {
				c0 := cells[i]
				row := []string{c0.famName, c0.placement, fmt.Sprintf("%d", c0.t)}
				var agree stats.Summary
				for j := 0; j < 3; j++ {
					c := cells[i+j]
					res, err := r.Static(c.key())
					if err != nil {
						return nil, fmt.Errorf("byz-topo %s: %w", c.key(), err)
					}
					row = append(row, fmt.Sprintf("%.2f", res.Accuracy.Mean),
						fmt.Sprintf("%.2f", res.Accuracy.CI95))
					if c.protoName == "nectar" {
						agree = res.Agreement
					}
				}
				// Agreement is a proportion of trials: k successes of N.
				k := int(agree.Mean*float64(agree.N) + 0.5)
				lo, hi := stats.Wilson95(k, agree.N)
				row = append(row, fmt.Sprintf("%.2f", agree.Mean),
					fmt.Sprintf("%.2f", lo), fmt.Sprintf("%.2f", hi))
				tbl.Rows = append(tbl.Rows, row)
				opts.progress("byz-topo %s %s t=%d: nectar=%s mtg=%s mtgv2=%s",
					c0.famName, c0.placement, c0.t, row[3], row[5], row[7])
			}
			return &Output{Table: tbl}, nil
		},
	}
}
