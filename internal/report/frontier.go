package report

import (
	"fmt"
	"math/rand"

	"github.com/nectar-repro/nectar/internal/graph"
	"github.com/nectar-repro/nectar/internal/harness"
	"github.com/nectar-repro/nectar/internal/redteam"
	"github.com/nectar-repro/nectar/internal/topology"
)

// frontierCell is one (family, objective, optimizer) search of the
// red-team frontier sweep.
type frontierCell struct {
	famName string
	t       int
	gen     func(rng *rand.Rand) (*graph.Graph, error)
	obj     redteam.Objective
	attack  harness.AttackKind
	opt     string
}

func (c frontierCell) key() string {
	return fmt.Sprintf("%s/%s/%s", c.famName, c.obj, c.opt)
}

// frontierCells enumerates optimizers × objectives × topology families.
// Each objective rides its natural attack vehicle: misclassification via
// omit-own (concealed Byzantine-Byzantine edges lower perceived κ),
// disagreement via split-brain (one-sided silence splits the views), and
// traffic via fake-edges (forged announcements are relayed by everyone).
func frontierCells(opts Options) []frontierCell {
	type fam struct {
		name string
		t    int
		gen  func(rng *rand.Rand) (*graph.Graph, error)
	}
	fams := []fam{
		// κ=3 with t=2: no bound applies — the searchable regime.
		{"harary(k=3,n=16)", 2, func(*rand.Rand) (*graph.Graph, error) {
			return topology.Harary(3, 16)
		}},
		// κ=4 with t=2: 2t-Sensitivity holds — the frontier must stay at 0
		// misclassification no matter the optimizer.
		{"generalized-wheel(c=2,n=16)", 2, func(*rand.Rand) (*graph.Graph, error) {
			return topology.GeneralizedWheel(2, 16)
		}},
		// Geometric two-scatter bridge: sparse, cut-rich.
		{"drone(n=16,d=1.5)", 2, func(rng *rand.Rand) (*graph.Graph, error) {
			g, _, err := topology.Drone(16, 1.5, 1.6, rng)
			return g, err
		}},
	}
	if opts.Quick {
		fams = fams[:2]
	}
	objectives := []struct {
		obj    redteam.Objective
		attack harness.AttackKind
	}{
		{redteam.ObjMisclassify, harness.AttackOmitOwn},
		{redteam.ObjDisagree, harness.AttackSplitBrain},
		{redteam.ObjTraffic, harness.AttackFakeEdges},
	}
	if opts.Quick {
		objectives = objectives[:2]
	}
	var cells []frontierCell
	for _, f := range fams {
		for _, ob := range objectives {
			for _, optName := range redteam.OptimizerNames() {
				cells = append(cells, frontierCell{
					famName: f.name, t: f.t, gen: f.gen,
					obj: ob.obj, attack: ob.attack, opt: optName,
				})
			}
		}
	}
	return cells
}

// frontierExperiment sweeps the red-team attack search (DESIGN.md §8)
// and reports the empirical worst case next to the paper's guarantee.
// The bound column is the provable damage limit where one applies: 0
// misclassification under 2t-Sensitivity (κ ≥ 2t); "-" where the
// adversary is unconstrained (t < κ < 2t).
//
// There is no paper counterpart — the paper evaluates scripted attacks
// at scenario-chosen placements; this table reports how much worse an
// *optimized* adversary does, and how far even that stays from the
// bound.
func frontierExperiment() Experiment {
	return Experiment{
		ID: "redteam",
		Declare: func(opts Options, b *Batch) error {
			trials := opts.trials(3, 2)
			budget := 36
			baseline := 12
			if opts.Quick {
				budget = 12
				baseline = 6
			}
			for _, c := range frontierCells(opts) {
				b.RedTeam(c.key(), harness.RedTeamSpec{
					Name:            c.key(),
					Topology:        c.gen,
					T:               c.t,
					Attack:          c.attack,
					Objective:       c.obj,
					Optimizer:       c.opt,
					Budget:          budget,
					BaselineSamples: baseline,
					Trials:          trials,
					Seed:            opts.Seed,
					SchemeName:      opts.Scheme,
				})
			}
			return nil
		},
		Render: func(opts Options, r *Results) (*Output, error) {
			tbl := &Table{
				ID:    "redteam",
				Title: "Robustness frontier: searched worst-case damage vs random placement and the paper's bound",
				Columns: []string{"family", "t", "kappa", "objective", "attack", "optimizer",
					"random_mean", "random_best", "searched", "gain", "bound", "evals"},
			}
			for _, c := range frontierCells(opts) {
				res, err := r.RedTeam(c.key())
				if err != nil {
					return nil, fmt.Errorf("redteam %s %s %s: %w", c.famName, c.obj, c.opt, err)
				}
				bound := "-"
				if res.GuaranteeHolds && c.obj == redteam.ObjMisclassify {
					bound = "0.00"
				}
				tbl.Rows = append(tbl.Rows, []string{
					c.famName,
					fmt.Sprintf("%d", c.t),
					fmt.Sprintf("%d", res.Kappa),
					string(c.obj),
					string(c.attack),
					c.opt,
					fmt.Sprintf("%.3f", res.Baseline.Mean),
					fmt.Sprintf("%.3f", res.BaselineBest),
					fmt.Sprintf("%.3f", res.Best.Damage),
					fmt.Sprintf("%.3f", res.Gain()),
					bound,
					fmt.Sprintf("%d", res.Best.Evals),
				})
				opts.progress("redteam %s %s %s: searched=%.3f random=%.3f gain=%.3f",
					c.famName, c.obj, c.opt, res.Best.Damage, res.Baseline.Mean, res.Gain())
			}
			return &Output{Table: tbl}, nil
		},
	}
}
