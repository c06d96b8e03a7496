package report

import (
	"fmt"
	"math/rand"

	"github.com/nectar-repro/nectar/internal/dynamic"
	"github.com/nectar-repro/nectar/internal/graph"
	"github.com/nectar-repro/nectar/internal/harness"
	"github.com/nectar-repro/nectar/internal/topology"
)

// churnRow is one workload row of the churn table.
type churnRow struct {
	workload string
	param    string
	schedule func(rng *rand.Rand) (*dynamic.EdgeSchedule, error)
}

func (r churnRow) key() string { return r.workload + "/" + r.param }

// churnRows enumerates the dynamic-network workloads (DESIGN.md §7):
// link flapping, Poisson node churn, partition/heal, and drone mobility
// over a Harary / drone base.
func churnRows(opts Options, n, epochs, epochRounds int) []churnRow {
	horizon := epochs * epochRounds
	hararyBase := func() (*graph.Graph, error) { return topology.Harary(6, n) }

	var rows []churnRow
	flapRates := []float64{0, 0.01, 0.05, 0.1}
	churnRates := []float64{0.005, 0.02, 0.05}
	drifts := []float64{0.5, 1.0}
	if opts.Quick {
		flapRates = []float64{0, 0.05}
		churnRates = []float64{0.02}
		drifts = []float64{1.0}
	}
	for _, p := range flapRates {
		p := p
		rows = append(rows, churnRow{"flapping", fmt.Sprintf("down=%.3g/round", p),
			func(rng *rand.Rand) (*dynamic.EdgeSchedule, error) {
				g, err := hararyBase()
				if err != nil {
					return nil, err
				}
				return dynamic.Flapping(g, p, 0.3, horizon, rng)
			}})
	}
	for _, lam := range churnRates {
		lam := lam
		rows = append(rows, churnRow{"node-churn", fmt.Sprintf("leave=%.3g/round", lam),
			func(rng *rand.Rand) (*dynamic.EdgeSchedule, error) {
				g, err := hararyBase()
				if err != nil {
					return nil, err
				}
				return dynamic.PoissonChurn(g, lam, float64(epochRounds), horizon, rng)
			}})
	}
	rows = append(rows, churnRow{"partition-heal", "cut@2 heal@4",
		func(rng *rand.Rand) (*dynamic.EdgeSchedule, error) {
			g, err := hararyBase()
			if err != nil {
				return nil, err
			}
			return dynamic.PartitionHeal(g, 2*epochRounds+1, 4*epochRounds+1)
		}})
	for _, v := range drifts {
		v := v
		rows = append(rows, churnRow{"drone-mobility", fmt.Sprintf("drift=%.1f/epoch", v),
			func(rng *rand.Rand) (*dynamic.EdgeSchedule, error) {
				return dynamic.DroneMobility(dynamic.MobilityConfig{
					N:          n,
					Radius:     1.8,
					StepRounds: epochRounds,
					Steps:      epochs - 1,
					Distance:   dynamic.LinearDrift(0, v),
					Jitter:     0.05,
				}, rng)
			}})
	}
	return rows
}

// churnExperiment sweeps the dynamic-network workloads, reporting
// per-epoch agreement, decision accuracy against the evolving ground
// truth, flip-detection rate, and the mean detection latency in epochs.
// There is no paper counterpart — the paper's evaluation is static — so
// the table extends §V to the mobile setting the drone scenario implies.
func churnExperiment() Experiment {
	const (
		n      = 20
		tByz   = 2
		epochs = 6
	)
	epochRounds := n - 1
	return Experiment{
		ID: "churn",
		Declare: func(opts Options, b *Batch) error {
			trials := opts.trials(20, 4)
			for _, r := range churnRows(opts, n, epochs, epochRounds) {
				b.Dynamic(r.key(), harness.DynamicSpec{
					Name:     r.workload + " " + r.param,
					Schedule: r.schedule,
					T:        tByz,
					Trials:   trials,
					Seed:     opts.Seed,
					Epochs:   epochs,
				})
			}
			return nil
		},
		Render: func(opts Options, res *Results) (*Output, error) {
			tbl := &Table{
				ID:    "churn",
				Title: fmt.Sprintf("Dynamic networks: NECTAR re-detection under churn (n=%d, t=%d, %d epochs)", n, tByz, epochs),
				Columns: []string{"workload", "param", "agreement", "agreement_ci95",
					"accuracy", "accuracy_ci95",
					"flips_detected", "latency_epochs", "kb_per_node_epoch", "active_rounds"},
			}
			for _, r := range churnRows(opts, n, epochs, epochRounds) {
				dres, err := res.Dynamic(r.key())
				if err != nil {
					return nil, fmt.Errorf("churn %s %s: %w", r.workload, r.param, err)
				}
				latency := "-"
				if dres.Latency.N > 0 {
					latency = fmt.Sprintf("%.2f", dres.Latency.Mean)
				}
				detected := "-"
				if dres.DetectedRate.N > 0 {
					detected = fmt.Sprintf("%.2f", dres.DetectedRate.Mean)
				}
				tbl.Rows = append(tbl.Rows, []string{
					r.workload,
					r.param,
					fmt.Sprintf("%.2f", dres.Agreement.Mean),
					fmt.Sprintf("%.2f", dres.Agreement.CI95),
					fmt.Sprintf("%.2f", dres.Accuracy.Mean),
					fmt.Sprintf("%.2f", dres.Accuracy.CI95),
					detected,
					latency,
					fmt.Sprintf("%.1f", dres.BytesPerNode.Mean/1000),
					fmt.Sprintf("%.1f", dres.ActiveRounds.Mean),
				})
				opts.progress("churn %s %s: agreement=%.2f accuracy=%.2f latency=%s",
					r.workload, r.param, dres.Agreement.Mean, dres.Accuracy.Mean, latency)
			}
			return &Output{Table: tbl}, nil
		},
	}
}
