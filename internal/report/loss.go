package report

import (
	"fmt"

	"github.com/nectar-repro/nectar/internal/harness"
)

// lossCell is one (protocol, loss) row of the loss table; each row is
// backed by two specs (partitioned / connected).
type lossCell struct {
	protoName string
	proto     harness.ProtocolKind
	loss      float64
}

func (c lossCell) key(side string) string {
	return fmt.Sprintf("%s/loss=%g/%s", c.protoName, c.loss, side)
}

func lossCells() []lossCell {
	var cells []lossCell
	for _, pr := range []struct {
		name  string
		proto harness.ProtocolKind
	}{
		{"nectar", harness.ProtoNectar},
		{"mtg", harness.ProtoMtG},
		{"mtgv2", harness.ProtoMtGv2},
	} {
		for _, loss := range []float64{0, 0.2, 0.4} {
			cells = append(cells, lossCell{protoName: pr.name, proto: pr.proto, loss: loss})
		}
	}
	return cells
}

// lossExperiment is an extension experiment motivated by the related
// work (§VI-A1): MindTheGap detects ~90% of partitions despite a 40%
// message loss rate. Message loss violates NECTAR's reliable-channel
// assumption, so the table studies both sides: partition detection on a
// partitioned drone graph (the baselines' claim), and false alarms on a
// connected graph (NECTAR's degradation is *safe* — loss only removes
// evidence, so NECTAR can only become more conservative, never wrongly
// conclude NOT_PARTITIONABLE).
func lossExperiment() Experiment {
	const n = 20
	return Experiment{
		ID: "loss",
		Declare: func(opts Options, b *Batch) error {
			trials := opts.trials(30, 6)
			for _, c := range lossCells() {
				// Partitioned case: the two scatters are disconnected (d=6).
				b.Static(c.key("partitioned"), harness.Spec{
					Name:       c.key("partitioned"),
					Protocol:   c.proto,
					Attack:     harness.AttackNone,
					Scenario:   harness.Bridge(n, 0, 6, 1.8, 0),
					T:          1,
					Trials:     trials,
					Seed:       opts.Seed,
					SchemeName: opts.Scheme,
					LossRate:   c.loss,
				})
				// Connected case: a single dense scatter (d=0).
				b.Static(c.key("connected"), harness.Spec{
					Name:       c.key("connected"),
					Protocol:   c.proto,
					Attack:     harness.AttackNone,
					Scenario:   droneGen(n, 0, 1.8),
					T:          1,
					Trials:     trials,
					Seed:       opts.Seed + 1,
					SchemeName: opts.Scheme,
					LossRate:   c.loss,
				})
			}
			return nil
		},
		Render: func(opts Options, r *Results) (*Output, error) {
			tbl := &Table{
				ID:    "loss",
				Title: "Decision accuracy under message loss (extension; n=20 drone)",
				Columns: []string{
					"protocol", "loss", "partitioned_acc", "connected_acc", "agreement",
				},
			}
			for _, c := range lossCells() {
				part, err := r.Static(c.key("partitioned"))
				if err != nil {
					return nil, fmt.Errorf("loss %s %.1f partitioned: %w", c.protoName, c.loss, err)
				}
				conn, err := r.Static(c.key("connected"))
				if err != nil {
					return nil, fmt.Errorf("loss %s %.1f connected: %w", c.protoName, c.loss, err)
				}
				tbl.Rows = append(tbl.Rows, []string{
					c.protoName,
					fmt.Sprintf("%.0f%%", c.loss*100),
					fmt.Sprintf("%.2f", part.Accuracy.Mean),
					fmt.Sprintf("%.2f", conn.Accuracy.Mean),
					fmt.Sprintf("%.2f", conn.Agreement.Mean),
				})
				opts.progress("loss %s %.0f%%: partitioned=%.2f connected=%.2f",
					c.protoName, c.loss*100, part.Accuracy.Mean, conn.Accuracy.Mean)
			}
			return &Output{Table: tbl}, nil
		},
	}
}
