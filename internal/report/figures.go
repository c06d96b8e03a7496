package report

import (
	"fmt"
	"math/rand"

	"github.com/nectar-repro/nectar/internal/graph"
	"github.com/nectar-repro/nectar/internal/harness"
	"github.com/nectar-repro/nectar/internal/topology"
)

// Figures 3-8 are declared as spec grids (DESIGN.md §10): each figure
// enumerates its cells — one Byzantine-free cost spec or one attack spec
// per point — and a separate render phase folds the finished results
// into Series/Points. The scheduler between the phases runs cells from
// *all* requested figures in one pool.

func hararyGen(k, n int) harness.ScenarioFn {
	return harness.Plain(func(*rand.Rand) (*graph.Graph, error) { return topology.Harary(k, n) })
}

func droneGen(n int, d, radius float64) harness.ScenarioFn {
	return harness.Plain(func(rng *rand.Rand) (*graph.Graph, error) {
		g, _, err := topology.Drone(n, d, radius, rng)
		return g, err
	})
}

// costCell is one (series, x) point of a cost figure.
type costCell struct {
	series string
	x      float64
	proto  harness.ProtocolKind
	scen   harness.ScenarioFn
}

func (c costCell) key() string { return fmt.Sprintf("%s/x=%g", c.series, c.x) }

// costFigure is a figure whose every point is a Byzantine-free cost
// experiment reporting multicast-accounted KB/node (Figs. 3-7).
type costFigure struct {
	id, title, xlabel, ylabel string
	trials                    int
	cells                     []costCell
}

func (f *costFigure) declare(opts Options, b *Batch) error {
	for _, c := range f.cells {
		b.Static(c.key(), harness.Spec{
			Name:       c.key(),
			Protocol:   c.proto,
			Attack:     harness.AttackNone,
			Scenario:   c.scen,
			T:          1,
			Trials:     f.trials,
			Seed:       opts.Seed,
			SchemeName: opts.Scheme,
		})
	}
	return nil
}

// costPointOf folds a cost result into a figure point: multicast KB/node
// as Y, with unicast/max KB and engine rounds as extra CSV columns.
func costPointOf(res *harness.Result, x float64) Point {
	return Point{
		X:  x,
		Y:  res.KBPerNodeBroadcast(),
		CI: res.BroadcastBytes.CI95 / 1000,
		Extra: map[string]float64{
			"unicast_kb":    res.KBPerNode(),
			"max_kb":        res.MaxBytes.Mean / 1000,
			"active_rounds": res.ActiveRounds.Mean,
		},
	}
}

func (f *costFigure) render(opts Options, r *Results) (*Figure, error) {
	fig := &Figure{ID: f.id, Title: f.title, XLabel: f.xlabel, YLabel: f.ylabel}
	index := map[string]int{}
	for _, c := range f.cells {
		res, err := r.Static(c.key())
		if err != nil {
			return nil, fmt.Errorf("%s %s: %w", f.id, c.key(), err)
		}
		p := costPointOf(res, c.x)
		si, ok := index[c.series]
		if !ok {
			si = len(fig.Series)
			index[c.series] = si
			fig.Series = append(fig.Series, Series{Name: c.series})
		}
		fig.Series[si].Points = append(fig.Series[si].Points, p)
		opts.progress("%s %s x=%g: %.2f KB/node (%.0f rounds)",
			f.id, c.series, c.x, p.Y, p.Extra["active_rounds"])
	}
	return fig, nil
}

// fig3Def declares Fig. 3: data sent per node vs n for k-regular
// k-connected (Harary) graphs, k ∈ {2,10,18,26,34}. Deterministic
// topologies make trial variance zero, so few trials suffice.
func fig3Def(opts Options) *costFigure {
	f := &costFigure{
		id:     "fig3",
		title:  "Data sent per node vs n, k-regular graphs (NECTAR)",
		xlabel: "number of nodes n",
		ylabel: "data sent per node (KB)",
		trials: opts.trials(2, 1),
	}
	ks := []int{2, 10, 18, 26, 34}
	ns := []int{20, 40, 60, 80, 100}
	if opts.Quick {
		ns = []int{20, 40, 60}
	}
	for _, k := range ks {
		for _, n := range ns {
			if k >= n {
				continue
			}
			f.cells = append(f.cells, costCell{
				series: fmt.Sprintf("nectar k=%d", k),
				x:      float64(n),
				proto:  harness.ProtoNectar,
				scen:   hararyGen(k, n),
			})
		}
	}
	return f
}

// droneCostDef declares the Figs. 4/5 shape: drone cost vs d for three
// radii, plus the flat MtG reference line.
func droneCostDef(id, title string, proto harness.ProtocolKind, n int, opts Options, trials int) *costFigure {
	f := &costFigure{
		id:     id,
		title:  title,
		xlabel: "distance between barycenters d",
		ylabel: "data sent per node (KB)",
		trials: trials,
	}
	radii := []float64{1.2, 1.8, 2.4}
	ds := []float64{0, 1, 2, 3, 4, 5, 6}
	if opts.Quick {
		ds = []float64{0, 2, 4, 6}
	}
	for _, radius := range radii {
		for _, d := range ds {
			f.cells = append(f.cells, costCell{
				series: fmt.Sprintf("%s radius=%.1f", proto, radius),
				x:      d,
				proto:  proto,
				scen:   droneGen(n, d, radius),
			})
		}
	}
	// The MtG reference line of Figs. 4-7: its cost depends on neither d
	// nor radius.
	for _, d := range ds {
		f.cells = append(f.cells, costCell{
			series: "mtg (reference)",
			x:      d,
			proto:  harness.ProtoMtG,
			scen:   droneGen(n, d, 1.8),
		})
	}
	return f
}

// droneScaleDef declares the Figs. 6/7 shape: drone cost vs n at radius
// 1.2 for d ∈ {0, 2.5, 5}, plus the MtG reference.
func droneScaleDef(id, title string, proto harness.ProtocolKind, opts Options, trials int) *costFigure {
	f := &costFigure{
		id:     id,
		title:  title,
		xlabel: "number of nodes n",
		ylabel: "data sent per node (KB)",
		trials: trials,
	}
	ds := []float64{0, 2.5, 5}
	ns := []int{10, 20, 30, 40, 50}
	if opts.Quick {
		ns = []int{10, 20, 30}
	}
	for _, d := range ds {
		for _, n := range ns {
			f.cells = append(f.cells, costCell{
				series: fmt.Sprintf("%s d=%.1f", proto, d),
				x:      float64(n),
				proto:  proto,
				scen:   droneGen(n, d, 1.2),
			})
		}
	}
	for _, n := range ns {
		f.cells = append(f.cells, costCell{
			series: "mtg (reference)",
			x:      float64(n),
			proto:  harness.ProtoMtG,
			scen:   droneGen(n, 2.5, 1.2),
		})
	}
	return f
}

func fig4Def(opts Options) *costFigure {
	return droneCostDef("fig4",
		"Drone scenario: data sent per node vs d (NECTAR, n=20)",
		harness.ProtoNectar, 20, opts, opts.trials(30, 5))
}

func fig5Def(opts Options) *costFigure {
	return droneCostDef("fig5",
		"Drone scenario: data sent per node vs d (MtGv2, n=20)",
		harness.ProtoMtGv2, 20, opts, opts.trials(30, 5))
}

func fig6Def(opts Options) *costFigure {
	return droneScaleDef("fig6",
		"Drone scenario: data sent per node vs n (NECTAR, radius=1.2)",
		harness.ProtoNectar, opts, opts.trials(10, 3))
}

func fig7Def(opts Options) *costFigure {
	return droneScaleDef("fig7",
		"Drone scenario: data sent per node vs n (MtGv2, radius=1.2)",
		harness.ProtoMtGv2, opts, opts.trials(30, 5))
}

// lazyCostExperiment registers a figure whose cell grid depends on
// Options (trial counts, Quick grids).
func lazyCostExperiment(id string, def func(Options) *costFigure) Experiment {
	return Experiment{
		ID: id,
		Declare: func(opts Options, b *Batch) error {
			return def(opts).declare(opts, b)
		},
		Render: func(opts Options, r *Results) (*Output, error) {
			fig, err := def(opts).render(opts, r)
			if err != nil {
				return nil, err
			}
			return &Output{Figure: fig}, nil
		},
	}
}

// fig8Cell is one (protocol, t) cell of the Fig. 8 resilience figure.
type fig8Cell struct {
	series  string
	proto   harness.ProtocolKind
	attack  harness.AttackKind
	bridges int
	t       int
}

func (c fig8Cell) key() string { return fmt.Sprintf("%s/t=%d", c.series, c.t) }

// fig8Cells enumerates the §V-D comparison at system size n: NECTAR and
// MtGv2 face split-brain Byzantine bridges; MtG faces Bloom poisoning on
// the partitioned graph (no bridges).
func fig8Cells(opts Options) []fig8Cell {
	ts := []int{0, 1, 2, 3, 4, 5, 6}
	if opts.Quick {
		ts = []int{0, 1, 2, 4, 6}
	}
	protocols := []struct {
		name    string
		proto   harness.ProtocolKind
		attack  harness.AttackKind
		bridges int
	}{
		{"nectar", harness.ProtoNectar, harness.AttackSplitBrain, 2},
		{"mtg", harness.ProtoMtG, harness.AttackPoison, 0},
		{"mtgv2", harness.ProtoMtGv2, harness.AttackSplitBrain, 2},
	}
	var cells []fig8Cell
	for _, pr := range protocols {
		for _, t := range ts {
			cells = append(cells, fig8Cell{
				series: pr.name, proto: pr.proto, attack: pr.attack,
				bridges: pr.bridges, t: t,
			})
		}
	}
	return cells
}

// fig8Experiment declares/renders the Fig. 8 experiment at system size n.
// radius = 1.8 keeps each scatter internally connected (radius 1.2
// occasionally fragments small scatters, which only blurs the attack).
func fig8Experiment(id string, n int) Experiment {
	const radius = 1.8
	return Experiment{
		ID: id,
		Declare: func(opts Options, b *Batch) error {
			trials := opts.trials(50, 8)
			for _, c := range fig8Cells(opts) {
				b.Static(c.key(), harness.Spec{
					Name:       c.key(),
					Protocol:   c.proto,
					Attack:     c.attack,
					Scenario:   harness.Bridge(n, c.t, 6, radius, c.bridges),
					T:          c.t,
					Trials:     trials,
					Seed:       opts.Seed,
					SchemeName: opts.Scheme,
				})
			}
			return nil
		},
		Render: func(opts Options, r *Results) (*Output, error) {
			fig := &Figure{
				ID:     id,
				Title:  fmt.Sprintf("Decision success rate vs Byzantine nodes (drone bridge, n=%d)", n),
				XLabel: "number of Byzantine nodes t",
				YLabel: "success rate of correct decision",
			}
			index := map[string]int{}
			for _, c := range fig8Cells(opts) {
				res, err := r.Static(c.key())
				if err != nil {
					return nil, fmt.Errorf("%s %s t=%d: %w", id, c.series, c.t, err)
				}
				si, ok := index[c.series]
				if !ok {
					si = len(fig.Series)
					index[c.series] = si
					fig.Series = append(fig.Series, Series{Name: c.series})
				}
				fig.Series[si].Points = append(fig.Series[si].Points, Point{
					X:  float64(c.t),
					Y:  res.Accuracy.Mean,
					CI: res.Accuracy.CI95,
					Extra: map[string]float64{
						"agreement": res.Agreement.Mean,
						"detect":    res.DetectRate.Mean,
					},
				})
				opts.progress("%s %s t=%d: accuracy=%.2f agreement=%.2f",
					id, c.series, c.t, res.Accuracy.Mean, res.Agreement.Mean)
			}
			return &Output{Figure: fig}, nil
		},
	}
}
