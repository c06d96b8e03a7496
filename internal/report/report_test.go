package report

import (
	"fmt"
	"strings"
	"testing"

	"github.com/nectar-repro/nectar/internal/exp"
	"github.com/nectar-repro/nectar/internal/harness"
)

func TestFig8ReproducesThePaperShape(t *testing.T) {
	// The headline result (Fig. 8): NECTAR keeps 100% accuracy for every
	// t; MtG is fooled on one side by a single poisoner and on both sides
	// by two; MtGv2 splits the network's beliefs (≈ 0.5, broken
	// agreement).
	out, err := runSingle("fig8-n20", Options{Quick: true, Trials: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	fig := out.Figure
	series := map[string][]Point{}
	for _, s := range fig.Series {
		series[s.Name] = s.Points
	}
	for _, p := range series["nectar"] {
		if p.Y != 1.0 {
			t.Errorf("nectar accuracy at t=%g is %v, want 1.0", p.X, p.Y)
		}
		if p.Extra["agreement"] != 1.0 {
			t.Errorf("nectar agreement at t=%g is %v, want 1.0", p.X, p.Extra["agreement"])
		}
	}
	for _, p := range series["mtg"] {
		switch {
		case p.X == 0 && p.Y != 1.0:
			t.Errorf("mtg fault-free accuracy = %v, want 1.0", p.Y)
		case p.X >= 2 && p.Y != 0:
			t.Errorf("mtg accuracy at t=%g is %v, want 0 (poisoned both sides)", p.X, p.Y)
		case p.X == 1 && (p.Y < 0.3 || p.Y > 0.7):
			t.Errorf("mtg accuracy at t=1 is %v, want ≈0.5 (one side poisoned)", p.Y)
		}
	}
	for _, p := range series["mtgv2"] {
		if p.X == 0 {
			if p.Y != 1.0 {
				t.Errorf("mtgv2 fault-free accuracy = %v, want 1.0", p.Y)
			}
			continue
		}
		if p.Y < 0.3 || p.Y > 0.7 {
			t.Errorf("mtgv2 accuracy at t=%g is %v, want ≈0.5", p.X, p.Y)
		}
		if p.Extra["agreement"] != 0 {
			t.Errorf("mtgv2 agreement at t=%g is %v, want 0 (split beliefs)", p.X, p.Extra["agreement"])
		}
	}
}

func TestCostPointMetersBothAccountings(t *testing.T) {
	res, err := harness.Run(harness.Spec{
		Protocol:   harness.ProtoNectar,
		Attack:     harness.AttackNone,
		Scenario:   hararyGen(2, 10),
		T:          1,
		Trials:     2,
		Seed:       1,
		SchemeName: "hmac",
	})
	if err != nil {
		t.Fatal(err)
	}
	p := costPointOf(res, 10)
	if p.Y <= 0 {
		t.Error("no broadcast-accounted traffic")
	}
	if p.Extra["unicast_kb"] < p.Y {
		t.Errorf("unicast %v should be >= broadcast %v", p.Extra["unicast_kb"], p.Y)
	}
	if p.Extra["max_kb"] < p.Y {
		t.Errorf("max %v should be >= mean %v", p.Extra["max_kb"], p.Y)
	}
}

func TestDroneCostShapeMtGFlat(t *testing.T) {
	// Fig. 4's defining features at miniature scale: NECTAR's cost falls
	// as d grows (fewer edges), MtG's reference line stays flat, and
	// NECTAR costs much more than MtG at d=0.
	out, err := runSingleExperiment(lazyCostExperiment("fig4-test", func(o Options) *costFigure {
		return droneCostDef("fig4-test", "t", harness.ProtoNectar, 12, o, 4)
	}), Options{Quick: true, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	fig := out.Figure
	var nectar24, mtgLine []Point
	for _, s := range fig.Series {
		switch s.Name {
		case "nectar radius=2.4":
			nectar24 = s.Points
		case "mtg (reference)":
			mtgLine = s.Points
		}
	}
	if len(nectar24) == 0 || len(mtgLine) == 0 {
		t.Fatalf("missing series in %v", fig.Series)
	}
	first, last := nectar24[0], nectar24[len(nectar24)-1]
	if first.X != 0 || last.X != 6 {
		t.Fatalf("unexpected sweep endpoints %v %v", first.X, last.X)
	}
	if first.Y <= last.Y {
		t.Errorf("NECTAR cost should fall with d: d=0 %.2f KB vs d=6 %.2f KB", first.Y, last.Y)
	}
	for _, p := range mtgLine[1:] {
		if p.Y != mtgLine[0].Y {
			t.Errorf("MtG reference line not flat: %v vs %v", p.Y, mtgLine[0].Y)
		}
	}
	if first.Y < 5*mtgLine[0].Y {
		t.Errorf("NECTAR at d=0 (%.2f KB) should dwarf MtG (%.2f KB)", first.Y, mtgLine[0].Y)
	}
}

func TestFigureRendering(t *testing.T) {
	fig := &Figure{
		ID: "figX", Title: "test", XLabel: "x", YLabel: "y",
		Series: []Series{
			{Name: "a", Points: []Point{{X: 1, Y: 2, CI: 0.1, Extra: map[string]float64{"u": 3}}, {X: 2, Y: 4}}},
			{Name: "b", Points: []Point{{X: 1, Y: 0}}},
		},
	}
	csv := fig.CSV()
	if !strings.HasPrefix(csv, "series,x,y,ci95,u\n") {
		t.Errorf("csv header wrong: %q", strings.SplitN(csv, "\n", 2)[0])
	}
	if !strings.Contains(csv, "a,1,2,0.1,3") || !strings.Contains(csv, "b,1,0,0,0") {
		t.Errorf("csv rows wrong:\n%s", csv)
	}
	art := fig.ASCII(40, 8)
	if !strings.Contains(art, "figX") || !strings.Contains(art, "* = a") || !strings.Contains(art, "o = b") {
		t.Errorf("ascii missing parts:\n%s", art)
	}
	empty := &Figure{Title: "none"}
	if !strings.Contains(empty.ASCII(0, 0), "no data") {
		t.Error("empty figure should render a placeholder")
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{
		ID: "t1", Title: "demo",
		Columns: []string{"family", "kb"},
		Rows:    [][]string{{"k-regular", "12.5"}, {"wheel", "3.1"}},
	}
	csv := tbl.CSV()
	if !strings.HasPrefix(csv, "family,kb\n") || !strings.Contains(csv, "wheel,3.1") {
		t.Errorf("table csv wrong:\n%s", csv)
	}
	art := tbl.ASCII()
	if !strings.Contains(art, "k-regular") || !strings.Contains(art, "demo") {
		t.Errorf("table ascii wrong:\n%s", art)
	}
}

func TestOptionsTrialsPrecedence(t *testing.T) {
	if got := (Options{Trials: 7}).trials(50, 5); got != 7 {
		t.Errorf("explicit trials ignored: %d", got)
	}
	if got := (Options{Quick: true}).trials(50, 5); got != 5 {
		t.Errorf("quick default wrong: %d", got)
	}
	if got := (Options{}).trials(50, 5); got != 50 {
		t.Errorf("full default wrong: %d", got)
	}
	for _, trials := range []int{-1, -3} {
		if _, err := RunExperiments([]string{"fig3"}, Options{Trials: trials, Quick: true}, exp.Options{}); err == nil || !strings.Contains(err.Error(), "Trials") {
			t.Errorf("Trials %d: %v, want an error naming Trials", trials, err)
		}
	}
}

// runSingle executes one registered experiment through the pipeline with
// default scheduling.
func runSingle(id string, opts Options) (*Output, error) {
	e, ok := ExperimentByID(id)
	if !ok {
		return nil, fmt.Errorf("unknown experiment %q", id)
	}
	return runSingleExperiment(e, opts)
}

// runSingleExperiment executes an ad-hoc experiment the same way.
func runSingleExperiment(e Experiment, opts Options) (*Output, error) {
	rep, err := runExperimentSet([]Experiment{e}, opts, exp.Options{})
	if err != nil {
		return nil, err
	}
	return rep.Experiments[0].Output, nil
}
