package harness

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"github.com/nectar-repro/nectar/internal/dynamic"
	"github.com/nectar-repro/nectar/internal/exp"
	"github.com/nectar-repro/nectar/internal/graph"
	"github.com/nectar-repro/nectar/internal/topology"
)

// stripResult clears the func-bearing Spec so results compare with
// reflect.DeepEqual; everything that matters — every trial record and
// every aggregate summary — is kept bit-for-bit.
func stripResult(r *Result) Result {
	c := *r
	c.Spec = Spec{}
	return c
}

func stripDynamic(r *DynamicResult) DynamicResult {
	c := *r
	c.Spec = DynamicSpec{}
	return c
}

func stripRedTeam(r *RedTeamResult) RedTeamResult {
	c := *r
	c.Spec = RedTeamSpec{}
	return c
}

// legacyRun reproduces the pre-pipeline driver: a plain serial loop over
// runTrial plus the in-memory aggregation, no scheduler, no JSON
// normalization. The pipeline must reproduce it bit for bit.
func legacyRun(t *testing.T, spec Spec) *Result {
	t.Helper()
	spec, err := spec.validate()
	if err != nil {
		t.Fatal(err)
	}
	trials := make([]Trial, spec.Trials)
	for i := range trials {
		if trials[i], err = runTrial(&spec, i, 1); err != nil {
			t.Fatalf("legacy trial %d: %v", i, err)
		}
	}
	return aggregate(spec, trials)
}

func legacyRunDynamic(t *testing.T, spec DynamicSpec) *DynamicResult {
	t.Helper()
	spec, err := spec.validate()
	if err != nil {
		t.Fatal(err)
	}
	trials := make([]DynamicTrial, spec.Trials)
	for i := range trials {
		if trials[i], err = runDynamicTrial(&spec, i, 1); err != nil {
			t.Fatalf("legacy dynamic trial %d: %v", i, err)
		}
	}
	return aggregateDynamic(spec, trials)
}

// pipelineMatrix is a representative spec matrix: every protocol, a
// Byzantine attack each, randomized and deterministic scenarios, both
// schemes, and loss.
func pipelineMatrix() []Spec {
	harary := func(k, n int) ScenarioFn {
		return Plain(func(*rand.Rand) (*graph.Graph, error) { return topology.Harary(k, n) })
	}
	drone := func(n int, d float64) ScenarioFn {
		return Plain(func(rng *rand.Rand) (*graph.Graph, error) {
			g, _, err := topology.Drone(n, d, 1.8, rng)
			return g, err
		})
	}
	return []Spec{
		{Name: "nectar-splitbrain", Protocol: ProtoNectar, Attack: AttackSplitBrain,
			Scenario: Bridge(14, 2, 6, 1.8, 2), T: 2, Trials: 5, Seed: 42},
		{Name: "nectar-ed25519", Protocol: ProtoNectar, Attack: AttackNone,
			Scenario: harary(3, 10), T: 1, Trials: 3, Seed: 7, SchemeName: "ed25519"},
		{Name: "mtg-poison", Protocol: ProtoMtG, Attack: AttackPoison,
			Scenario: drone(12, 6), T: 2, Trials: 4, Seed: 11},
		{Name: "mtgv2-crash-loss", Protocol: ProtoMtGv2, Attack: AttackCrash,
			Scenario: harary(4, 12), T: 1, Trials: 4, Seed: 3, LossRate: 0.2},
	}
}

// TestPipelineMatchesLegacyRunBitForBit pins the tentpole equivalence:
// the plan/scheduler/collector pipeline reproduces the legacy per-spec
// driver's aggregates bit for bit across a representative matrix,
// independent of the Jobs budget.
func TestPipelineMatchesLegacyRunBitForBit(t *testing.T) {
	for _, spec := range pipelineMatrix() {
		want := stripResult(legacyRun(t, spec))
		for _, jobs := range []int{0, 1, 3} {
			s := spec
			s.Jobs = jobs
			got, err := Run(s)
			if err != nil {
				t.Fatalf("%s jobs=%d: %v", spec.Name, jobs, err)
			}
			if !reflect.DeepEqual(stripResult(got), want) {
				t.Errorf("%s jobs=%d: pipeline result differs from legacy driver", spec.Name, jobs)
			}
		}
	}
}

func dynamicSpecForTest() DynamicSpec {
	return DynamicSpec{
		Name: "flap",
		Schedule: func(rng *rand.Rand) (*dynamic.EdgeSchedule, error) {
			g, err := topology.Harary(4, 12)
			if err != nil {
				return nil, err
			}
			return dynamic.Flapping(g, 0.05, 0.3, 33, rng)
		},
		T: 2, Trials: 4, Seed: 5, Epochs: 3,
	}
}

func TestDynamicPipelineMatchesLegacyBitForBit(t *testing.T) {
	want := stripDynamic(legacyRunDynamic(t, dynamicSpecForTest()))
	for _, jobs := range []int{1, 4, 64} { // 64: budget left over for each trial's epoch window
		s := dynamicSpecForTest()
		s.Jobs = jobs
		got, err := RunDynamic(s)
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		if !reflect.DeepEqual(stripDynamic(got), want) {
			t.Errorf("jobs=%d: dynamic pipeline result differs from legacy driver", jobs)
		}
	}
}

func redTeamSpecForTest() RedTeamSpec {
	return RedTeamSpec{
		Name: "rt",
		Topology: func(*rand.Rand) (*graph.Graph, error) {
			return topology.Harary(3, 12)
		},
		T: 2, Attack: AttackOmitOwn,
		Budget: 8, BaselineSamples: 4, Trials: 2, Seed: 13,
	}
}

// TestRedTeamPipelineMatchesSearchBitForBit pins that the pipeline's JSON
// normalization and budget threading change nothing about a search.
func TestRedTeamPipelineMatchesSearchBitForBit(t *testing.T) {
	spec := redTeamSpecForTest().withDefaults()
	direct, err := runRedTeamSearch(&spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := stripRedTeam(&direct)
	for _, jobs := range []int{1, 4} {
		s := redTeamSpecForTest()
		s.Jobs = jobs
		got, err := RunRedTeam(s)
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		if !reflect.DeepEqual(stripRedTeam(got), want) {
			t.Errorf("jobs=%d: red-team pipeline result differs from direct search", jobs)
		}
	}
}

// mixedPlan builds one plan spanning all three runner kinds, as
// nectar-bench does for the paper reproduction.
func mixedPlan(t *testing.T) *exp.Plan {
	t.Helper()
	plan := &exp.Plan{}
	for _, spec := range pipelineMatrix()[:3] {
		r, err := NewRunner(spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := plan.Add("static/"+spec.Name, r); err != nil {
			t.Fatal(err)
		}
	}
	dr, err := NewDynamicRunner(dynamicSpecForTest())
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Add("dynamic/flap", dr); err != nil {
		t.Fatal(err)
	}
	rr, err := NewRedTeamRunner(redTeamSpecForTest())
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Add("redteam/rt", rr); err != nil {
		t.Fatal(err)
	}
	return plan
}

func planAggregates(t *testing.T, res *exp.Results) map[string]any {
	t.Helper()
	out := make(map[string]any)
	for _, sr := range res.Specs {
		if sr.Err != nil {
			t.Fatalf("%s: %v", sr.Key, sr.Err)
		}
		switch agg := sr.Aggregate.(type) {
		case *Result:
			out[sr.Key] = stripResult(agg)
		case *DynamicResult:
			out[sr.Key] = stripDynamic(agg)
		case *RedTeamResult:
			out[sr.Key] = stripRedTeam(agg)
		default:
			t.Fatalf("%s: unexpected aggregate type %T", sr.Key, agg)
		}
	}
	return out
}

// TestPlanAggregatesInvariantAcrossJobsAndResume is the scheduler
// determinism property of DESIGN.md §10: one mixed static/dynamic/
// red-team plan produces byte-identical aggregates at -jobs 1, -jobs N,
// and across a kill-then-resume boundary.
func TestPlanAggregatesInvariantAcrossJobsAndResume(t *testing.T) {
	ref, err := exp.Execute(mixedPlan(t), exp.Options{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := planAggregates(t, ref)

	res, err := exp.Execute(mixedPlan(t), exp.Options{Jobs: 8})
	if err != nil {
		t.Fatal(err)
	}
	if got := planAggregates(t, res); !reflect.DeepEqual(got, want) {
		t.Error("jobs=8 aggregates differ from jobs=1")
	}

	// Kill mid-run, then resume from the checkpoint.
	path := filepath.Join(t.TempDir(), "trials.jsonl")
	c, err := exp.OpenCollector(path, false)
	if err != nil {
		t.Fatal(err)
	}
	interrupt := make(chan struct{})
	var fired atomic.Bool
	_, err = exp.Execute(mixedPlan(t), exp.Options{
		Jobs: 1, Collector: c, Interrupt: interrupt,
		OnUnit: func(ev exp.UnitEvent) {
			if ev.Done >= 4 && fired.CompareAndSwap(false, true) {
				close(interrupt)
			}
		},
	})
	c.Close()
	if !errors.Is(err, exp.ErrInterrupted) {
		t.Fatalf("want ErrInterrupted, got %v", err)
	}
	c2, err := exp.OpenCollector(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	resumed, err := exp.Execute(mixedPlan(t), exp.Options{Jobs: 4, Collector: c2})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.UnitsResumed == 0 {
		t.Error("resume reused no checkpointed units")
	}
	if got := planAggregates(t, resumed); !reflect.DeepEqual(got, want) {
		t.Error("resumed aggregates differ from clean run")
	}
}

// recordPlan is the plan behind testdata/records.jsonl: one single-unit
// spec of each kind, under the keys the file was written with.
func recordPlan(t *testing.T) *exp.Plan {
	t.Helper()
	static := pipelineMatrix()[0]
	static.Name, static.Trials = "static", 1
	dyn := dynamicSpecForTest()
	dyn.Trials = 1
	sr, err := NewRunner(static)
	if err != nil {
		t.Fatal(err)
	}
	dr, err := NewDynamicRunner(dyn)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := NewRedTeamRunner(redTeamSpecForTest())
	if err != nil {
		t.Fatal(err)
	}
	plan := &exp.Plan{}
	for _, s := range []exp.SpecPlan{{Key: "static", Runner: sr}, {Key: "dynamic", Runner: dr}, {Key: "redteam", Runner: rr}} {
		if err := plan.Add(s.Key, s.Runner); err != nil {
			t.Fatal(err)
		}
	}
	return plan
}

// TestCheckpointRecordsPinned holds the checkpoint format to
// testdata/records.jsonl, one -stream record per spec kind (a static
// Trial, a DynamicTrial, a red-team search) written by the per-kind
// adapters exp.NewRunner replaced: each record decodes through its runner
// and re-encodes to the same bytes, and a resume from the file runs no
// unit and reattaches the red-team spec.
func TestCheckpointRecordsPinned(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "records.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	plan := recordPlan(t)
	runners := make(map[string]exp.TrialRunner)
	for _, sp := range plan.Specs {
		runners[sp.Key] = sp.Runner
	}
	for _, line := range bytes.Split(bytes.TrimSuffix(golden, []byte("\n")), []byte("\n")) {
		var rec struct {
			Key  string          `json:"spec"`
			Data json.RawMessage `json:"data"`
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatal(err)
		}
		r, ok := runners[rec.Key]
		if !ok {
			t.Fatalf("record for unknown spec %q", rec.Key)
		}
		v, err := r.Decode(rec.Data)
		if err != nil {
			t.Fatalf("%s: decode: %v", rec.Key, err)
		}
		again, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, rec.Data) {
			t.Errorf("%s: record re-encodes as\n%s\nwant\n%s", rec.Key, again, rec.Data)
		}
		delete(runners, rec.Key)
	}
	if len(runners) != 0 {
		t.Errorf("no record for %v", runners)
	}

	path := filepath.Join(t.TempDir(), "records.jsonl")
	if err := os.WriteFile(path, golden, 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := exp.OpenCollector(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, err := exp.Execute(plan, exp.Options{Jobs: 1, Collector: c})
	if err != nil {
		t.Fatal(err)
	}
	if res.UnitsRun != 0 || res.UnitsResumed != 3 {
		t.Errorf("resume ran %d units and served %d, want 0 and 3", res.UnitsRun, res.UnitsResumed)
	}
	if rt := res.Get("redteam").Aggregate.(*RedTeamResult); rt.Spec.Name != "rt" || rt.Spec.Topology == nil {
		t.Errorf("resumed red-team result carries spec %+v", rt.Spec)
	}
}

// TestJobsValidation pins the budget knob's validation.
func TestJobsValidation(t *testing.T) {
	spec := pipelineMatrix()[0]
	spec.Jobs = -1
	if _, err := Run(spec); err == nil {
		t.Error("negative Spec.Jobs accepted")
	}
	d := dynamicSpecForTest()
	d.Jobs = -2
	if _, err := RunDynamic(d); err == nil {
		t.Error("negative DynamicSpec.Jobs accepted")
	}
	r := redTeamSpecForTest()
	r.Jobs = -3
	if _, err := RunRedTeam(r); err == nil {
		t.Error("negative RedTeamSpec.Jobs accepted")
	}
}
