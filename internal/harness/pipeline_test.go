package harness

import (
	"math/rand"
	"reflect"
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
// runTrial plus the in-memory aggregation, no scheduler. The pipeline
// must reproduce it bit for bit.
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
// the plan/scheduler pipeline reproduces the legacy per-spec
// driver's aggregates bit for bit across a representative matrix,
// independent of the Jobs budget.
func TestPipelineMatchesLegacyRunBitForBit(t *testing.T) {
	for _, spec := range pipelineMatrix() {
		want := stripResult(legacyRun(t, spec))
		for _, jobs := range []int{0, 1, 3} {
			got, err := runOne[*Result](spec, spec.Name, jobs, NewRunner)
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
		got, err := runOne[*DynamicResult](s, s.Name, jobs, NewDynamicRunner)
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

// TestRedTeamPipelineMatchesSearchBitForBit pins that the pipeline's
// budget threading changes nothing about a search.
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

// TestPlanAggregatesInvariantAcrossJobs is the scheduler determinism
// property of DESIGN.md §10: one mixed static/dynamic/red-team plan
// produces byte-identical aggregates at -jobs 1 and -jobs N, and the
// red-team aggregate carries its spec.
func TestPlanAggregatesInvariantAcrossJobs(t *testing.T) {
	ref, err := exp.Execute(mixedPlan(t), exp.Options{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := planAggregates(t, ref)
	if rt := ref.Get("redteam/rt").Aggregate.(*RedTeamResult); rt.Spec.Name != "rt" || rt.Spec.Topology == nil {
		t.Errorf("red-team result carries spec %+v", rt.Spec)
	}

	res, err := exp.Execute(mixedPlan(t), exp.Options{Jobs: 8})
	if err != nil {
		t.Fatal(err)
	}
	if got := planAggregates(t, res); !reflect.DeepEqual(got, want) {
		t.Error("jobs=8 aggregates differ from jobs=1")
	}
}

// TestJobsValidation pins the budget's validation, wherever it is given.
func TestJobsValidation(t *testing.T) {
	if _, err := RunAll(pipelineMatrix()[:1], -1); err == nil {
		t.Error("negative RunAll jobs accepted")
	}
	d := dynamicSpecForTest()
	if _, err := runOne[*DynamicResult](d, d.Name, -2, NewDynamicRunner); err == nil {
		t.Error("negative dynamic jobs accepted")
	}
	r := redTeamSpecForTest()
	r.Jobs = -3
	if _, err := RunRedTeam(r); err == nil {
		t.Error("negative RedTeamSpec.Jobs accepted")
	}
}
