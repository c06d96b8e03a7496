package harness

import (
	"encoding/json"
	"fmt"

	"github.com/nectar-repro/nectar/internal/exp"
	"github.com/nectar-repro/nectar/internal/redteam"
	"github.com/nectar-repro/nectar/internal/stats"
)

// The three experiment drivers — static (Run), dynamic (RunDynamic) and
// red-team (RunRedTeam) — are thin adapters over one plan/scheduler/
// collector pipeline (internal/exp, DESIGN.md §10). Each spec kind
// exposes an exp.TrialRunner whose units are pure functions of
// (spec, unit index); the pipeline owns pooling, budget splitting,
// streaming, and resume.

// NewRunner validates a static spec and adapts it to the experiment
// pipeline: one unit per trial, seeded by trialSeedOf.
func NewRunner(spec Spec) (exp.TrialRunner, error) {
	spec, err := spec.validate()
	if err != nil {
		return nil, err
	}
	return &specRunner{spec: spec}, nil
}

type specRunner struct{ spec Spec }

func (r *specRunner) Fingerprint() string {
	s := &r.spec
	// The execution knob Jobs and the test-only references are excluded:
	// they never change results, so a checkpoint stays valid across them.
	// Scenario is a function and cannot be fingerprinted — the plan key
	// owns scenario identity (DESIGN.md §10).
	return fmt.Sprintf("static|%s|%s|%s|t=%d|trials=%d|seed=%d|scheme=%s|rounds=%d|fanout=%d|loss=%g",
		s.Name, s.Protocol, s.Attack, s.T, s.Trials, s.Seed, s.SchemeName,
		s.Rounds, s.Fanout, s.LossRate)
}

func (r *specRunner) Units() int           { return r.spec.Trials }
func (r *specRunner) UnitSeed(i int) int64 { return trialSeedOf(r.spec.Seed, i) }
func (r *specRunner) Run(i, engineWorkers int) (any, error) {
	return runTrial(&r.spec, i, engineWorkers)
}

func (r *specRunner) Decode(data json.RawMessage) (any, error) {
	var t Trial
	err := json.Unmarshal(data, &t)
	return t, err
}

func (r *specRunner) Finalize(records []any) (any, error) {
	trials := make([]Trial, len(records))
	for i, rec := range records {
		t, ok := rec.(Trial)
		if !ok {
			return nil, fmt.Errorf("harness: trial record %d has type %T", i, rec)
		}
		trials[i] = t
	}
	return aggregate(r.spec, trials), nil
}

// NewDynamicRunner validates a dynamic spec and adapts it to the
// pipeline: one unit per trial.
func NewDynamicRunner(spec DynamicSpec) (exp.TrialRunner, error) {
	spec, err := spec.validate()
	if err != nil {
		return nil, err
	}
	return &dynamicRunner{spec: spec}, nil
}

type dynamicRunner struct{ spec DynamicSpec }

func (r *dynamicRunner) Fingerprint() string {
	s := &r.spec
	return fmt.Sprintf("dynamic|%s|t=%d|trials=%d|seed=%d|scheme=%s|epochrounds=%d|epochs=%d",
		s.Name, s.T, s.Trials, s.Seed, s.SchemeName, s.EpochRounds, s.Epochs)
}

func (r *dynamicRunner) Units() int           { return r.spec.Trials }
func (r *dynamicRunner) UnitSeed(i int) int64 { return trialSeedOf(r.spec.Seed, i) }
func (r *dynamicRunner) Run(i, engineWorkers int) (any, error) {
	return runDynamicTrial(&r.spec, i, engineWorkers)
}

func (r *dynamicRunner) Decode(data json.RawMessage) (any, error) {
	var t DynamicTrial
	err := json.Unmarshal(data, &t)
	return t, err
}

func (r *dynamicRunner) Finalize(records []any) (any, error) {
	trials := make([]DynamicTrial, len(records))
	for i, rec := range records {
		t, ok := rec.(DynamicTrial)
		if !ok {
			return nil, fmt.Errorf("harness: dynamic trial record %d has type %T", i, rec)
		}
		trials[i] = t
	}
	return aggregateDynamic(r.spec, trials), nil
}

// NewRedTeamRunner validates a red-team spec and adapts it to the
// pipeline. A search is inherently sequential (each proposal depends on
// previous scores), so the whole search is one unit; scheduling still
// interleaves it with other specs' units, and the engine worker allowance
// flows into the per-candidate evaluation trials.
func NewRedTeamRunner(spec RedTeamSpec) (exp.TrialRunner, error) {
	spec = spec.withDefaults()
	if spec.Topology == nil {
		return nil, fmt.Errorf("harness: RedTeamSpec.Topology is required")
	}
	if spec.Jobs < 0 {
		return nil, fmt.Errorf("harness: Jobs must be non-negative, got %d", spec.Jobs)
	}
	if err := checkScheme(spec.SchemeName); err != nil {
		return nil, err
	}
	if !spec.Objective.Valid() {
		return nil, fmt.Errorf("harness: unknown objective %q (valid: %v)",
			spec.Objective, redteam.Objectives())
	}
	if !attackSupported(spec.Protocol, spec.Attack) {
		return nil, fmt.Errorf("harness: attack %q not defined for protocol %q", spec.Attack, spec.Protocol)
	}
	if _, err := redteam.ByName(spec.Optimizer); err != nil {
		return nil, err
	}
	return &redTeamRunner{spec: spec}, nil
}

type redTeamRunner struct{ spec RedTeamSpec }

func (r *redTeamRunner) Fingerprint() string {
	s := &r.spec
	return fmt.Sprintf("redteam|%s|%s|%s|%s|%s|t=%d|budget=%d|baseline=%d|trials=%d|seed=%d|scheme=%s|rounds=%d",
		s.Name, s.Protocol, s.Attack, s.Objective, s.Optimizer, s.T,
		s.Budget, s.BaselineSamples, s.Trials, s.Seed, s.SchemeName, s.Rounds)
}

func (r *redTeamRunner) Units() int         { return 1 }
func (r *redTeamRunner) UnitSeed(int) int64 { return r.spec.Seed }
func (r *redTeamRunner) Run(_, engineWorkers int) (any, error) {
	res, err := runRedTeamSearch(r.spec, engineWorkers)
	if err != nil {
		return nil, err
	}
	return toRedTeamRecord(res), nil
}

func (r *redTeamRunner) Decode(data json.RawMessage) (any, error) {
	var rec redTeamRecord
	err := json.Unmarshal(data, &rec)
	return rec, err
}

func (r *redTeamRunner) Finalize(records []any) (any, error) {
	if len(records) != 1 {
		return nil, fmt.Errorf("harness: red-team search expects 1 record, got %d", len(records))
	}
	rec, ok := records[0].(redTeamRecord)
	if !ok {
		return nil, fmt.Errorf("harness: red-team record has type %T", records[0])
	}
	return rec.result(r.spec), nil
}

// redTeamRecord is the JSON-serializable image of a RedTeamResult: the
// spec is dropped (its Topology field is a function) and reattached by
// Finalize.
type redTeamRecord struct {
	N, Edges, Kappa    int
	TruthPartitionable bool
	GuaranteeHolds     bool
	Guarantee          string
	Best               redteam.Outcome
	BestMetrics        redteam.EvalMetrics
	Baseline           stats.Summary
	BaselineBest       float64
	Trace              []redteam.Step
}

func toRedTeamRecord(r *RedTeamResult) redTeamRecord {
	return redTeamRecord{
		N: r.N, Edges: r.Edges, Kappa: r.Kappa,
		TruthPartitionable: r.TruthPartitionable,
		GuaranteeHolds:     r.GuaranteeHolds,
		Guarantee:          r.Guarantee,
		Best:               r.Best,
		BestMetrics:        r.BestMetrics,
		Baseline:           r.Baseline,
		BaselineBest:       r.BaselineBest,
		Trace:              r.Trace,
	}
}

func (rec redTeamRecord) result(spec RedTeamSpec) *RedTeamResult {
	return &RedTeamResult{
		Spec: spec,
		N:    rec.N, Edges: rec.Edges, Kappa: rec.Kappa,
		TruthPartitionable: rec.TruthPartitionable,
		GuaranteeHolds:     rec.GuaranteeHolds,
		Guarantee:          rec.Guarantee,
		Best:               rec.Best,
		BestMetrics:        rec.BestMetrics,
		Baseline:           rec.Baseline,
		BaselineBest:       rec.BaselineBest,
		Trace:              rec.Trace,
	}
}

// planKey names a spec inside a single-driver plan.
func planKey(name string) string {
	if name == "" {
		return "spec"
	}
	return name
}

// Run executes the experiment and aggregates its metrics. It is a
// one-spec plan over the shared pipeline: the Jobs budget (0 =
// GOMAXPROCS) is split between trial workers and each trial's engine
// workers (a single trial gets the whole budget for its engine).
func Run(spec Spec) (*Result, error) {
	runner, err := NewRunner(spec)
	if err != nil {
		return nil, err
	}
	agg, err := runOne(planKey(spec.Name), runner, exp.Options{Jobs: spec.Jobs})
	if err != nil {
		return nil, err
	}
	return agg.(*Result), nil
}

// RunDynamic executes the dynamic experiment: each trial generates a
// schedule, re-runs NECTAR epoch by epoch over it, and scores agreement,
// accuracy against the per-epoch ground truth, and detection latency.
// Scheduling matches Run: a one-spec plan under the DynamicSpec.Jobs
// budget.
func RunDynamic(spec DynamicSpec) (*DynamicResult, error) {
	runner, err := NewDynamicRunner(spec)
	if err != nil {
		return nil, err
	}
	agg, err := runOne(planKey(spec.Name), runner, exp.Options{Jobs: spec.Jobs})
	if err != nil {
		return nil, err
	}
	return agg.(*DynamicResult), nil
}

// RunRedTeam executes the search described by spec (one unit — searches
// are sequential — so the whole Jobs budget flows into each candidate's
// evaluation trials).
func RunRedTeam(spec RedTeamSpec) (*RedTeamResult, error) {
	runner, err := NewRedTeamRunner(spec)
	if err != nil {
		return nil, err
	}
	agg, err := runOne(planKey(spec.Name), runner, exp.Options{Jobs: spec.Jobs})
	if err != nil {
		return nil, err
	}
	return agg.(*RedTeamResult), nil
}

// runOne executes a single-spec plan and unwraps its aggregate.
func runOne(key string, runner exp.TrialRunner, opts exp.Options) (any, error) {
	plan := &exp.Plan{}
	if err := plan.Add(key, runner); err != nil {
		return nil, err
	}
	res, err := exp.Execute(plan, opts)
	if err != nil {
		return nil, fmt.Errorf("harness: %w", err)
	}
	return res.Specs[0].Aggregate, nil
}

// RunAll executes many static specs through one scheduler: units from
// every spec share a single bounded pool (cross-spec parallelism), and
// results come back in spec order. jobs = 0 means GOMAXPROCS.
func RunAll(specs []Spec, jobs int) ([]*Result, error) {
	plan := &exp.Plan{}
	for i, s := range specs {
		runner, err := NewRunner(s)
		if err != nil {
			return nil, fmt.Errorf("harness: spec %d (%s): %w", i, s.Name, err)
		}
		if err := plan.Add(fmt.Sprintf("%d/%s", i, planKey(s.Name)), runner); err != nil {
			return nil, err
		}
	}
	res, err := exp.Execute(plan, exp.Options{Jobs: jobs})
	if err != nil {
		return nil, fmt.Errorf("harness: %w", err)
	}
	out := make([]*Result, len(specs))
	for i := range specs {
		out[i] = res.Specs[i].Aggregate.(*Result)
	}
	return out, nil
}
