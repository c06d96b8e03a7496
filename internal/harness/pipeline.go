package harness

import (
	"fmt"

	"github.com/nectar-repro/nectar/internal/exp"
	"github.com/nectar-repro/nectar/internal/redteam"
)

// The three experiment drivers — static (Run), dynamic (RunDynamic) and
// red-team (RunRedTeam) — run over one plan/scheduler/collector pipeline
// (internal/exp, DESIGN.md §10). Each constructor validates its spec and
// hands exp.NewRunner the spec kind's fingerprint, units, seeds, unit
// function and fold; the pipeline owns pooling, budget splitting,
// streaming, and resume.

// NewRunner validates a static spec and adapts it to the experiment
// pipeline: one unit per trial, seeded by trialSeedOf.
func NewRunner(spec Spec) (exp.TrialRunner, error) {
	spec, err := spec.validate()
	if err != nil {
		return nil, err
	}
	s := &spec
	// The execution knob Jobs and the test-only references are excluded:
	// they never change results, so a checkpoint stays valid across them.
	// Scenario is a function and cannot be fingerprinted — the plan key
	// owns scenario identity (DESIGN.md §10).
	fp := fmt.Sprintf("static|%s|%s|%s|t=%d|trials=%d|seed=%d|scheme=%s|rounds=%d|fanout=%d|loss=%g",
		s.Name, s.Protocol, s.Attack, s.T, s.Trials, s.Seed, s.SchemeName,
		s.Rounds, s.Fanout, s.LossRate)
	return exp.NewRunner(fp, s.Trials, func(i int) int64 { return trialSeedOf(s.Seed, i) },
		func(i, engineWorkers int) (Trial, error) { return runTrial(s, i, engineWorkers) },
		func(trials []Trial) *Result { return aggregate(spec, trials) }), nil
}

// NewDynamicRunner validates a dynamic spec and adapts it to the
// pipeline: one unit per trial.
func NewDynamicRunner(spec DynamicSpec) (exp.TrialRunner, error) {
	spec, err := spec.validate()
	if err != nil {
		return nil, err
	}
	s := &spec
	fp := fmt.Sprintf("dynamic|%s|t=%d|trials=%d|seed=%d|scheme=%s|epochrounds=%d|epochs=%d",
		s.Name, s.T, s.Trials, s.Seed, s.SchemeName, s.EpochRounds, s.Epochs)
	return exp.NewRunner(fp, s.Trials, func(i int) int64 { return trialSeedOf(s.Seed, i) },
		func(i, engineWorkers int) (DynamicTrial, error) { return runDynamicTrial(s, i, engineWorkers) },
		func(trials []DynamicTrial) *DynamicResult { return aggregateDynamic(spec, trials) }), nil
}

// NewRedTeamRunner validates a red-team spec and adapts it to the
// pipeline. A search scores one candidate at a time against a shared
// metrics memo, so the whole search is one unit; scheduling still
// interleaves it with other specs' units, and the engine worker allowance
// flows into the per-candidate evaluation trials. Its record is the
// RedTeamResult without the spec, which the fold attaches again.
func NewRedTeamRunner(spec RedTeamSpec) (exp.TrialRunner, error) {
	spec = spec.withDefaults()
	if spec.Topology == nil {
		return nil, fmt.Errorf("harness: RedTeamSpec.Topology is required")
	}
	// Every count is checked here, before the search's unit runs: T against
	// n only once the topology is sampled, the rest in full.
	if err := checkCounts(spec.SchemeName, count{"Trials", spec.Trials, true}, count{"Jobs", spec.Jobs, false},
		count{"T", spec.T, true}, count{"Rounds", spec.Rounds, false},
		count{"Budget", spec.Budget, false}, count{"BaselineSamples", spec.BaselineSamples, false}); err != nil {
		return nil, err
	}
	if !spec.Objective.Valid() {
		return nil, fmt.Errorf("harness: unknown objective %q (valid: %v)",
			spec.Objective, redteam.Objectives())
	}
	if row(spec.Protocol, spec.Attack) == nil {
		return nil, fmt.Errorf("harness: attack %q not defined for protocol %q", spec.Attack, spec.Protocol)
	}
	s := &spec
	fp := fmt.Sprintf("redteam|%s|%s|%s|%s|t=%d|budget=%d|baseline=%d|trials=%d|seed=%d|scheme=%s|rounds=%d",
		s.Name, s.Protocol, s.Attack, s.Objective, s.T,
		s.Budget, s.BaselineSamples, s.Trials, s.Seed, s.SchemeName, s.Rounds)
	return exp.NewRunner(fp, 1, func(int) int64 { return s.Seed },
		func(_, engineWorkers int) (RedTeamResult, error) { return runRedTeamSearch(s, engineWorkers) },
		func(recs []RedTeamResult) *RedTeamResult {
			res := &recs[0]
			res.Spec = spec
			return res
		}), nil
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
	return runOne[*Result](spec, spec.Name, spec.Jobs, NewRunner)
}

// RunDynamic executes the dynamic experiment: each trial generates a
// schedule, re-runs NECTAR epoch by epoch over it, and scores agreement,
// accuracy against the per-epoch ground truth, and detection latency.
// Scheduling matches Run: a one-spec plan under the DynamicSpec.Jobs
// budget.
func RunDynamic(spec DynamicSpec) (*DynamicResult, error) {
	return runOne[*DynamicResult](spec, spec.Name, spec.Jobs, NewDynamicRunner)
}

// RunRedTeam executes the search described by spec (one unit, so the
// whole Jobs budget flows into each candidate's evaluation trials).
func RunRedTeam(spec RedTeamSpec) (*RedTeamResult, error) {
	return runOne[*RedTeamResult](spec, spec.Name, spec.Jobs, NewRedTeamRunner)
}

// runOne runs spec as a one-spec plan under the jobs budget and returns its
// aggregate, of type A.
func runOne[A, S any](spec S, name string, jobs int, newRunner func(S) (exp.TrialRunner, error)) (A, error) {
	var agg A
	runner, err := newRunner(spec)
	if err != nil {
		return agg, err
	}
	plan := &exp.Plan{}
	if err := plan.Add(planKey(name), runner); err != nil {
		return agg, err
	}
	res, err := exp.Execute(plan, exp.Options{Jobs: jobs})
	if err != nil {
		return agg, fmt.Errorf("harness: %w", err)
	}
	return res.Specs[0].Aggregate.(A), nil
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
