package report

import (
	"fmt"
	"sort"
	"time"

	"github.com/nectar-repro/nectar/internal/exp"
	"github.com/nectar-repro/nectar/internal/harness"
)

// The report layer is declarative (DESIGN.md §10): every experiment
// *declares* the harness specs behind its figure or table (Declare) and
// separately *renders* the finished results into the output (Render).
// Between the two phases, one global scheduler runs the units of every
// declared spec — across all requested experiments — in a single bounded
// pool, streaming per-trial records to an optional JSONL checkpoint.

// Batch collects the specs one experiment declares. Keys are
// experiment-local; the runner prefixes them with the experiment ID.
type Batch struct {
	prefix string
	plan   *exp.Plan
	err    error
}

func (b *Batch) add(key string, runner exp.TrialRunner, err error) {
	if b.err != nil {
		return
	}
	if err != nil {
		b.err = fmt.Errorf("%s%s: %w", b.prefix, key, err)
		return
	}
	if err := b.plan.Add(b.prefix+key, runner); err != nil {
		b.err = err
	}
}

// Static declares a static experiment spec under key.
func (b *Batch) Static(key string, spec harness.Spec) {
	r, err := harness.NewRunner(spec)
	b.add(key, r, err)
}

// Dynamic declares a dynamic (churn) spec under key.
func (b *Batch) Dynamic(key string, spec harness.DynamicSpec) {
	r, err := harness.NewDynamicRunner(spec)
	b.add(key, r, err)
}

// RedTeam declares a red-team search spec under key.
func (b *Batch) RedTeam(key string, spec harness.RedTeamSpec) {
	r, err := harness.NewRedTeamRunner(spec)
	b.add(key, r, err)
}

// Results resolves an experiment's finished specs by the keys it
// declared them under.
type Results struct {
	prefix string
	res    *exp.Results
}

// lookup returns the aggregate, of type A, of the spec declared under key.
func lookup[A any](r *Results, key string) (A, error) {
	var agg A
	sr := r.res.Get(r.prefix + key)
	if sr == nil {
		return agg, fmt.Errorf("report: no result for %s%s (not declared)", r.prefix, key)
	}
	if sr.Err != nil {
		return agg, sr.Err
	}
	return sr.Aggregate.(A), nil
}

// Static returns the aggregate of a static spec.
func (r *Results) Static(key string) (*harness.Result, error) {
	return lookup[*harness.Result](r, key)
}

// Dynamic returns the aggregate of a dynamic spec.
func (r *Results) Dynamic(key string) (*harness.DynamicResult, error) {
	return lookup[*harness.DynamicResult](r, key)
}

// RedTeam returns the outcome of a red-team search.
func (r *Results) RedTeam(key string) (*harness.RedTeamResult, error) {
	return lookup[*harness.RedTeamResult](r, key)
}

// Output is one rendered experiment: a figure or a table.
type Output struct {
	Figure *Figure
	Table  *Table
}

// ID returns the output's identifier (CSV base name).
func (o *Output) ID() string {
	if o.Figure != nil {
		return o.Figure.ID
	}
	return o.Table.ID
}

// CSV renders the output's CSV form.
func (o *Output) CSV() string {
	if o.Figure != nil {
		return o.Figure.CSV()
	}
	return o.Table.CSV()
}

// ASCII renders the output for terminal inspection.
func (o *Output) ASCII() string {
	if o.Figure != nil {
		return o.Figure.ASCII(72, 18)
	}
	return o.Table.ASCII()
}

// Experiment is one paper experiment in declarative form: Declare emits
// the spec grid, Render assembles the figure or table from the finished
// results. Declare must be cheap and deterministic in opts; all compute
// happens between the phases, inside the scheduler.
type Experiment struct {
	ID      string
	Declare func(opts Options, b *Batch) error
	Render  func(opts Options, r *Results) (*Output, error)
}

// ExperimentRun is one experiment's outcome within a RunReport.
type ExperimentRun struct {
	ID string
	// Output is the rendered figure/table (nil when Err is set).
	Output *Output
	Err    error
	// Units / Resumed count the experiment's trial units and how many
	// were served from the checkpoint; UnitTime sums its executed units'
	// durations (its cost independent of scheduling).
	Units, Resumed int
	UnitTime       time.Duration
}

// RunReport is the outcome of RunExperiments.
type RunReport struct {
	// Experiments holds one entry per requested ID, in request order.
	Experiments []ExperimentRun
	// Wall is the scheduling wall-clock; UnitTime the summed unit
	// execution time (UnitTime/Wall ≈ achieved parallelism).
	Wall, UnitTime time.Duration
	// Jobs echoes the resolved budget; UnitsRun/UnitsResumed count
	// executed vs checkpoint-served units across the whole plan.
	Jobs, UnitsRun, UnitsResumed int
}

// RunExperiments executes the requested experiments as ONE scheduled
// plan: every spec of every experiment shares a single bounded worker
// pool, so cross-spec (and cross-experiment) parallelism replaces the
// old one-figure-at-a-time serial sweep. The first failure stops
// dispatch, but experiments whose specs all completed still render, so
// callers can flush finished outputs before reporting the error. xo
// carries the budget, checkpoint collector, progress, interrupt and
// telemetry to exp.Execute unchanged.
func RunExperiments(ids []string, opts Options, xo exp.Options) (*RunReport, error) {
	exps, err := resolveExperiments(ids)
	if err != nil {
		return nil, err
	}
	return runExperimentSet(exps, opts, xo)
}

// resolveExperiments maps requested IDs to registered experiments.
func resolveExperiments(ids []string) ([]Experiment, error) {
	exps := make([]Experiment, 0, len(ids))
	for _, id := range ids {
		e, ok := ExperimentByID(id)
		if !ok {
			return nil, fmt.Errorf("report: unknown experiment %q (valid: %v)", id, ExperimentIDs())
		}
		exps = append(exps, e)
	}
	return exps, nil
}

// declarePlan runs the Declare phase of already-resolved experiments
// into one plan. Declare is deterministic in opts, so identical
// (experiment IDs, opts) produce identical plans and a resumed run
// finds its checkpointed units under the same keys.
func declarePlan(exps []Experiment, opts Options) (*exp.Plan, error) {
	plan := &exp.Plan{}
	for _, e := range exps {
		b := &Batch{prefix: e.ID + "/", plan: plan}
		if err := e.Declare(opts, b); err != nil {
			return nil, fmt.Errorf("report: declare %s: %w", e.ID, err)
		}
		if b.err != nil {
			return nil, fmt.Errorf("report: declare %s: %w", e.ID, b.err)
		}
	}
	return plan, nil
}

// runExperimentSet is RunExperiments over already-resolved experiments.
func runExperimentSet(exps []Experiment, opts Options, xo exp.Options) (*RunReport, error) {
	plan, err := declarePlan(exps, opts)
	if err != nil {
		return nil, err
	}
	res, execErr := exp.Execute(plan, xo)
	if res == nil {
		return nil, execErr
	}

	report := &RunReport{
		Wall:         res.Wall,
		UnitTime:     res.UnitTime,
		Jobs:         res.Jobs,
		UnitsRun:     res.UnitsRun,
		UnitsResumed: res.UnitsResumed,
	}
	firstErr := execErr
	for _, e := range exps {
		run := ExperimentRun{ID: e.ID}
		specErr := false
		for _, sr := range res.Specs {
			if !hasPrefix(sr.Key, e.ID+"/") {
				continue
			}
			run.Units += sr.Units
			run.Resumed += sr.Resumed
			run.UnitTime += sr.UnitTime
			if sr.Err != nil && !specErr {
				run.Err = sr.Err
				specErr = true
			}
		}
		if !specErr {
			out, err := e.Render(opts, &Results{prefix: e.ID + "/", res: res})
			if err != nil {
				run.Err = fmt.Errorf("render %s: %w", e.ID, err)
			} else {
				run.Output = out
			}
		}
		if run.Err != nil && firstErr == nil {
			firstErr = run.Err
		}
		report.Experiments = append(report.Experiments, run)
	}
	return report, firstErr
}

func hasPrefix(s, prefix string) bool {
	return len(s) >= len(prefix) && s[:len(prefix)] == prefix
}

// ExperimentIDs lists every runnable experiment in canonical order.
func ExperimentIDs() []string {
	ids := make([]string, 0, len(registry()))
	for _, e := range registry() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return ids
}

// ExperimentByID resolves an experiment.
func ExperimentByID(id string) (Experiment, bool) {
	for _, e := range registry() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
