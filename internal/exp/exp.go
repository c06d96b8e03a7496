// Package exp is the experiment pipeline behind the harness drivers and
// nectar-bench (DESIGN.md §10): a declarative Plan of trial units, one
// global bounded scheduler that runs units from all specs in a single
// pool, and a streaming Collector that checkpoints per-unit records as
// JSONL and resumes interrupted sweeps.
//
// The paper's evaluation (§V) is a wide grid — protocols × attacks ×
// topology families × sizes × schemes — and every cell decomposes into
// trial units that are pure functions of (spec, unit index). The pipeline
// exploits exactly that purity:
//
//   - units from *all* specs interleave freely in one worker pool
//     (cross-spec parallelism: a slow spec no longer serializes the grid);
//   - per-unit records stream to disk the moment they complete, so a
//     sweep that dies at 90% resumes from its checkpoint instead of
//     restarting from zero;
//   - aggregates are folded from records in unit order after every unit
//     of a spec lands, and every record is normalized through one JSON
//     round trip first — so aggregates are bit-identical regardless of
//     worker count, interleaving, or resume point.
package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// TrialRunner adapts one spec's trials to the pipeline; NewRunner builds
// one from a spec kind's functions. Every unit must be a pure
// function of the spec and the unit index: no shared mutable state, no
// dependence on execution order. The scheduler may call Run for distinct
// units concurrently.
type TrialRunner interface {
	// Fingerprint returns a stable, human-readable description of the
	// spec's identity. It is hashed into the resume key: a checkpointed
	// record is only reused when the plan key, fingerprint hash, unit
	// index, and unit seed all match. Function-valued spec fields
	// (scenario generators) cannot be fingerprinted — callers own keeping
	// plan keys stable only while those functions are (see DESIGN.md §10).
	Fingerprint() string
	// Units is the number of independent trial units (≥ 1).
	Units() int
	// UnitSeed returns the seed that fully determines unit i, recorded in
	// the checkpoint as part of the resume key.
	UnitSeed(i int) int64
	// Run executes unit i. engineWorkers is the unit's share of the
	// plan's parallelism budget for intra-trial (engine) parallelism; it
	// must never change the result, only the wall-clock.
	Run(i, engineWorkers int) (any, error)
	// Decode reloads one checkpointed record. It must be the inverse of
	// encoding/json over Run's result type.
	Decode(data json.RawMessage) (any, error)
	// Finalize folds the records of all units — in unit order, each one
	// normalized through a JSON round trip — into the spec's aggregate.
	Finalize(records []any) (any, error)
}

// NewRunner returns the TrialRunner of a spec whose units return records
// of type R and fold into an aggregate of type A: fingerprint and units
// describe the spec, seed gives UnitSeed, run executes a unit, and fold
// receives every unit's record in unit order. Decode unmarshals into R,
// and Finalize checks each record is an R before it calls fold.
func NewRunner[R, A any](fingerprint string, units int, seed func(unit int) int64,
	run func(unit, engineWorkers int) (R, error), fold func([]R) A) TrialRunner {
	return &runner[R, A]{fingerprint, units, seed, run, fold}
}

// runner is the one TrialRunner implementation; R and A stay hidden
// behind the interface, which is what lets a Plan mix spec kinds.
type runner[R, A any] struct {
	fingerprint string
	units       int
	seed        func(int) int64
	run         func(int, int) (R, error)
	fold        func([]R) A
}

func (r *runner[R, A]) Fingerprint() string  { return r.fingerprint }
func (r *runner[R, A]) Units() int           { return r.units }
func (r *runner[R, A]) UnitSeed(i int) int64 { return r.seed(i) }
func (r *runner[R, A]) Run(i, engineWorkers int) (any, error) {
	return r.run(i, engineWorkers)
}

func (r *runner[R, A]) Decode(data json.RawMessage) (any, error) {
	var rec R
	err := json.Unmarshal(data, &rec)
	return rec, err
}

func (r *runner[R, A]) Finalize(records []any) (any, error) {
	recs := make([]R, len(records))
	for i, rec := range records {
		var ok bool
		if recs[i], ok = rec.(R); !ok {
			return nil, fmt.Errorf("exp: record %d has type %T, want %T", i, rec, recs[i])
		}
	}
	return r.fold(recs), nil
}

// SpecPlan is one spec of a Plan.
type SpecPlan struct {
	// Key names the spec uniquely within the plan; it prefixes progress
	// lines and forms part of the resume key.
	Key    string
	Runner TrialRunner
}

// Plan is a declarative grid of trial units: every spec added resolves to
// Runner.Units() schedulable units. Building a plan runs nothing.
type Plan struct {
	Specs []SpecPlan
	keys  map[string]bool
}

// Add appends a spec to the plan. Keys must be unique and non-empty.
func (p *Plan) Add(key string, r TrialRunner) error {
	if key == "" {
		return fmt.Errorf("exp: empty plan key")
	}
	if r == nil {
		return fmt.Errorf("exp: nil runner for %q", key)
	}
	if p.keys == nil {
		p.keys = make(map[string]bool)
	}
	if p.keys[key] {
		return fmt.Errorf("exp: duplicate plan key %q", key)
	}
	p.keys[key] = true
	p.Specs = append(p.Specs, SpecPlan{Key: key, Runner: r})
	return nil
}

// fingerprintHash folds a runner fingerprint into the short stable hash
// stored in checkpoint records, so a resume reuses a record only for an
// unchanged spec.
func fingerprintHash(fp string) string {
	sum := sha256.Sum256([]byte(fp))
	return hex.EncodeToString(sum[:8])
}

// SplitBudget divides a run's parallelism budget between
// unit-level workers and each unit's engine workers: units win while
// there are enough of them to fill the budget (trial-level parallelism
// has no synchronization barriers), and leftover budget goes to the
// engine (large single topologies with few trials). jobs ≤ 0 is treated
// as 1. Execute applies it to the units left after a resume.
func SplitBudget(jobs, units int) (unitWorkers, engineWorkers int) {
	if jobs < 1 {
		jobs = 1
	}
	if units < 1 {
		units = 1
	}
	unitWorkers = jobs
	if unitWorkers > units {
		unitWorkers = units
	}
	engineWorkers = jobs / unitWorkers
	if engineWorkers < 1 {
		engineWorkers = 1
	}
	return unitWorkers, engineWorkers
}
