package exp

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/nectar-repro/nectar/internal/obs"
)

// unitRef identifies one schedulable unit of a plan: Spec indexes
// plan.Specs, Unit the unit within that spec.
type unitRef struct {
	Spec int
	Unit int
}

// Options parameterize one Execute call.
type Options struct {
	// Jobs is the total parallelism budget, split between unit-level
	// workers and each unit's engine workers by SplitBudget
	// (0 = GOMAXPROCS, negative is invalid).
	Jobs int
	// OnUnit, when non-nil, receives one event per finished unit
	// (possibly from concurrent workers — the callback is serialized).
	OnUnit func(UnitEvent)
	// Tracer, when non-nil, receives unit_start / unit_done events
	// (serialized under the scheduler lock, like OnUnit). Units
	// themselves are not traced — trial-internal engine events would
	// interleave nondeterministically across workers; per-engine tracing
	// belongs to single runs (nectar-sim -trace).
	Tracer obs.Tracer
}

// UnitEvent reports one finished unit to Options.OnUnit.
type UnitEvent struct {
	// Key is the unit's spec plan key; Unit its index within the spec.
	Key  string
	Unit int
	// Done / Total count finished units across the whole plan.
	Done, Total int
	// Elapsed is the unit's execution time.
	Elapsed time.Duration
	// Err is the unit's failure, if any.
	Err error
}

// SpecResult is one spec's outcome.
type SpecResult struct {
	Key string
	// Aggregate is the runner's Finalize output (nil when Err is set).
	Aggregate any
	// Err is the spec's first unit (or finalize) error, or an
	// incompleteness marker after a failure elsewhere in the plan.
	Err error
	// Units is the spec's unit count.
	Units int
	// UnitTime sums the executed units' durations — the spec's cost
	// independent of how the scheduler interleaved it.
	UnitTime time.Duration
}

// Results is the outcome of one Execute call.
type Results struct {
	// Specs holds one result per plan spec, in plan order.
	Specs []SpecResult
	// Wall is the end-to-end scheduling time; UnitTime the summed
	// execution time of all units run (Wall ≪ UnitTime under effective
	// cross-spec parallelism).
	Wall     time.Duration
	UnitTime time.Duration
	// UnitsRun counts the units executed.
	UnitsRun int
	// Jobs, UnitWorkers, EngineWorkers echo the resolved budget split.
	Jobs, UnitWorkers, EngineWorkers int

	byKey map[string]*SpecResult
}

// Get returns the result for a plan key (nil if absent).
func (r *Results) Get(key string) *SpecResult {
	return r.byKey[key]
}

// specState tracks one spec's progress during Execute.
type specState struct {
	records []any // per-unit records, as Run returned them
	done    []bool
	err     error
	unitDur time.Duration
}

// execRun is the mutable state of one Execute call, shared between the
// dispatch loop and the pool's workers.
type execRun struct {
	plan   *Plan
	opts   Options
	states []*specState
	res    *Results
	total  int

	mu       sync.Mutex
	firstErr error
	done     int
}

// emitEvent forwards one UnitEvent; the caller must hold e.mu (OnUnit is
// documented as serialized and Done counts must arrive monotone).
func (e *execRun) emitEvent(ev UnitEvent) {
	if e.opts.OnUnit != nil {
		e.opts.OnUnit(ev)
	}
}

// commit records one executed unit's outcome: bookkeeping, progress and
// the unit_done trace event.
func (e *execRun) commit(u unitRef, rec any, elapsed time.Duration, err error) {
	sp := e.plan.Specs[u.Spec]
	st := e.states[u.Spec]
	e.mu.Lock()
	defer e.mu.Unlock()
	st.unitDur += elapsed
	e.res.UnitTime += elapsed
	e.res.UnitsRun++
	if err != nil {
		err = fmt.Errorf("%s: unit %d: %w", sp.Key, u.Unit, err)
		if st.err == nil {
			st.err = err
		}
		if e.firstErr == nil {
			e.firstErr = err
		}
	} else {
		st.records[u.Unit] = rec
		st.done[u.Unit] = true
	}
	e.done++
	e.emitEvent(UnitEvent{Key: sp.Key, Unit: u.Unit, Done: e.done, Total: e.total, Elapsed: elapsed, Err: err})
	if e.opts.Tracer != nil {
		ev := obs.Event{Type: obs.EvUnitDone, Key: sp.Key, Unit: u.Unit, N: elapsed.Microseconds()}
		if err != nil {
			ev.Attrs = []obs.Attr{{K: "failed", V: 1}}
		}
		e.opts.Tracer.Emit(ev)
	}
}

// Execute runs every unit of the plan through one bounded worker pool
// and finalizes each spec's aggregate from its records in unit order.
// The first unit error stops dispatch (in-flight units drain); fully
// completed specs still finalize, so callers can flush what succeeded.
// Results are bit-identical for any Jobs value and any interleaving:
// units are pure functions of (spec, index), and each spec folds the
// records Run returned in unit order.
func Execute(plan *Plan, opts Options) (*Results, error) {
	if plan == nil || len(plan.Specs) == 0 {
		return nil, fmt.Errorf("exp: empty plan")
	}
	if opts.Jobs < 0 {
		return nil, fmt.Errorf("exp: negative Jobs %d", opts.Jobs)
	}
	jobs := opts.Jobs
	if jobs == 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	//nectar:allow-wallclock wall/parallelism telemetry in Result.Wall; never feeds trial records or aggregates
	start := time.Now()

	states := make([]*specState, len(plan.Specs))
	var pending []unitRef
	total := 0
	for si, sp := range plan.Specs {
		n := sp.Runner.Units()
		if n < 1 {
			return nil, fmt.Errorf("exp: spec %q has %d units", sp.Key, n)
		}
		states[si] = &specState{records: make([]any, n), done: make([]bool, n)}
		total += n
		for i := 0; i < n; i++ {
			pending = append(pending, unitRef{Spec: si, Unit: i})
		}
	}
	unitWorkers, engineWorkers := SplitBudget(jobs, total)

	e := &execRun{
		plan:   plan,
		opts:   opts,
		states: states,
		total:  total,
		res: &Results{
			Jobs:          jobs,
			UnitWorkers:   unitWorkers,
			EngineWorkers: engineWorkers,
			// Fixed capacity: byKey takes pointers into Specs as it grows.
			Specs: make([]SpecResult, 0, len(plan.Specs)),
			byKey: make(map[string]*SpecResult, len(plan.Specs)),
		},
	}
	e.runPool(pending, unitWorkers, engineWorkers)
	//nectar:allow-wallclock wall/parallelism telemetry in Result.Wall; never feeds trial records or aggregates
	e.res.Wall = time.Since(start)

	// Finalize every fully completed spec; mark the rest.
	firstErr := e.firstErr
	for si, sp := range plan.Specs {
		st := states[si]
		sr := SpecResult{Key: sp.Key, Units: len(st.done), UnitTime: st.unitDur}
		switch {
		case st.err != nil:
			sr.Err = st.err
		case !allDone(st.done):
			sr.Err = fmt.Errorf("%s: incomplete (%w)", sp.Key, firstErrOr(firstErr))
		default:
			agg, err := sp.Runner.Finalize(st.records)
			if err != nil {
				err = fmt.Errorf("%s: finalize: %w", sp.Key, err)
				if firstErr == nil {
					firstErr = err
				}
				sr.Err = err
			} else {
				sr.Aggregate = agg
			}
		}
		e.res.Specs = append(e.res.Specs, sr)
		e.res.byKey[sp.Key] = &e.res.Specs[len(e.res.Specs)-1]
	}
	return e.res, firstErr
}

// runPool executes pending units on the bounded worker pool.
func (e *execRun) runPool(pending []unitRef, unitWorkers, engineWorkers int) {
	work := make(chan unitRef)
	var wg sync.WaitGroup
	wg.Add(unitWorkers)
	for w := 0; w < unitWorkers; w++ {
		go func() {
			defer wg.Done()
			for u := range work {
				sp := e.plan.Specs[u.Spec]
				if e.opts.Tracer != nil {
					// Serialized under mu like OnUnit, so trace order is a
					// valid interleaving (though not a reproducible one —
					// unit events are operational telemetry, unlike the
					// engine's single-goroutine event stream).
					e.mu.Lock()
					e.opts.Tracer.Emit(obs.Event{Type: obs.EvUnitStart, Key: sp.Key, Unit: u.Unit})
					e.mu.Unlock()
				}
				//nectar:allow-wallclock per-unit timing telemetry for the -v progress line; never feeds trial records or aggregates
				t0 := time.Now()
				rec, err := sp.Runner.Run(u.Unit, engineWorkers)
				//nectar:allow-wallclock per-unit timing telemetry for the -v progress line; never feeds trial records or aggregates
				elapsed := time.Since(t0)
				e.commit(u, rec, elapsed, err)
			}
		}()
	}

	for _, u := range pending {
		e.mu.Lock()
		failed := e.firstErr != nil
		e.mu.Unlock()
		if failed {
			break
		}
		work <- u
	}
	close(work)
	wg.Wait()
}

func allDone(done []bool) bool {
	for _, d := range done {
		if !d {
			return false
		}
	}
	return true
}

func firstErrOr(err error) error {
	if err != nil {
		return err
	}
	return errors.New("exp: units left unrun")
}
