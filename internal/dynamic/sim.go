package dynamic

import (
	"fmt"
	"runtime"

	"github.com/nectar-repro/nectar/internal/exp"
	"github.com/nectar-repro/nectar/internal/graph"
	"github.com/nectar-repro/nectar/internal/ids"
	"github.com/nectar-repro/nectar/internal/obs"
	"github.com/nectar-repro/nectar/internal/rounds"
)

// epochSeedStride derives per-epoch seeds, matching the harness's
// per-trial stride so epoch 0 reproduces a static Simulate bit-for-bit
// (seed + 0·stride = seed).
const epochSeedStride = 0x9E3779B9

// Verdict is one correct node's scored decision in one epoch.
type Verdict struct {
	// Partitionable is the node's partitionability verdict.
	Partitionable bool
	// Key labels the epoch_verdict event; agreement reads only
	// Partitionable.
	Key string
}

// Stack is one epoch's wired protocol stack: a Protocol per vertex
// (absent and Byzantine vertices included — typically silenced or
// wrapped) plus a Finish callback reading the decisions of the correct,
// present nodes after the epoch's run.
type Stack struct {
	Protos []rounds.Protocol
	Finish func() map[ids.NodeID]Verdict
}

// BuildFn wires one epoch: g is the live graph at the epoch's first round
// (callee-owned), absent the nodes currently churned out, and seed the
// epoch's derived seed. Run calls it once per epoch, and the returned
// stacks' Finish once each, all on the goroutine that called Run and each
// in epoch order — so builds and Finish closures may share state without
// a lock. They do not alternate: build(e+k) may run before Finish(e), for
// k below the run's window (Config.Workers), while the engines of epochs
// e..e+k-1 step their Protos on other goroutines.
type BuildFn func(epoch int, g *graph.Graph, absent ids.Set, seed int64) (*Stack, error)

// Config parameterizes an epoch-based re-detection run.
type Config struct {
	// Schedule is the evolving topology. Required.
	Schedule *EdgeSchedule
	// T is the Byzantine bound the ground truth tests against (κ ≤ T).
	T int
	// Seed derives every epoch's seed.
	Seed int64
	// EpochRounds is the engine horizon per epoch (0 = n-1, Simulate's
	// default).
	EpochRounds int
	// Epochs is the number of detection epochs (0 = enough that the last
	// epoch starts at or after the schedule's final event, so the final
	// topology's ground truth is always scored).
	Epochs int
	// Workers is the run's parallelism budget (0 = GOMAXPROCS), split by
	// exp.SplitBudget between epochs in flight and each epoch's engine
	// workers: epochs are independent agreement instances with no barrier
	// between them, so they win the budget while there are enough of them,
	// and what is left over goes to rounds.Config.Workers. Results are
	// identical for any budget (DESIGN.md §7).
	Workers int
	// Tracer, when non-nil, receives epoch_start / epoch_verdict events
	// bracketing each epoch's engine events (the same Tracer is handed to
	// rounds.Config). Event order is the trace contract, so a traced run
	// keeps one epoch in flight and gives its engine the whole budget. Nil
	// by default; tracing never changes results.
	Tracer obs.Tracer
}

// EpochReport scores one epoch.
type EpochReport struct {
	// Epoch is the 0-based epoch index; StartRound its first global round.
	Epoch      int
	StartRound int
	// Kappa is the ground-truth vertex connectivity of the subgraph
	// induced by present nodes at the epoch's first round; mid-epoch
	// changes are attributed to the next epoch's truth.
	Kappa int
	// TruthPartitionable is Kappa <= T (Corollary 1).
	TruthPartitionable bool
	// Absent lists the nodes churned out at the epoch's first round.
	Absent []ids.NodeID
	// Verdicts holds each correct, present node's scored decision.
	Verdicts map[ids.NodeID]Verdict
	// Agreement reports whether every correct, present node decided the
	// same value: none or all Verdicts are Partitionable (DESIGN.md §7).
	Agreement bool
	// Decision is the lowest-ID correct node's Key, the epoch_verdict
	// label (the epoch's decision when Agreement holds).
	Decision string
	// Metrics is the epoch's engine traffic.
	Metrics *rounds.Metrics
}

// unanimous reports whether every correct node's verdict matches want
// (false when no correct node decided).
func (e *EpochReport) unanimous(want bool) bool {
	if len(e.Verdicts) == 0 {
		return false
	}
	for _, v := range e.Verdicts {
		if v.Partitionable != want {
			return false
		}
	}
	return true
}

// Flip is one ground-truth partitionability transition and how long the
// detector took to follow it.
type Flip struct {
	// Epoch is the first epoch whose ground truth differs from the
	// previous epoch's; ToPartitionable is the new truth.
	Epoch           int
	ToPartitionable bool
	// DetectedEpoch is the first epoch in [Epoch, next flip) at which
	// every correct node's verdict matches the new truth, or -1 if the
	// run (or the next flip) arrives first.
	DetectedEpoch int
	// Latency is DetectedEpoch - Epoch in epochs, or -1 if undetected.
	Latency int
}

// Result aggregates an epoch-based re-detection run.
type Result struct {
	// EpochRounds is the resolved per-epoch horizon.
	EpochRounds int
	// Epochs holds one report per epoch, in order.
	Epochs []EpochReport
	// Flips lists every ground-truth transition with its detection
	// latency. The initial truth is not a flip.
	Flips []Flip
	// KappaStats counts the run's ground-truth κ computations.
	KappaStats KappaStats
}

// KappaStats counts a run's ground-truth κ computations.
type KappaStats struct {
	// ExactEvals counts from-scratch κ computations: one per epoch.
	ExactEvals int
}

// DetectionLatency summarizes Flips: the mean latency over detected
// flips, plus the detected / undetected counts.
func (r *Result) DetectionLatency() (mean float64, detected, undetected int) {
	var sum int
	for _, f := range r.Flips {
		if f.Latency >= 0 {
			sum += f.Latency
			detected++
		} else {
			undetected++
		}
	}
	if detected > 0 {
		mean = float64(sum) / float64(detected)
	}
	return mean, detected, undetected
}

// flight is one epoch between its build and its Finish: the report so far
// (the engine's goroutine adds Metrics), the stack to finish, and the
// engine's error, sent once it has stopped.
type flight struct {
	rep   EpochReport
	stack *Stack
	done  chan error
}

// Run executes epoch-based re-detection: for each epoch it replays the
// schedule to the epoch's first round, asks build for a fresh protocol
// stack over the live graph, drives the rounds engine with the schedule's
// window as TopologyProvider (mid-epoch events swap adjacency and re-arm
// quiescence), and scores the outcome against the epoch's ground truth.
// Flips of the ground truth are matched against the epochs that follow to
// measure detection latency.
//
// Up to a window of epochs run their engines concurrently (Config.Workers);
// build, the ground-truth κ, Finish and scoring stay on the calling
// goroutine, in epoch order. Run returns only after every engine it
// launched has stopped, with the first error in epoch order: the epochs
// before it have been finished, none at or after it is.
func Run(cfg Config, build BuildFn) (*Result, error) {
	if build == nil {
		return nil, fmt.Errorf("dynamic: Run requires a build function")
	}
	if err := cfg.Schedule.Validate(); err != nil {
		return nil, err
	}
	if cfg.T < 0 {
		return nil, fmt.Errorf("dynamic: negative T %d", cfg.T)
	}
	if cfg.EpochRounds < 0 {
		return nil, fmt.Errorf("dynamic: negative EpochRounds %d", cfg.EpochRounds)
	}
	if cfg.Epochs < 0 {
		return nil, fmt.Errorf("dynamic: negative Epochs %d", cfg.Epochs)
	}
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("dynamic: negative Workers %d", cfg.Workers)
	}
	n := cfg.Schedule.Base.N()
	epochRounds := cfg.EpochRounds
	if epochRounds == 0 {
		epochRounds = n - 1
	}
	epochs := cfg.Epochs
	if epochs == 0 {
		epochs = 1
		// Cover every event plus one epoch whose *start* postdates the
		// last event, so the final topology's ground truth is scored
		// even when the last event lands mid-epoch: the last event at
		// round H falls in epoch ⌈(H-1)/R⌉ at the latest, and the next
		// epoch starts at or after H.
		if h := cfg.Schedule.Horizon(); epochRounds > 0 && h > 1 {
			// ceil((h-1)/R) + 1
			epochs = (h-2+epochRounds)/epochRounds + 1
		}
	}
	budget := cfg.Workers
	if budget == 0 {
		budget = runtime.GOMAXPROCS(0)
	}
	concurrent := epochs
	if cfg.Tracer != nil {
		concurrent = 1 // the trace is one ordered stream
	}
	window, engineWorkers := exp.SplitBudget(budget, concurrent)

	res := &Result{EpochRounds: epochRounds}
	// One cursor walks the schedule once; each epoch gets a snapshot of it.
	cursor, err := NewPlayer(cfg.Schedule)
	if err != nil {
		return nil, err
	}

	// start wires epoch e and launches its engine.
	start := func(e int) (*flight, error) {
		offset := e * epochRounds
		w := cursor.window(offset)
		gStart := w.GraphFor(1).Clone()
		absent := w.p.Absent().Clone()
		// Ground truth is a pure function of the epoch's start state, so
		// it is computed up front (before build takes gStart) and
		// announced on the epoch_start event.
		kappa := presentKappa(gStart, absent)
		res.KappaStats.ExactEvals++
		seed := cfg.Seed + int64(e)*epochSeedStride
		stack, err := build(e, gStart, absent, seed)
		if err != nil {
			return nil, fmt.Errorf("dynamic: epoch %d: %w", e, err)
		}
		if cfg.Tracer != nil {
			cfg.Tracer.Emit(obs.Event{Type: obs.EvEpochStart, Epoch: e, Round: offset + 1, N: int64(kappa)})
		}
		f := &flight{
			rep: EpochReport{
				Epoch:              e,
				StartRound:         offset + 1,
				Kappa:              kappa,
				TruthPartitionable: kappa <= cfg.T,
				Absent:             absent.Sorted(),
			},
			stack: stack,
			done:  make(chan error, 1),
		}
		go func() {
			var err error
			f.rep.Metrics, err = rounds.Run(rounds.Config{
				Topology: w,
				Rounds:   epochRounds,
				Seed:     seed,
				Workers:  engineWorkers,
				Tracer:   cfg.Tracer,
			}, stack.Protos)
			f.done <- err
		}()
		return f, nil
	}

	// The epochs in flight, oldest first, and the run's error once there
	// is one. retire waits for the oldest engine and, unless an earlier
	// epoch already failed, finishes and scores its epoch.
	var inFlight []*flight
	var runErr error
	retire := func() {
		f := inFlight[0]
		inFlight[0] = nil // the backing array must not keep a finished stack alive
		inFlight = inFlight[1:]
		err := <-f.done
		if runErr != nil {
			return
		}
		if err != nil {
			runErr = fmt.Errorf("dynamic: epoch %d: %w", f.rep.Epoch, err)
			return
		}
		rep := f.rep
		rep.Verdicts = f.stack.Finish()
		// Decisions are binary, so every node decided the same value
		// exactly when none or all of them decided partitionable.
		partitionable, lowest := 0, ^ids.NodeID(0)
		for id, v := range rep.Verdicts {
			if v.Partitionable {
				partitionable++
			}
			lowest = min(lowest, id)
		}
		rep.Agreement = partitionable == 0 || partitionable == len(rep.Verdicts)
		rep.Decision = rep.Verdicts[lowest].Key
		if cfg.Tracer != nil {
			cfg.Tracer.Emit(obs.Event{Type: obs.EvEpochVerdict, Epoch: rep.Epoch, Key: rep.Decision,
				Attrs: []obs.Attr{{K: "agreement", V: b2i(rep.Agreement)}, {K: "truth_partitionable", V: b2i(rep.TruthPartitionable)}}})
		}
		res.Epochs = append(res.Epochs, rep)
	}
	var startErr error
	for e := 0; e < epochs; e++ {
		if len(inFlight) == window {
			if retire(); runErr != nil {
				break
			}
		}
		f, err := start(e)
		if err != nil {
			startErr = err
			break
		}
		inFlight = append(inFlight, f)
	}
	for len(inFlight) > 0 {
		retire()
	}
	// Every epoch in flight was older than the one that failed to start.
	if runErr == nil {
		runErr = startErr
	}
	if runErr != nil {
		return nil, runErr
	}

	// Ground-truth flips and their detection latency: a flip at epoch e
	// is detected at the first following epoch whose correct nodes
	// unanimously report the new truth, unless the truth flips again (or
	// the run ends) first.
	for e := 1; e < len(res.Epochs); e++ {
		if res.Epochs[e].TruthPartitionable == res.Epochs[e-1].TruthPartitionable {
			continue
		}
		res.Flips = append(res.Flips, Flip{
			Epoch:           e,
			ToPartitionable: res.Epochs[e].TruthPartitionable,
			DetectedEpoch:   -1,
			Latency:         -1,
		})
	}
	for i := range res.Flips {
		f := &res.Flips[i]
		end := len(res.Epochs)
		if i+1 < len(res.Flips) {
			end = res.Flips[i+1].Epoch
		}
		for e := f.Epoch; e < end; e++ {
			if res.Epochs[e].unanimous(f.ToPartitionable) {
				f.DetectedEpoch = e
				f.Latency = e - f.Epoch
				break
			}
		}
	}
	return res, nil
}

// presentKappa returns the vertex connectivity of the subgraph induced by
// the present (non-absent) vertices, the dynamic ground truth for
// Corollary 1. With nobody absent this is κ(g); with ≤ 1 present vertex
// it is 0 (trivially partitionable under the κ ≤ t test's conventions).
func presentKappa(g *graph.Graph, absent ids.Set) int {
	if absent.Len() == 0 {
		return g.Connectivity()
	}
	compact := make([]ids.NodeID, 0, g.N()-absent.Len())
	index := make(map[ids.NodeID]ids.NodeID, g.N())
	for v := 0; v < g.N(); v++ {
		if !absent.Has(ids.NodeID(v)) {
			index[ids.NodeID(v)] = ids.NodeID(len(compact))
			compact = append(compact, ids.NodeID(v))
		}
	}
	if len(compact) <= 1 {
		return 0
	}
	sub := graph.New(len(compact))
	for _, v := range compact {
		for _, nb := range g.Neighbors(v) {
			if v < nb && !absent.Has(nb) {
				sub.AddEdge(index[v], index[nb])
			}
		}
	}
	return sub.Connectivity()
}

// b2i renders a bool as a trace attr value.
func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
