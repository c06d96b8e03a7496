package nectar

import (
	"fmt"
	"math/rand"

	"github.com/nectar-repro/nectar/internal/dynamic"
	"github.com/nectar-repro/nectar/internal/harness"
	inectar "github.com/nectar-repro/nectar/internal/nectar"
)

// Dynamic-network subsystem re-exports (DESIGN.md §7): time-varying
// topologies, churn/mobility schedule generators, and epoch-based
// re-detection with detection-latency metrics.

type (
	// EdgeSchedule is a time-varying topology: a base graph plus
	// round-ordered edge up/down and node leave/join events.
	EdgeSchedule = dynamic.EdgeSchedule
	// ScheduleEvent is one scheduled topology change.
	ScheduleEvent = dynamic.Event
	// ScheduleEventKind discriminates schedule events.
	ScheduleEventKind = dynamic.EventKind
	// MobilityConfig parameterizes DroneMobilitySchedule.
	MobilityConfig = dynamic.MobilityConfig
)

// Schedule event kinds.
const (
	EdgeUp    = dynamic.EdgeUp
	EdgeDown  = dynamic.EdgeDown
	NodeLeave = dynamic.NodeLeave
	NodeJoin  = dynamic.NodeJoin
)

// StaticSchedule returns the schedule that never changes base.
func StaticSchedule(base *Graph) *EdgeSchedule { return dynamic.Static(base) }

// FlappingSchedule generates independent per-round link flapping over
// base: up edges fail with downProb, down edges recover with upProb.
func FlappingSchedule(base *Graph, downProb, upProb float64, horizon int, rng *rand.Rand) (*EdgeSchedule, error) {
	return dynamic.Flapping(base, downProb, upProb, horizon, rng)
}

// PoissonChurnSchedule generates node churn: present nodes leave with
// probability leaveRate per round and stay away for geometrically
// distributed downtimes with the given mean (in rounds).
func PoissonChurnSchedule(base *Graph, leaveRate, meanDowntime float64, horizon int, rng *rand.Rand) (*EdgeSchedule, error) {
	return dynamic.PoissonChurn(base, leaveRate, meanDowntime, horizon, rng)
}

// PartitionHealSchedule cuts every edge between the ID-halves of base at
// cutRound and restores them at healRound (0 = never).
func PartitionHealSchedule(base *Graph, cutRound, healRound int) (*EdgeSchedule, error) {
	return dynamic.PartitionHeal(base, cutRound, healRound)
}

// DroneMobilitySchedule compiles a mobile two-squad drone fleet (§V-B
// scatters following a separation trajectory) into an EdgeSchedule by
// recomputing the geometric graph at every waypoint step.
func DroneMobilitySchedule(cfg MobilityConfig, rng *rand.Rand) (*EdgeSchedule, error) {
	return dynamic.DroneMobility(cfg, rng)
}

// LinearDrift returns the separation trajectory d0 + step·perStep,
// clamped at 0.
func LinearDrift(d0, perStep float64) func(step int) float64 {
	return dynamic.LinearDrift(d0, perStep)
}

// DynamicConfig drives one epoch-based re-detection execution: NECTAR is
// re-run from scratch in successive epochs over the evolving graph.
type DynamicConfig struct {
	// Schedule is the time-varying communication network. Required.
	Schedule *EdgeSchedule
	// T is the assumed Byzantine bound handed to every node.
	T int
	// Seed makes the run reproducible; epoch e derives its own seed, with
	// epoch 0 using Seed itself (so a static schedule's first epoch
	// reproduces Simulate bit-for-bit).
	Seed int64
	// SchemeName selects signatures ("" = "ed25519", as in Simulate).
	SchemeName string
	// Epochs is the number of detection epochs (0 = enough to cover the
	// schedule plus one fresh epoch on the final topology).
	Epochs int
	// Byzantine assigns attacks to Byzantine nodes for every epoch
	// (the same nodes stay compromised throughout the run). A Byzantine
	// node that is churned out behaves as crashed while absent.
	Byzantine map[NodeID]AttackKind
	// Blocked lists, per split-brain Byzantine node, the stonewalled
	// destinations (see SimulationConfig.Blocked).
	Blocked map[NodeID][]NodeID
	// Workers is the run's parallelism budget (0 = GOMAXPROCS): epochs
	// are independent detection instances, so up to Workers of them run
	// their engines side by side, and budget beyond the epoch count goes
	// to each engine's workers. A Tracer keeps one epoch in flight and
	// gives its engine the whole budget. Results are identical for any
	// budget (DESIGN.md §6, §7, §10).
	Workers int
	// Tracer, when non-nil, receives epoch and per-round engine trace
	// events (DESIGN.md §12). Tracing never changes results; nil is free.
	Tracer Tracer
}

// EpochResult reports one epoch of a dynamic run.
type EpochResult struct {
	// Epoch is the 0-based index; StartRound its first global round.
	Epoch      int
	StartRound int
	// Kappa is the ground-truth vertex connectivity of the present
	// nodes' subgraph at the epoch's first round, and TruthPartitionable
	// is Kappa <= T (Corollary 1) — what a correct detector should say.
	Kappa              int
	TruthPartitionable bool
	// Absent lists nodes churned out at the epoch's first round (they run
	// no protocol and have no Outcome).
	Absent []NodeID
	// Outcomes holds each correct, present node's decision.
	Outcomes map[NodeID]Outcome
	// Agreement reports whether all those decisions are identical;
	// Decision is the lowest-ID correct node's decision.
	Agreement bool
	Decision  Decision
	// Confirmed reports whether any correct node confirmed an actual
	// partition this epoch.
	Confirmed bool
	// BytesSent meters per-node unicast traffic for the epoch; Rounds and
	// ActiveRounds mirror SimulationResult's horizon accounting.
	BytesSent    []int64
	Rounds       int
	ActiveRounds int
}

// DetectionFlip is one ground-truth partitionability transition and the
// latency until all correct nodes followed it: Epoch is the first epoch
// with the new truth ToPartitionable, DetectedEpoch the first epoch at
// which every correct node's verdict matches it (-1 if the run or the
// next flip arrives first), and Latency is DetectedEpoch - Epoch in
// epochs (-1 if undetected).
type DetectionFlip = dynamic.Flip

// DynamicResult reports a full epoch-based re-detection run.
type DynamicResult struct {
	// EpochRounds is the per-epoch horizon, n-1.
	EpochRounds int
	// Epochs holds the per-epoch reports in order.
	Epochs []EpochResult
	// Flips lists every ground-truth transition with detection latency
	// (the initial truth is not a flip).
	Flips []DetectionFlip
}

// DetectionLatency summarizes Flips: mean latency in epochs over the
// detected flips, plus detected/undetected counts.
func (r *DynamicResult) DetectionLatency() (mean float64, detected, undetected int) {
	return (&dynamic.Result{Flips: r.Flips}).DetectionLatency()
}

// Bucket ladders of the detection-quality histograms: latency in whole
// epochs (an undetected flip lands in +Inf via a sentinel), and κ-margin
// around the κ = t decision boundary (a margin ≤ 0 means the ground truth
// is partitionable).
var (
	latencyBuckets = []float64{0, 1, 2, 3, 5, 8, 13, 21}
	marginBuckets  = []float64{-4, -3, -2, -1, 0, 1, 2, 3, 4, 6}
)

// PublishMetrics renders the run's detection-quality metrics into reg
// under the nectar_dynamic_* names (DESIGN.md §13): the per-epoch κ-margin
// κ − t and per-flip detection-latency histograms plus epoch and flip
// counters; t is the run's DynamicConfig.T. Registration is idempotent,
// so results published into one registry accumulate.
func (r *DynamicResult) PublishMetrics(reg *MetricsRegistry, t int) {
	reg.Counter("nectar_dynamic_epochs_total", "Detection epochs scored.").Add(int64(len(r.Epochs)))
	margin := reg.Histogram("nectar_dynamic_kappa_margin",
		"Per-epoch ground-truth connectivity margin κ − t (≤ 0 means truly partitionable).", marginBuckets)
	var agreed int64
	for _, ep := range r.Epochs {
		margin.Observe(float64(ep.Kappa - t))
		if ep.Agreement {
			agreed++
		}
	}
	reg.Counter("nectar_dynamic_epochs_agreed_total", "Epochs in which all correct nodes agreed.").Add(agreed)
	latency := reg.Histogram("nectar_dynamic_detection_latency_epochs",
		"Epochs from a ground-truth flip to unanimous detection (undetected flips land in +Inf).", latencyBuckets)
	var detected, undetected int64
	for _, f := range r.Flips {
		if f.Latency >= 0 {
			detected++
			latency.Observe(float64(f.Latency))
		} else {
			undetected++
			latency.Observe(latencyBuckets[len(latencyBuckets)-1] + 1)
		}
	}
	reg.Counter("nectar_dynamic_flips_detected_total", "Ground-truth flips the detector followed.").Add(detected)
	reg.Counter("nectar_dynamic_flips_undetected_total", "Ground-truth flips never unanimously detected.").Add(undetected)
}

// SimulateDynamic runs NECTAR in successive epochs over a time-varying
// topology: each epoch rebuilds fresh nodes (and proofs) on the graph in
// effect at the epoch's first round, drives the rounds engine — which
// swaps adjacency at round boundaries for mid-epoch events and re-arms
// its quiescence early exit — and scores the epoch against the
// ground-truth κ vs T. A static (empty) schedule makes every epoch an
// independent replay of Simulate; see DESIGN.md §7.
func SimulateDynamic(cfg DynamicConfig) (*DynamicResult, error) {
	if cfg.Schedule == nil {
		return nil, fmt.Errorf("nectar: DynamicConfig.Schedule is required")
	}
	if err := cfg.Schedule.Validate(); err != nil {
		return nil, err
	}
	n := cfg.Schedule.Base.N()
	schemeName, err := resolveSchemeName(cfg.SchemeName)
	if err != nil {
		return nil, err
	}
	if err := inectar.CheckRounds(n, 0); err != nil {
		return nil, err
	}
	blocked, err := checkByzantine(n, cfg.T, cfg.Byzantine, cfg.Blocked)
	if err != nil {
		return nil, err
	}
	// Each epoch's outcomes, in epoch order (dynamic.Run finishes epochs in
	// order, on this goroutine).
	var decided [][]Outcome
	build, release := harness.NectarEpochs(harness.NectarConfig{
		T: cfg.T, Byzantine: cfg.Byzantine, Blocked: blocked,
	}, schemeName, cfg.Tracer, func(outs []Outcome) { decided = append(decided, outs) })
	defer release()

	inner, err := dynamic.Run(dynamic.Config{
		Schedule: cfg.Schedule,
		T:        cfg.T,
		Seed:     cfg.Seed,
		Epochs:   cfg.Epochs,
		Workers:  cfg.Workers,
		Tracer:   cfg.Tracer,
	}, build)
	if err != nil {
		return nil, err
	}

	res := &DynamicResult{EpochRounds: inner.EpochRounds, Flips: inner.Flips}
	for e, rep := range inner.Epochs {
		er := EpochResult{
			Epoch:              rep.Epoch,
			StartRound:         rep.StartRound,
			Kappa:              rep.Kappa,
			TruthPartitionable: rep.TruthPartitionable,
			Absent:             rep.Absent,
			BytesSent:          rep.Metrics.BytesSent,
			Rounds:             rep.Metrics.Rounds,
			ActiveRounds:       rep.Metrics.ActiveRounds,
		}
		er.Outcomes, er.Agreement, er.Decision, er.Confirmed = tally(decided[e])
		res.Epochs = append(res.Epochs, er)
	}
	return res, nil
}
