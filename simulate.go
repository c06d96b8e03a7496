package nectar

import (
	"fmt"

	"github.com/nectar-repro/nectar/internal/harness"
	"github.com/nectar-repro/nectar/internal/ids"
	inectar "github.com/nectar-repro/nectar/internal/nectar"
	"github.com/nectar-repro/nectar/internal/obs"
	"github.com/nectar-repro/nectar/internal/rounds"
	"github.com/nectar-repro/nectar/internal/sig"
)

// Behavior selects how a Byzantine node deviates in Simulate.
type Behavior string

// Supported Byzantine behaviours (§IV "Impact of Byzantine deviations",
// §V-D attacks, plus robustness probes).
const (
	// BehaviorCrash: stays silent.
	BehaviorCrash Behavior = "crash"
	// BehaviorSplitBrain: correct towards one side, crashed towards the
	// nodes listed in SimulationConfig.Blocked.
	BehaviorSplitBrain Behavior = "splitbrain"
	// BehaviorFakeEdges: announces fictitious edges to all other
	// Byzantine nodes (colluding pairs forge joint proofs).
	BehaviorFakeEdges Behavior = "fakeedges"
	// BehaviorGarbage: floods neighbors with random bytes.
	BehaviorGarbage Behavior = "garbage"
	// BehaviorStale: delays every message one round (stale chains).
	BehaviorStale Behavior = "stale"
	// BehaviorEquivocate: announces its neighborhood only to even-ID
	// neighbors.
	BehaviorEquivocate Behavior = "equivocate"
	// BehaviorOmitOwn: hides its edges to other Byzantine nodes.
	BehaviorOmitOwn Behavior = "omitown"
	// BehaviorAdaptive: coordinated adaptive equivocation — all Byzantine
	// nodes share observations and stonewall, per round, the correct
	// neighbors they heard the least from (DESIGN.md §8).
	BehaviorAdaptive Behavior = "adaptive"
	// BehaviorPhased: composed schedule — stale replay for the first
	// third of the horizon, then coordinated adaptive equivocation.
	BehaviorPhased Behavior = "phased"
)

// KnownBehaviors lists every supported Byzantine behaviour, for flag
// validation and error messages.
func KnownBehaviors() []Behavior {
	return []Behavior{
		BehaviorCrash, BehaviorSplitBrain, BehaviorFakeEdges, BehaviorGarbage,
		BehaviorStale, BehaviorEquivocate, BehaviorOmitOwn,
		BehaviorAdaptive, BehaviorPhased,
	}
}

// Valid reports whether b names a supported behaviour.
func (b Behavior) Valid() bool {
	for _, k := range KnownBehaviors() {
		if b == k {
			return true
		}
	}
	return false
}

// attack maps b to the harness attack of the same name: every behaviour is
// one of the NECTAR attacks other than none (TestBehaviorsAreTheNectarAttacks).
func (b Behavior) attack() harness.AttackKind { return harness.AttackKind(b) }

// SimulationConfig drives one in-memory NECTAR execution.
type SimulationConfig struct {
	// Graph is the communication network. Required.
	Graph *Graph
	// T is the assumed Byzantine bound handed to every node.
	T int
	// Seed makes the run reproducible.
	Seed int64
	// SchemeName selects signatures: "" = "ed25519" (Simulate favors
	// fidelity; use "hmac" for speed on large graphs).
	SchemeName string
	// Rounds overrides the n-1 round horizon (0 = default).
	Rounds int
	// Byzantine assigns behaviours to Byzantine nodes (may be empty).
	Byzantine map[NodeID]Behavior
	// Blocked lists, per split-brain Byzantine node, the destinations it
	// stonewalls. Every key must be a node assigned BehaviorSplitBrain —
	// entries for any other node are a configuration error.
	Blocked map[NodeID][]NodeID
	// Workers caps the engine's intra-run parallelism (0 = GOMAXPROCS).
	// Results are identical for any worker count (DESIGN.md §6, §10);
	// bound it when sharing a machine with other runs.
	Workers int
	// Tracer, when non-nil, receives per-round engine trace events
	// (DESIGN.md §12). Tracing never changes results; nil is free.
	Tracer obs.Tracer

	// fullHorizon runs every round of the horizon instead of exiting once
	// the nodes go quiescent (DESIGN.md §6), noVerifyCache runs without the
	// run-wide message-check memo (§9), and paranoidVerify applies the
	// literal Alg. 1 check order (verification before the duplicate
	// discard, §2): the references the equivalence tests compare the
	// default against. Settable from in-package tests only.
	fullHorizon, noVerifyCache, paranoidVerify bool
}

// SimulationResult reports the decisions and traffic of one execution.
type SimulationResult struct {
	// Outcomes holds each correct node's decision (Byzantine nodes have
	// no entry).
	Outcomes map[NodeID]Outcome
	// Agreement reports whether all correct nodes decided identically.
	Agreement bool
	// Decision is the (agreed) decision of correct nodes; if Agreement is
	// false it is the decision of the lowest-ID correct node.
	Decision Decision
	// Confirmed reports whether any correct node confirmed an actual
	// partition (unreachable nodes).
	Confirmed bool
	// BytesSent / BytesBroadcast meter every node's traffic (unicast and
	// multicast-accounted, see DESIGN.md §5).
	BytesSent      []int64
	BytesBroadcast []int64
	// Rounds is the configured round horizon (n-1 unless overridden).
	Rounds int
	// ActiveRounds is the number of rounds the engine actually executed:
	// less than Rounds when every node went quiescent early (§IV-E), in
	// which case the remaining rounds were provably silent and skipped.
	ActiveRounds int
	// FastPath groups the run's fast-path counters (verify-cache
	// hits/misses, lazy header-only discards, decide-cache hits — see
	// DESIGN.md §9, §12). Embedded, so the fields promote: callers keep
	// reading res.VerifyCacheHits etc., and JSON output stays flat.
	obs.FastPath
}

// Simulate runs NECTAR on cfg.Graph with goroutine-per-core lockstep
// rounds and returns all correct nodes' outcomes.
func Simulate(cfg SimulationConfig) (*SimulationResult, error) {
	if cfg.Graph == nil {
		return nil, fmt.Errorf("nectar: SimulationConfig.Graph is required")
	}
	n := cfg.Graph.N()
	if n == 0 {
		return nil, fmt.Errorf("nectar: empty graph")
	}
	if err := inectar.CheckRounds(n, cfg.Rounds); err != nil {
		return nil, err
	}
	schemeName, err := resolveSchemeName(cfg.SchemeName)
	if err != nil {
		return nil, err
	}
	attacks, blocked, err := checkByzantine(n, cfg.T, cfg.Byzantine, cfg.Blocked)
	if err != nil {
		return nil, err
	}
	run, err := harness.BuildNectar(harness.NectarConfig{
		Graph: cfg.Graph, T: cfg.T, Scheme: sig.ByName(schemeName, n, cfg.Seed),
		Rounds: cfg.Rounds, Seed: cfg.Seed, Byzantine: attacks, Blocked: blocked,
		NoVerifyCache: cfg.noVerifyCache, ParanoidVerify: cfg.paranoidVerify,
	})
	if err != nil {
		return nil, err
	}
	defer run.Release() // the engine's error path; a no-op after Finish
	r := cfg.Rounds
	if r == 0 {
		r = n - 1
	}
	metrics, err := rounds.Run(rounds.Config{
		Graph:       cfg.Graph,
		Rounds:      r,
		Seed:        cfg.Seed,
		FullHorizon: cfg.fullHorizon,
		Workers:     cfg.Workers,
		Tracer:      cfg.Tracer,
	}, run.Protos)
	if err != nil {
		return nil, err
	}
	// Verdict provenance (DESIGN.md §13): under tracing each decision emits
	// a kappa_eval event, in ID order on this goroutine.
	outs, fastPath := run.Finish(NewDecideCache(), cfg.Tracer, 0)
	res := &SimulationResult{
		BytesSent:      metrics.BytesSent,
		BytesBroadcast: metrics.BytesBroadcast,
		Rounds:         r,
		ActiveRounds:   metrics.ActiveRounds,
		FastPath:       fastPath,
	}
	res.Outcomes, res.Agreement, res.Decision, res.Confirmed = tally(outs)
	return res, nil
}

// tally folds a run's outcomes, indexed by node with Undecided for the nodes
// that did not decide, into the per-node map and agreement summary of the
// result types: Decision is the lowest-ID node's.
func tally(outs []Outcome) (outcomes map[NodeID]Outcome, agreement bool, decision Decision, confirmed bool) {
	outcomes = make(map[NodeID]Outcome, len(outs))
	agreement = true
	for i, o := range outs {
		if o.Decision == Undecided {
			continue
		}
		if len(outcomes) == 0 {
			decision = o.Decision
		} else if o.Decision != decision {
			agreement = false
		}
		outcomes[NodeID(i)] = o
		confirmed = confirmed || o.Confirmed
	}
	return outcomes, agreement, decision, confirmed
}

// resolveSchemeName checks a scheme name without constructing the scheme,
// naming the valid schemes on error — misconfigurations fail before any key
// generation — and resolves "" to the ed25519 default.
func resolveSchemeName(name string) (string, error) {
	if name == "" {
		return "ed25519", nil
	}
	if err := sig.CheckName(name); err != nil {
		return "", fmt.Errorf("nectar: %w", err)
	}
	return name, nil
}

// checkByzantine validates a Byzantine assignment for an n-node system
// with bound t — t ≥ 0, known behaviours, in-range IDs, count within t, and
// Blocked entries only for split-brain nodes (anything else is a
// misconfigured attack scenario that would otherwise silently no-op) — and
// converts it for harness.BuildNectar. A split-brain node with no Blocked
// targets gets no set, which BuildNectar rejects once it wraps the node.
func checkByzantine(n, t int, byzantine map[NodeID]Behavior, blocked map[NodeID][]NodeID) (map[NodeID]harness.AttackKind, map[NodeID]ids.Set, error) {
	if t < 0 {
		return nil, nil, fmt.Errorf("nectar: negative T %d", t)
	}
	attacks := make(map[NodeID]harness.AttackKind, len(byzantine))
	for b, beh := range byzantine {
		if int(b) >= n {
			return nil, nil, fmt.Errorf("nectar: Byzantine node %v out of range", b)
		}
		if !beh.Valid() {
			return nil, nil, fmt.Errorf("nectar: node %v has unknown behavior %q (valid: %v)",
				b, beh, KnownBehaviors())
		}
		attacks[b] = beh.attack()
	}
	if len(attacks) > t {
		return nil, nil, fmt.Errorf("nectar: %d Byzantine nodes exceed T=%d", len(attacks), t)
	}
	sets := make(map[NodeID]ids.Set, len(blocked))
	for b, targets := range blocked {
		if byzantine[b] != BehaviorSplitBrain {
			return nil, nil, fmt.Errorf("nectar: Blocked entry for node %v, which has behavior %q (want %q)",
				b, byzantine[b], BehaviorSplitBrain)
		}
		for _, to := range targets {
			if int(to) >= n {
				return nil, nil, fmt.Errorf("nectar: Blocked target %v of node %v out of range", to, b)
			}
		}
		if len(targets) > 0 {
			sets[b] = ids.NewSet(targets...)
		}
	}
	return attacks, sets, nil
}
