package nectar

import (
	"fmt"
	"slices"

	"github.com/nectar-repro/nectar/internal/harness"
	"github.com/nectar-repro/nectar/internal/ids"
	inectar "github.com/nectar-repro/nectar/internal/nectar"
	"github.com/nectar-repro/nectar/internal/obs"
	"github.com/nectar-repro/nectar/internal/rounds"
	"github.com/nectar-repro/nectar/internal/sig"
)

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
	// Byzantine assigns attacks to Byzantine nodes (may be empty): any
	// NECTAR attack but AttackNone.
	Byzantine map[NodeID]AttackKind
	// Blocked lists, per split-brain Byzantine node, the destinations it
	// stonewalls. Every key must be a node assigned AttackSplitBrain —
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
	// run-wide boards and proof ledger (§9), and paranoidVerify applies the
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
	// BytesSent / BytesBroadcast meter every node's traffic: once per
	// destination, and once per multicast — one rounds.Send (DESIGN.md
	// §5).
	BytesSent      []int64
	BytesBroadcast []int64
	// Rounds is the round horizon, n-1 (Alg. 1).
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
	if err := inectar.CheckRounds(n, 0); err != nil {
		return nil, err
	}
	schemeName, err := resolveSchemeName(cfg.SchemeName)
	if err != nil {
		return nil, err
	}
	blocked, err := checkByzantine(n, cfg.T, cfg.Byzantine, cfg.Blocked)
	if err != nil {
		return nil, err
	}
	run, err := harness.BuildNectar(harness.NectarConfig{
		Graph: cfg.Graph, T: cfg.T, Scheme: sig.ByName(schemeName, n, cfg.Seed),
		Seed: cfg.Seed, Byzantine: cfg.Byzantine, Blocked: blocked,
		NoVerifyCache: cfg.noVerifyCache, ParanoidVerify: cfg.paranoidVerify,
	})
	if err != nil {
		return nil, err
	}
	defer run.Release() // the engine's error path; a no-op after Finish
	metrics, err := rounds.Run(rounds.Config{
		Graph:       cfg.Graph,
		Rounds:      n - 1,
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
		Rounds:         n - 1,
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

// byzantineAttacks lists the attacks Simulate accepts: NECTAR's, less
// AttackNone (a node that follows the protocol is not Byzantine).
func byzantineAttacks() []AttackKind {
	return slices.DeleteFunc(SupportedAttacks(ProtoNectar), func(a AttackKind) bool { return a == AttackNone })
}

// checkByzantine validates a Byzantine assignment for an n-node system with
// bound t — t ≥ 0, attacks from byzantineAttacks, in-range IDs, count within
// t, and in-range Blocked targets for split-brain nodes only, each with a
// target other than itself (anything else would silently no-op) — and
// converts the Blocked lists to sets.
func checkByzantine(n, t int, byzantine map[NodeID]AttackKind, blocked map[NodeID][]NodeID) (map[NodeID]ids.Set, error) {
	if t < 0 {
		return nil, fmt.Errorf("nectar: negative T %d", t)
	}
	for b, a := range byzantine {
		if int(b) >= n {
			return nil, fmt.Errorf("nectar: Byzantine node %v out of range", b)
		}
		if valid := byzantineAttacks(); !slices.Contains(valid, a) {
			return nil, fmt.Errorf("nectar: node %v has unknown attack %q (valid: %v)", b, a, valid)
		}
		if a == AttackSplitBrain && !slices.ContainsFunc(blocked[b], func(to NodeID) bool { return to != b }) {
			return nil, fmt.Errorf("nectar: split-brain node %v has no Blocked target but itself", b)
		}
	}
	if len(byzantine) > t {
		return nil, fmt.Errorf("nectar: %d Byzantine nodes exceed T=%d", len(byzantine), t)
	}
	sets := make(map[NodeID]ids.Set, len(blocked))
	for b, targets := range blocked {
		if byzantine[b] != AttackSplitBrain {
			return nil, fmt.Errorf("nectar: Blocked entry for node %v, which has attack %q (want %q)",
				b, byzantine[b], AttackSplitBrain)
		}
		for _, to := range targets {
			if int(to) >= n {
				return nil, fmt.Errorf("nectar: Blocked target %v of node %v out of range", to, b)
			}
		}
		sets[b] = ids.NewSet(targets...)
	}
	return sets, nil
}
