package nectar

import (
	"fmt"
	"strings"

	"github.com/nectar-repro/nectar/internal/adversary"
	"github.com/nectar-repro/nectar/internal/graph"
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
	// FullHorizon disables the engine's quiescence early exit, forcing
	// all rounds to execute. Results are identical either way; the knob
	// exists for equivalence testing and round-complexity ablations.
	FullHorizon bool
	// ParanoidVerify applies the literal Alg. 1 check order on every node
	// (signature verification before the duplicate discard) instead of the
	// default lazy header-first decode. Decisions are identical either
	// way; see Config.ParanoidVerify.
	ParanoidVerify bool
	// Workers caps the engine's intra-run parallelism (0 = GOMAXPROCS).
	// Results are identical for any worker count (DESIGN.md §6, §10);
	// bound it when sharing a machine with other runs.
	Workers int
	// Tracer, when non-nil, receives per-round engine trace events
	// (DESIGN.md §12). Tracing never changes results; nil is free.
	Tracer obs.Tracer

	// noVerifyCache runs without the run-wide signature-verification memo
	// (DESIGN.md §9): the uncached reference the equivalence tests compare
	// the default against. Settable from in-package tests only.
	noVerifyCache bool
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
	scheme, err := resolveScheme(cfg.SchemeName, n, cfg.Seed)
	if err != nil {
		return nil, err
	}
	byz, err := checkByzantine(n, cfg.T, cfg.Byzantine, cfg.Blocked)
	if err != nil {
		return nil, err
	}

	var opts []BuildOption
	var vcache *sig.VerifyCache
	if !cfg.noVerifyCache {
		vcache = sig.NewVerifyCache()
		defer vcache.Release() // after Stats below, and on every error path
		opts = append(opts, WithVerifyCache(vcache))
	}
	if cfg.ParanoidVerify {
		opts = append(opts, WithParanoidVerify())
	}
	nodes, err := BuildNodes(cfg.Graph, cfg.T, scheme, cfg.Rounds, opts...)
	if err != nil {
		return nil, err
	}
	// Deciding releases a node's scratch; this covers the nodes that never
	// decide (the inner nodes of Byzantine wrappers) and the error paths.
	defer func() {
		for _, nd := range nodes {
			nd.Release()
		}
	}()
	protos := make([]rounds.Protocol, n)
	for i, nd := range nodes {
		protos[i] = nd
	}
	r := cfg.Rounds
	if r == 0 {
		r = n - 1
	}
	coord := coordinatorFor(cfg.Byzantine)
	for _, b := range byz.Sorted() {
		p, err := wrapByzantine(cfg, scheme, nodes[b], b, byz, coord, r)
		if err != nil {
			return nil, err
		}
		protos[b] = p
	}
	metrics, err := rounds.Run(rounds.Config{
		Graph:       cfg.Graph,
		Rounds:      r,
		Seed:        cfg.Seed,
		FullHorizon: cfg.FullHorizon,
		Workers:     cfg.Workers,
		Tracer:      cfg.Tracer,
	}, protos)
	if err != nil {
		return nil, err
	}

	res := &SimulationResult{
		Outcomes:       make(map[NodeID]Outcome, n-byz.Len()),
		Agreement:      true,
		BytesSent:      metrics.BytesSent,
		BytesBroadcast: metrics.BytesBroadcast,
		Rounds:         r,
		ActiveRounds:   metrics.ActiveRounds,
	}
	dc := NewDecideCache()
	first := true
	for i, nd := range nodes {
		id := NodeID(i)
		if byz.Has(id) {
			continue
		}
		// Verdict provenance (DESIGN.md §13): under tracing each decision
		// emits a kappa_eval event; nodes decide in ascending ID order on
		// this one goroutine, so the events are deterministic.
		o := nd.DecideTraced(dc, cfg.Tracer, 0)
		res.Outcomes[id] = o
		res.LazyDiscards += int64(nd.Stats().LazyDiscards)
		if o.Confirmed {
			res.Confirmed = true
		}
		if first {
			res.Decision = o.Decision
			first = false
		} else if o.Decision != res.Decision {
			res.Agreement = false
		}
	}
	res.VerifyCacheHits, res.VerifyCacheMisses = vcache.Stats()
	res.DecideCacheHits = dc.Hits()
	return res, nil
}

// validateSchemeName checks a scheme name ("" = the ed25519 default)
// without constructing the scheme, naming the valid schemes on error —
// misconfigurations fail before any key generation.
func validateSchemeName(name string) error {
	if name == "" {
		return nil
	}
	for _, s := range sig.Names() {
		if name == s {
			return nil
		}
	}
	return fmt.Errorf("nectar: unknown scheme %q (valid: %s)",
		name, strings.Join(sig.Names(), ", "))
}

// resolveScheme validates a scheme name ("" = "ed25519") and constructs
// the scheme.
func resolveScheme(name string, n int, seed int64) (Scheme, error) {
	if err := validateSchemeName(name); err != nil {
		return nil, err
	}
	if name == "" {
		name = "ed25519"
	}
	return sig.ByName(name, n, seed), nil
}

// checkByzantine validates a Byzantine assignment for an n-node system
// with bound t: known behaviours, in-range IDs, count within t, and
// Blocked entries only for split-brain nodes (anything else is a
// misconfigured attack scenario that would otherwise silently no-op).
func checkByzantine(n, t int, byzantine map[NodeID]Behavior, blocked map[NodeID][]NodeID) (ids.Set, error) {
	byz := ids.NewSet()
	for b, beh := range byzantine {
		if int(b) >= n {
			return nil, fmt.Errorf("nectar: Byzantine node %v out of range", b)
		}
		if !beh.Valid() {
			return nil, fmt.Errorf("nectar: node %v has unknown behavior %q (valid: %v)",
				b, beh, KnownBehaviors())
		}
		byz.Add(b)
	}
	if byz.Len() > t {
		return nil, fmt.Errorf("nectar: %d Byzantine nodes exceed T=%d", byz.Len(), t)
	}
	for b, targets := range blocked {
		if byzantine[b] != BehaviorSplitBrain {
			return nil, fmt.Errorf("nectar: Blocked entry for node %v, which has behavior %q (want %q)",
				b, byzantine[b], BehaviorSplitBrain)
		}
		for _, to := range targets {
			if int(to) >= n {
				return nil, fmt.Errorf("nectar: Blocked target %v of node %v out of range", to, b)
			}
		}
	}
	return byz, nil
}

// coordinatorFor returns one fresh shared controller when any assigned
// behaviour is coordinated (adaptive/phased), nil otherwise. All
// coordinated nodes of a run join the same controller; other Byzantine
// behaviours are simply not joined.
func coordinatorFor(byzantine map[NodeID]Behavior) *adversary.Coordinator {
	for _, beh := range byzantine {
		if beh == BehaviorAdaptive || beh == BehaviorPhased {
			return adversary.NewCoordinator()
		}
	}
	return nil
}

// wrapByzantine builds the adversary wrapper for node b. coord is the
// shared controller for coordinated behaviours (non-nil iff the run has
// any); horizon is the run's round count, which phased schedules key on.
func wrapByzantine(cfg SimulationConfig, scheme Scheme, inner *Node, b NodeID, byz ids.Set, coord *adversary.Coordinator, horizon int) (rounds.Protocol, error) {
	nbrs := cfg.Graph.Neighbors(b)
	switch cfg.Byzantine[b] {
	case BehaviorCrash:
		return adversary.Silent{}, nil
	case BehaviorSplitBrain:
		blocked := ids.NewSet(cfg.Blocked[b]...)
		if blocked.Len() == 0 {
			return nil, fmt.Errorf("nectar: split-brain node %v has no Blocked set", b)
		}
		return adversary.SplitBrain(inner, blocked), nil
	case BehaviorFakeEdges:
		var partners []Signer
		for _, other := range byz.Sorted() {
			if other != b {
				partners = append(partners, scheme.SignerFor(other))
			}
		}
		return adversary.NewNectarFakeEdges(inner, scheme.SignerFor(b), partners,
			scheme.Verifier().SigSize(), nbrs), nil
	case BehaviorGarbage:
		return adversary.NewGarbage(nbrs, cfg.Seed^int64(b), 200), nil
	case BehaviorStale:
		return adversary.NewNectarStaleReplay(inner), nil
	case BehaviorEquivocate:
		return adversary.NectarEquivocate(inner), nil
	case BehaviorOmitOwn:
		hide := make(map[graph.Edge]bool)
		for _, other := range byz.Sorted() {
			if other != b && cfg.Graph.HasEdge(b, other) {
				hide[graph.NewEdge(b, other)] = true
			}
		}
		return adversary.NectarOmitOwn(inner, scheme.Verifier().SigSize(), hide), nil
	case BehaviorAdaptive:
		return coord.Join(inner, b, nbrs, adversary.AlwaysEquivocate()), nil
	case BehaviorPhased:
		return coord.Join(inner, b, nbrs, adversary.StaleThenEquivocate(adversary.PhasedSwitchRound(horizon))), nil
	}
	return nil, fmt.Errorf("nectar: unknown behavior %q for node %v", cfg.Byzantine[b], b)
}
