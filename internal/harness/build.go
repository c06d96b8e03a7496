package harness

import (
	"fmt"
	"sort"

	"github.com/nectar-repro/nectar/internal/adversary"
	"github.com/nectar-repro/nectar/internal/graph"
	"github.com/nectar-repro/nectar/internal/ids"
	"github.com/nectar-repro/nectar/internal/mtg"
	"github.com/nectar-repro/nectar/internal/nectar"
	"github.com/nectar-repro/nectar/internal/obs"
	"github.com/nectar-repro/nectar/internal/rounds"
	"github.com/nectar-repro/nectar/internal/sig"
)

// ProtocolKind selects the protocol under test.
type ProtocolKind string

// The three evaluated protocols (§V).
const (
	ProtoNectar ProtocolKind = "nectar"
	ProtoMtG    ProtocolKind = "mtg"
	ProtoMtGv2  ProtocolKind = "mtgv2"
)

// AttackKind selects the behaviour of Byzantine nodes.
type AttackKind string

// Attack catalogue (§V-D plus robustness probes).
const (
	// AttackNone: Byzantine slots behave correctly (t is only assumed).
	AttackNone AttackKind = "none"
	// AttackCrash: Byzantine nodes stay silent.
	AttackCrash AttackKind = "crash"
	// AttackSplitBrain: correct towards one side, crashed towards the
	// Blocked side (the bridge attack).
	AttackSplitBrain AttackKind = "splitbrain"
	// AttackPoison: MtG-only all-ones Bloom filters.
	AttackPoison AttackKind = "poison"
	// AttackFakeEdges: NECTAR-only fictitious Byzantine-pair edges.
	AttackFakeEdges AttackKind = "fakeedges"
	// AttackGarbage: random byte flooding.
	AttackGarbage AttackKind = "garbage"
	// AttackStale: NECTAR-only one-round message delay (stale chains).
	AttackStale AttackKind = "stale"
	// AttackEquivocate: NECTAR-only selective neighborhood announcement.
	AttackEquivocate AttackKind = "equivocate"
	// AttackOmitOwn: NECTAR-only concealment of Byzantine-Byzantine edges.
	AttackOmitOwn AttackKind = "omitown"
	// AttackAdaptive: NECTAR-only coordinated adaptive equivocation — the
	// Byzantine coalition shares observations and stonewalls, per round,
	// the correct neighbors it heard the least from (DESIGN.md §8).
	AttackAdaptive AttackKind = "adaptive"
	// AttackPhased: NECTAR-only composed schedule — stale replay for the
	// first third of the horizon, then coordinated equivocation.
	AttackPhased AttackKind = "phased"
)

// supportedAttacks lists which attacks are defined for each protocol
// (validated up front by Run, enforced again by the build switches).
var supportedAttacks = map[ProtocolKind]map[AttackKind]bool{
	ProtoNectar: {
		AttackNone: true, AttackCrash: true, AttackSplitBrain: true,
		AttackFakeEdges: true, AttackGarbage: true, AttackStale: true,
		AttackEquivocate: true, AttackOmitOwn: true,
		AttackAdaptive: true, AttackPhased: true,
	},
	ProtoMtG: {
		AttackNone: true, AttackCrash: true, AttackSplitBrain: true,
		AttackPoison: true, AttackGarbage: true,
	},
	ProtoMtGv2: {
		AttackNone: true, AttackCrash: true, AttackSplitBrain: true,
		AttackGarbage: true,
	},
}

// attackSupported reports whether the protocol defines the attack. The
// empty attack means AttackNone.
func attackSupported(p ProtocolKind, a AttackKind) bool {
	if a == "" {
		a = AttackNone
	}
	return supportedAttacks[p][a]
}

// Protocols lists the protocols under test.
func Protocols() []ProtocolKind {
	return []ProtocolKind{ProtoNectar, ProtoMtG, ProtoMtGv2}
}

// SupportedAttacks lists the attacks defined for protocol p, sorted, for
// CLI listings and exhaustive tests.
func SupportedAttacks(p ProtocolKind) []AttackKind {
	out := make([]AttackKind, 0, len(supportedAttacks[p]))
	for a := range supportedAttacks[p] {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// nodeDecision is one correct node's scored decision.
type nodeDecision struct {
	// detected reports whether the node flagged a (potential) partition.
	detected bool
	// key identifies the full decision for the Agreement metric.
	key string
	// confirmed is NECTAR's validity output (false for baselines).
	confirmed bool
}

// buildTrial wires one trial: a protocol stack per vertex (correct nodes
// plus wrapped Byzantine behaviours) and a finish function reading every
// node's decision after the run (entries for Byzantine nodes are zero).
func buildTrial(spec *Spec, sc *Scenario, scheme sig.Scheme, trialSeed int64) ([]rounds.Protocol, func() ([]nodeDecision, obs.FastPath), error) {
	switch spec.Protocol {
	case ProtoNectar:
		return buildNectar(spec, sc, scheme, trialSeed)
	case ProtoMtG:
		return buildMtG(spec, sc, scheme, trialSeed)
	case ProtoMtGv2:
		return buildMtGv2(spec, sc, scheme, trialSeed)
	}
	return nil, nil, fmt.Errorf("harness: unknown protocol %q", spec.Protocol)
}

func buildNectar(spec *Spec, sc *Scenario, scheme sig.Scheme, trialSeed int64) ([]rounds.Protocol, func() ([]nodeDecision, obs.FastPath), error) {
	protos, nodes, vcache, err := nectarStack(spec, sc, scheme, trialSeed)
	if err != nil {
		return nil, nil, err
	}
	finish := func() ([]nodeDecision, obs.FastPath) {
		// Near-identical views across nodes (Lemma 2) share one
		// connectivity computation via the per-trial decision memo.
		dc := nectar.NewDecideCache()
		out := make([]nodeDecision, sc.Graph.N())
		var pc obs.FastPath
		for i, nd := range nodes {
			if sc.Byz.Has(ids.NodeID(i)) {
				nd.Release() // never decides
				continue
			}
			o := nd.DecideShared(dc)
			out[i] = nodeDecision{
				detected:  o.Decision == nectar.Partitionable,
				key:       o.Decision.String(),
				confirmed: o.Confirmed,
			}
			pc.LazyDiscards += int64(nd.Stats().LazyDiscards)
		}
		pc.VerifyCacheHits, pc.VerifyCacheMisses = vcache.Stats()
		vcache.Release()
		pc.DecideCacheHits = dc.Hits()
		return out, pc
	}
	return protos, finish, nil
}

// nectarStack builds the per-vertex protocol stack (correct NECTAR nodes
// plus wrapped Byzantine behaviours) and returns the underlying nodes for
// white-box inspection, plus the per-trial verification memo (nil for the
// tests' uncached reference runs).
func nectarStack(spec *Spec, sc *Scenario, scheme sig.Scheme, trialSeed int64) ([]rounds.Protocol, []*nectar.Node, *sig.VerifyCache, error) {
	g := sc.Graph
	var opts []nectar.BuildOption
	var vcache *sig.VerifyCache
	if !spec.noVerifyCache {
		vcache = sig.NewVerifyCache()
		opts = append(opts, nectar.WithVerifyCache(vcache))
	}
	nodes, err := nectar.BuildNodes(g, spec.T, scheme, spec.Rounds, opts...)
	if err != nil {
		return nil, nil, nil, err
	}
	protos := make([]rounds.Protocol, g.N())
	for i, nd := range nodes {
		protos[i] = nd
	}
	sigSize := scheme.Verifier().SigSize()
	horizon := spec.Rounds
	if horizon == 0 {
		horizon = g.N() - 1
	}
	// Coordinated attacks share one controller across the whole coalition.
	var coord *adversary.Coordinator
	if spec.Attack == AttackAdaptive || spec.Attack == AttackPhased {
		coord = adversary.NewCoordinator()
	}
	for _, b := range sc.Byz.Sorted() {
		inner := nodes[b]
		nbrs := g.Neighbors(b)
		switch spec.Attack {
		case AttackNone:
			// keep the correct behaviour
		case AttackCrash:
			protos[b] = adversary.Silent{}
		case AttackSplitBrain:
			protos[b] = adversary.SplitBrain(inner, sc.Blocked[b])
		case AttackFakeEdges:
			var partners []sig.Signer
			for _, other := range sc.Byz.Sorted() {
				if other != b {
					partners = append(partners, scheme.SignerFor(other))
				}
			}
			protos[b] = adversary.NewNectarFakeEdges(inner, scheme.SignerFor(b), partners, sigSize, nbrs)
		case AttackGarbage:
			protos[b] = adversary.NewGarbage(nbrs, trialSeed^int64(b), 200)
		case AttackStale:
			protos[b] = adversary.NewNectarStaleReplay(inner)
		case AttackEquivocate:
			protos[b] = adversary.NectarEquivocate(inner)
		case AttackOmitOwn:
			hide := make(map[graph.Edge]bool)
			for other := range sc.Byz {
				if other != b && g.HasEdge(b, other) {
					hide[graph.NewEdge(b, other)] = true
				}
			}
			protos[b] = adversary.NectarOmitOwn(inner, sigSize, hide)
		case AttackAdaptive:
			protos[b] = coord.Join(inner, b, nbrs, adversary.AlwaysEquivocate())
		case AttackPhased:
			protos[b] = coord.Join(inner, b, nbrs, adversary.StaleThenEquivocate(adversary.PhasedSwitchRound(horizon)))
		default:
			return nil, nil, nil, fmt.Errorf("harness: attack %q not defined for NECTAR", spec.Attack)
		}
	}
	return protos, nodes, vcache, nil
}

func buildMtG(spec *Spec, sc *Scenario, scheme sig.Scheme, trialSeed int64) ([]rounds.Protocol, func() ([]nodeDecision, obs.FastPath), error) {
	g := sc.Graph
	protos := make([]rounds.Protocol, g.N())
	nodes := make([]*mtg.Node, g.N())
	for i := range protos {
		me := ids.NodeID(i)
		nd, err := mtg.NewNode(mtg.Config{
			N: g.N(), Me: me,
			Neighbors: append([]ids.NodeID(nil), g.Neighbors(me)...),
			Fanout:    spec.Fanout,
			Seed:      trialSeed,
		})
		if err != nil {
			return nil, nil, err
		}
		nodes[i] = nd
		protos[i] = nd
	}
	for b := range sc.Byz {
		nbrs := g.Neighbors(b)
		switch spec.Attack {
		case AttackNone:
		case AttackCrash:
			protos[b] = adversary.Silent{}
		case AttackSplitBrain:
			protos[b] = adversary.SplitBrain(nodes[b], sc.Blocked[b])
		case AttackPoison:
			protos[b] = adversary.NewBloomPoison(nbrs, mtg.DefaultFilterBits, mtg.DefaultFilterHashes)
		case AttackGarbage:
			protos[b] = adversary.NewGarbage(nbrs, trialSeed^int64(b), mtg.DefaultFilterBits/8)
		default:
			return nil, nil, fmt.Errorf("harness: attack %q not defined for MtG", spec.Attack)
		}
	}
	finish := func() ([]nodeDecision, obs.FastPath) {
		out := make([]nodeDecision, g.N())
		for i, nd := range nodes {
			if sc.Byz.Has(ids.NodeID(i)) {
				continue
			}
			o := nd.Decide()
			out[i] = nodeDecision{detected: o.Partitioned, key: fmt.Sprintf("partitioned=%v", o.Partitioned)}
		}
		return out, obs.FastPath{}
	}
	return protos, finish, nil
}

func buildMtGv2(spec *Spec, sc *Scenario, scheme sig.Scheme, trialSeed int64) ([]rounds.Protocol, func() ([]nodeDecision, obs.FastPath), error) {
	g := sc.Graph
	protos := make([]rounds.Protocol, g.N())
	nodes := make([]*mtg.NodeV2, g.N())
	for i := range protos {
		me := ids.NodeID(i)
		nd, err := mtg.NewNodeV2(mtg.ConfigV2{
			N: g.N(), Me: me,
			Neighbors: append([]ids.NodeID(nil), g.Neighbors(me)...),
			Signer:    scheme.SignerFor(me),
			Verifier:  scheme.Verifier(),
			Fanout:    spec.Fanout,
			Seed:      trialSeed,
		})
		if err != nil {
			return nil, nil, err
		}
		nodes[i] = nd
		protos[i] = nd
	}
	for b := range sc.Byz {
		switch spec.Attack {
		case AttackNone:
		case AttackCrash:
			protos[b] = adversary.Silent{}
		case AttackSplitBrain:
			protos[b] = adversary.SplitBrain(nodes[b], sc.Blocked[b])
		case AttackGarbage:
			protos[b] = adversary.NewGarbage(g.Neighbors(b), trialSeed^int64(b), 128)
		default:
			return nil, nil, fmt.Errorf("harness: attack %q not defined for MtGv2", spec.Attack)
		}
	}
	finish := func() ([]nodeDecision, obs.FastPath) {
		out := make([]nodeDecision, g.N())
		for i, nd := range nodes {
			if sc.Byz.Has(ids.NodeID(i)) {
				continue
			}
			o := nd.Decide()
			out[i] = nodeDecision{detected: o.Partitioned, key: fmt.Sprintf("partitioned=%v", o.Partitioned)}
		}
		return out, obs.FastPath{}
	}
	return protos, finish, nil
}
