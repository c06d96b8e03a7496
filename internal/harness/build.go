package harness

import (
	"fmt"
	"slices"
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
func buildTrial(spec *Spec, sc *Scenario, trialSeed int64) ([]rounds.Protocol, func() ([]nodeDecision, obs.FastPath), error) {
	switch spec.Protocol {
	case ProtoNectar:
		return buildNectar(spec, sc, trialSeed)
	case ProtoMtG:
		return buildMtG(spec, sc, trialSeed)
	case ProtoMtGv2:
		return buildMtGv2(spec, sc, trialSeed)
	}
	return nil, nil, fmt.Errorf("harness: unknown protocol %q", spec.Protocol)
}

func buildNectar(spec *Spec, sc *Scenario, trialSeed int64) ([]rounds.Protocol, func() ([]nodeDecision, obs.FastPath), error) {
	run, err := nectarTrial(spec, sc, trialSeed)
	if err != nil {
		return nil, nil, err
	}
	finish := func() ([]nodeDecision, obs.FastPath) {
		outs, pc := run.Finish(nectar.NewDecideCache(), nil, 0)
		out := make([]nodeDecision, len(outs))
		for i, o := range outs {
			if o.Decision != nectar.Undecided {
				out[i] = nodeDecision{
					detected:  o.Decision == nectar.Partitionable,
					key:       o.Decision.String(),
					confirmed: o.Confirmed,
				}
			}
		}
		return out, pc
	}
	return run.Protos, finish, nil
}

// nectarTrial builds a static trial's NECTAR run: every Byzantine node of
// the scenario runs the spec's attack.
func nectarTrial(spec *Spec, sc *Scenario, trialSeed int64) (*NectarRun, error) {
	attacks := make(map[ids.NodeID]AttackKind, sc.Byz.Len())
	for b := range sc.Byz {
		attacks[b] = spec.Attack
	}
	return BuildNectar(NectarConfig{
		Graph: sc.Graph, T: spec.T, Scheme: trialScheme(spec, sc.Graph.N(), trialSeed),
		Rounds: spec.Rounds, Seed: trialSeed,
		Byzantine: attacks, Blocked: sc.Blocked, NoVerifyCache: spec.noVerifyCache,
	})
}

// NectarConfig describes one NECTAR run for BuildNectar, the one place a run
// is assembled: Simulate, SimulateDynamic (per epoch), and the static and
// dynamic experiment drivers are adaptors over it.
type NectarConfig struct {
	// Graph is the communication network and T the bound every node gets.
	Graph *graph.Graph
	T     int
	// Scheme signs proofs and relays; the run's verification memo is
	// scoped to it.
	Scheme sig.Scheme
	// Rounds overrides the n-1 horizon (0 = n-1); the phased attack keys
	// its switch round on the resolved horizon.
	Rounds int
	// Seed is the engine seed: garbage flooder b is seeded Seed^b.
	Seed int64
	// Byzantine assigns each Byzantine node its attack. A Byzantine node
	// never decides; under AttackNone it stays correct on the wire.
	Byzantine map[ids.NodeID]AttackKind
	// Blocked is each split-brain node's stonewalled side. A missing (nil)
	// set is a configuration error; an empty one blocks nobody.
	Blocked map[ids.NodeID]ids.Set
	// Absent nodes are churned out: Silent on the wire, outside any
	// coordinated coalition, and undecided.
	Absent ids.Set
	// NoVerifyCache and ParanoidVerify select the tests' reference runs:
	// no verification memo, and the literal Alg. 1 check order. Results
	// are identical either way (DESIGN.md §9).
	NoVerifyCache, ParanoidVerify bool
}

// NectarRun is a built run: Protos for the engine, the NECTAR node of every
// vertex under its wrapper (for white-box inspection), and the memo they
// share until Finish or Release hands it back.
type NectarRun struct {
	Protos []rounds.Protocol
	Nodes  []*nectar.Node
	byz    map[ids.NodeID]AttackKind
	absent ids.Set
	vcache *sig.VerifyCache
}

// BuildNectar builds the nodes of cfg.Graph with their run-wide verification
// memo and puts every present Byzantine node behind its attack. On error it
// has already released what it borrowed.
func BuildNectar(cfg NectarConfig) (*NectarRun, error) {
	r := &NectarRun{byz: cfg.Byzantine, absent: cfg.Absent}
	var opts []nectar.BuildOption
	if !cfg.NoVerifyCache {
		r.vcache = sig.NewVerifyCache()
		opts = append(opts, nectar.WithVerifyCache(r.vcache))
	}
	if cfg.ParanoidVerify {
		opts = append(opts, nectar.WithParanoidVerify())
	}
	nodes, err := nectar.BuildNodes(cfg.Graph, cfg.T, cfg.Scheme, cfg.Rounds, opts...)
	if err != nil {
		r.Release()
		return nil, err
	}
	r.Nodes = nodes
	r.Protos = make([]rounds.Protocol, len(nodes))
	for i, nd := range nodes {
		r.Protos[i] = nd
	}
	if err := r.wrapAttacks(&cfg); err != nil {
		r.Release()
		return nil, err
	}
	for a := range cfg.Absent {
		r.Protos[a] = adversary.Silent{}
	}
	return r, nil
}

// wrapAttacks is the NECTAR behaviour switch: it wraps every present
// Byzantine node, in ID order, with its attack. The coordinated attacks
// (adaptive, phased) of a run share one controller.
func (r *NectarRun) wrapAttacks(cfg *NectarConfig) error {
	g, scheme := cfg.Graph, cfg.Scheme
	byz := make([]ids.NodeID, 0, len(cfg.Byzantine))
	for b := range cfg.Byzantine {
		byz = append(byz, b)
	}
	slices.Sort(byz)
	horizon := cfg.Rounds
	if horizon == 0 {
		horizon = g.N() - 1
	}
	sigSize := scheme.Verifier().SigSize()
	var coord *adversary.Coordinator
	for _, b := range byz {
		if cfg.Absent.Has(b) {
			continue // Silent, and must not steer a coalition's victim choice
		}
		inner, nbrs := r.Nodes[b], g.Neighbors(b)
		switch attack := cfg.Byzantine[b]; attack {
		case AttackNone:
		case AttackCrash:
			r.Protos[b] = adversary.Silent{}
		case AttackSplitBrain:
			blocked := cfg.Blocked[b]
			if blocked == nil {
				return fmt.Errorf("harness: split-brain node %v has no Blocked set", b)
			}
			r.Protos[b] = adversary.SplitBrain(inner, blocked)
		case AttackFakeEdges:
			var partners []sig.Signer
			for _, other := range byz {
				if other != b {
					partners = append(partners, scheme.SignerFor(other))
				}
			}
			r.Protos[b] = adversary.NewNectarFakeEdges(inner, scheme.SignerFor(b), partners, sigSize, nbrs)
		case AttackGarbage:
			r.Protos[b] = adversary.NewGarbage(nbrs, cfg.Seed^int64(b), 200)
		case AttackStale:
			r.Protos[b] = adversary.NewNectarStaleReplay(inner)
		case AttackEquivocate:
			r.Protos[b] = adversary.NectarEquivocate(inner)
		case AttackOmitOwn:
			hide := make(map[graph.Edge]bool)
			for _, other := range byz {
				if other != b && g.HasEdge(b, other) {
					hide[graph.NewEdge(b, other)] = true
				}
			}
			r.Protos[b] = adversary.NectarOmitOwn(inner, sigSize, hide)
		case AttackAdaptive, AttackPhased:
			if coord == nil {
				coord = adversary.NewCoordinator()
			}
			sched := adversary.AlwaysEquivocate()
			if attack == AttackPhased {
				sched = adversary.StaleThenEquivocate(adversary.PhasedSwitchRound(horizon))
			}
			r.Protos[b] = coord.Join(inner, b, nbrs, sched)
		default:
			return fmt.Errorf("harness: attack %q not defined for NECTAR", attack)
		}
	}
	return nil
}

// Finish runs the decision phase once the engine has stopped: the present
// correct nodes decide in ID order on the calling goroutine, through dc and
// with a kappa_eval event each to tr (nil = none) under epoch, so the
// events are deterministic. It returns the outcomes indexed by node —
// Undecided for the Byzantine and absent nodes, which do not decide — and
// the run's fast-path counters, then releases the run.
func (r *NectarRun) Finish(dc *nectar.DecideCache, tr obs.Tracer, epoch int) ([]nectar.Outcome, obs.FastPath) {
	outs := make([]nectar.Outcome, len(r.Nodes))
	var pc obs.FastPath
	for i, nd := range r.Nodes {
		id := ids.NodeID(i)
		if _, byz := r.byz[id]; byz || r.absent.Has(id) {
			continue
		}
		outs[i] = nd.DecideTraced(dc, tr, epoch)
		pc.LazyDiscards += int64(nd.Stats().LazyDiscards)
	}
	pc.VerifyCacheHits, pc.VerifyCacheMisses = r.vcache.Stats()
	pc.DecideCacheHits = dc.Hits()
	r.Release()
	return outs, pc
}

// Release hands the memo and the scratch of the nodes that never decided
// back to their free lists (DESIGN.md §9). Finish calls it; drivers call it
// on their error paths. It is idempotent.
func (r *NectarRun) Release() {
	r.vcache.Release()
	r.vcache = nil
	for _, nd := range r.Nodes {
		nd.Release()
	}
}

func buildMtG(spec *Spec, sc *Scenario, trialSeed int64) ([]rounds.Protocol, func() ([]nodeDecision, obs.FastPath), error) {
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

func buildMtGv2(spec *Spec, sc *Scenario, trialSeed int64) ([]rounds.Protocol, func() ([]nodeDecision, obs.FastPath), error) {
	g := sc.Graph
	scheme := trialScheme(spec, g.N(), trialSeed)
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
