package harness

import (
	"fmt"

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

// Protocols lists the protocols under test.
func Protocols() []ProtocolKind {
	return []ProtocolKind{ProtoNectar, ProtoMtG, ProtoMtGv2}
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
	return BuildNectar(NectarConfig{
		Graph: sc.Graph, T: spec.T, Scheme: trialScheme(spec, sc.Graph.N(), trialSeed),
		Rounds: spec.Rounds, Seed: trialSeed,
		Byzantine: sc.attacks(spec.Attack), Blocked: sc.Blocked, NoVerifyCache: spec.noVerifyCache,
	})
}

// NectarConfig describes one NECTAR run for BuildNectar, the one place a run
// is assembled: Simulate, SimulateDynamic (per epoch), and the static and
// dynamic experiment drivers are adaptors over it.
type NectarConfig struct {
	// Graph is the communication network and T the bound every node gets.
	Graph *graph.Graph
	T     int
	// Scheme signs proofs and relays; the run's verification cache is
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
	// no verification cache, and the literal Alg. 1 check order. Results
	// are identical either way (DESIGN.md §9).
	NoVerifyCache, ParanoidVerify bool
}

// signsOnRead reports whether node id may leave each relay's signature to
// the first neighbour that checks it (DESIGN.md §9): a correct, present
// node, whatever its neighbours. A correct neighbour reads through the
// run's cache in the run's engine; an absent one drops what it receives,
// and so does every attack but those that hand a delivery unchanged to
// their inner node, whose check signs it before anything is kept. So every
// byte a Byzantine node keeps or sends is signed, though not every byte it
// receives.
func (cfg *NectarConfig) signsOnRead(id ids.NodeID) bool {
	_, byz := cfg.Byzantine[id]
	return !byz && !cfg.Absent.Has(id)
}

// NectarRun is a built run: Protos for the engine, the NECTAR node of every
// vertex under its wrapper (for white-box inspection), and the
// verification cache they share until Finish or Release hands it back.
type NectarRun struct {
	Protos []rounds.Protocol
	Nodes  []*nectar.Node
	byz    map[ids.NodeID]AttackKind
	absent ids.Set
	vcache *sig.VerifyCache
}

// BuildNectar builds the nodes of cfg.Graph with their run-wide verification
// cache and puts every present Byzantine node behind its attack. On error it
// has already released what it borrowed.
func BuildNectar(cfg NectarConfig) (*NectarRun, error) {
	r := &NectarRun{byz: cfg.Byzantine, absent: cfg.Absent}
	var opts []nectar.BuildOption
	if !cfg.NoVerifyCache {
		r.vcache = sig.NewVerifyCache()
		opts = append(opts, nectar.WithVerifyCache(r.vcache), nectar.WithSignOnRead(cfg.signsOnRead))
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
	c := &wrapCtx{g: cfg.Graph, blocked: cfg.Blocked, seed: cfg.Seed, scheme: cfg.Scheme, rounds: cfg.Rounds}
	if err := c.wrap(ProtoNectar, r.Protos, cfg.Byzantine, cfg.Absent); err != nil {
		r.Release()
		return nil, err
	}
	for a := range cfg.Absent {
		r.Protos[a] = adversary.Silent{}
	}
	return r, nil
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

// Release hands the scratch of the nodes that never decided and then the
// verification cache, whose boards they post on, back to their free lists (DESIGN.md §9).
// Finish calls it; drivers call it on their error paths. It is idempotent.
func (r *NectarRun) Release() {
	for _, nd := range r.Nodes {
		nd.Release()
	}
	r.vcache.Release()
	r.vcache = nil
}

// baselineNode is an MtG or MtGv2 node.
type baselineNode interface {
	rounds.Protocol
	Decide() mtg.Outcome
}

func buildMtG(spec *Spec, sc *Scenario, trialSeed int64) ([]rounds.Protocol, func() ([]nodeDecision, obs.FastPath), error) {
	g := sc.Graph
	return buildBaseline(spec, sc, trialSeed, nil, func(me ids.NodeID) (baselineNode, error) {
		return mtg.NewNode(mtg.Config{
			N: g.N(), Me: me,
			Neighbors: append([]ids.NodeID(nil), g.Neighbors(me)...),
			Seed:      trialSeed,
		})
	})
}

func buildMtGv2(spec *Spec, sc *Scenario, trialSeed int64) ([]rounds.Protocol, func() ([]nodeDecision, obs.FastPath), error) {
	g := sc.Graph
	scheme := trialScheme(spec, g.N(), trialSeed)
	return buildBaseline(spec, sc, trialSeed, scheme, func(me ids.NodeID) (baselineNode, error) {
		return mtg.NewNodeV2(mtg.ConfigV2{
			N: g.N(), Me: me,
			Neighbors: append([]ids.NodeID(nil), g.Neighbors(me)...),
			Signer:    scheme.SignerFor(me),
			Verifier:  scheme.Verifier(),
			Seed:      trialSeed,
		})
	})
}

// buildBaseline wires a baseline trial: newNode builds each vertex's node,
// then every Byzantine node goes behind the spec's attack.
func buildBaseline(spec *Spec, sc *Scenario, trialSeed int64, scheme sig.Scheme, newNode func(ids.NodeID) (baselineNode, error)) ([]rounds.Protocol, func() ([]nodeDecision, obs.FastPath), error) {
	g := sc.Graph
	protos := make([]rounds.Protocol, g.N())
	nodes := make([]baselineNode, g.N())
	for i := range protos {
		nd, err := newNode(ids.NodeID(i))
		if err != nil {
			return nil, nil, err
		}
		nodes[i], protos[i] = nd, nd
	}
	c := &wrapCtx{g: g, blocked: sc.Blocked, seed: trialSeed, scheme: scheme, rounds: spec.Rounds}
	if err := c.wrap(spec.Protocol, protos, sc.attacks(spec.Attack), nil); err != nil {
		return nil, nil, err
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
