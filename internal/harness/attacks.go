package harness

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/nectar-repro/nectar/internal/adversary"
	"github.com/nectar-repro/nectar/internal/graph"
	"github.com/nectar-repro/nectar/internal/ids"
	"github.com/nectar-repro/nectar/internal/mtg"
	"github.com/nectar-repro/nectar/internal/rounds"
	"github.com/nectar-repro/nectar/internal/sig"
)

// AttackKind selects the behaviour of Byzantine nodes.
type AttackKind string

// The attacks (§V-D plus robustness probes). The catalogue below says which
// protocols define each, and how.
const (
	AttackNone       AttackKind = "none"       // Byzantine slots behave correctly (t is only assumed)
	AttackCrash      AttackKind = "crash"      // silence
	AttackSplitBrain AttackKind = "splitbrain" // correct towards one side, crashed towards the Blocked side (the bridge attack)
	AttackPoison     AttackKind = "poison"     // all-ones Bloom filters
	AttackFakeEdges  AttackKind = "fakeedges"  // fictitious Byzantine-pair edges
	AttackGarbage    AttackKind = "garbage"    // random byte flooding
	AttackStale      AttackKind = "stale"      // one-round message delay (stale chains)
	AttackEquivocate AttackKind = "equivocate" // selective neighborhood announcement
	AttackOmitOwn    AttackKind = "omitown"    // concealment of Byzantine-Byzantine edges
	AttackAdaptive   AttackKind = "adaptive"   // coordinated adaptive equivocation (DESIGN.md §8)
	AttackPhased     AttackKind = "phased"     // stale for the first third of the horizon, then adaptive
)

// wrapCtx is what a catalogue row sees of the run it wraps a node in.
type wrapCtx struct {
	g       *graph.Graph
	byz     []ids.NodeID // every Byzantine node of the run, sorted
	blocked map[ids.NodeID]ids.Set
	seed    int64                  // the engine seed: garbage flooder b is seeded seed^b
	scheme  sig.Scheme             // nil for MtG, which signs nothing
	rounds  int                    // the horizon override (0 = n-1)
	coord   *adversary.Coordinator // the run's coalition, built by its first member
}

// wrapFn puts Byzantine node b, whose correct stack is inner, behind one
// attack.
type wrapFn func(c *wrapCtx, b ids.NodeID, inner rounds.Protocol) (rounds.Protocol, error)

// catalogue is the one list of attacks: for each, how every protocol that
// defines it wraps a Byzantine node. Adding an attack is a constant above
// and a row here.
var catalogue = map[AttackKind]map[ProtocolKind]wrapFn{
	AttackNone:       everyProtocol(func(_ *wrapCtx, _ ids.NodeID, inner rounds.Protocol) (rounds.Protocol, error) { return inner, nil }),
	AttackCrash:      everyProtocol(func(*wrapCtx, ids.NodeID, rounds.Protocol) (rounds.Protocol, error) { return adversary.Silent{}, nil }),
	AttackSplitBrain: everyProtocol(splitBrain),
	AttackPoison: {ProtoMtG: func(c *wrapCtx, b ids.NodeID, _ rounds.Protocol) (rounds.Protocol, error) {
		return adversary.NewBloomPoison(c.g.Neighbors(b), mtg.DefaultFilterBits, mtg.DefaultFilterHashes), nil
	}},
	AttackFakeEdges: {ProtoNectar: fakeEdges},
	AttackGarbage: {
		ProtoNectar: garbage(200),
		ProtoMtG:    garbage(mtg.DefaultFilterBits / 8),
		ProtoMtGv2:  garbage(128),
	},
	// A stale node's coordinator is its own: as a member of the run's
	// coalition it would never be victimised, which moves the victims.
	AttackStale: {ProtoNectar: func(c *wrapCtx, b ids.NodeID, inner rounds.Protocol) (rounds.Protocol, error) {
		always := func(int) adversary.Action { return adversary.ActStale }
		return adversary.NewCoordinator().Join(inner, b, c.g.Neighbors(b), always), nil
	}},
	AttackEquivocate: {ProtoNectar: func(_ *wrapCtx, _ ids.NodeID, inner rounds.Protocol) (rounds.Protocol, error) {
		return adversary.NectarEquivocate(inner), nil
	}},
	AttackOmitOwn: {ProtoNectar: omitOwn},
	AttackAdaptive: {ProtoNectar: func(c *wrapCtx, b ids.NodeID, inner rounds.Protocol) (rounds.Protocol, error) {
		return c.coalition().Join(inner, b, c.g.Neighbors(b), adversary.AlwaysEquivocate()), nil
	}},
	AttackPhased: {ProtoNectar: func(c *wrapCtx, b ids.NodeID, inner rounds.Protocol) (rounds.Protocol, error) {
		horizon := cmp.Or(c.rounds, c.g.N()-1)
		sched := adversary.StaleThenEquivocate(adversary.PhasedSwitchRound(horizon))
		return c.coalition().Join(inner, b, c.g.Neighbors(b), sched), nil
	}},
}

// everyProtocol is a row every protocol defines the same way.
func everyProtocol(wrap wrapFn) map[ProtocolKind]wrapFn {
	return map[ProtocolKind]wrapFn{ProtoNectar: wrap, ProtoMtG: wrap, ProtoMtGv2: wrap}
}

func splitBrain(c *wrapCtx, b ids.NodeID, inner rounds.Protocol) (rounds.Protocol, error) {
	blocked := c.blocked[b]
	if blocked == nil {
		return nil, fmt.Errorf("harness: split-brain node %v has no Blocked set", b)
	}
	return adversary.SplitBrain(inner, blocked), nil
}

func fakeEdges(c *wrapCtx, b ids.NodeID, inner rounds.Protocol) (rounds.Protocol, error) {
	var partners []sig.Signer
	for _, other := range c.byz {
		if other != b {
			partners = append(partners, c.scheme.SignerFor(other))
		}
	}
	return adversary.NewNectarFakeEdges(inner, c.scheme.SignerFor(b), partners,
		c.scheme.Verifier().SigSize(), c.g.Neighbors(b)), nil
}

func garbage(size int) wrapFn {
	return func(c *wrapCtx, b ids.NodeID, _ rounds.Protocol) (rounds.Protocol, error) {
		return adversary.NewGarbage(c.g.Neighbors(b), c.seed^int64(b), size), nil
	}
}

func omitOwn(c *wrapCtx, b ids.NodeID, inner rounds.Protocol) (rounds.Protocol, error) {
	hide := make(map[graph.Edge]bool)
	for _, other := range c.byz {
		if other != b && c.g.HasEdge(b, other) {
			hide[graph.NewEdge(b, other)] = true
		}
	}
	return adversary.NectarOmitOwn(inner, c.scheme.Verifier().SigSize(), hide), nil
}

// coalition returns the run's coordinator, building it on first use: the
// adaptive and phased nodes of a run are one coalition.
func (c *wrapCtx) coalition() *adversary.Coordinator {
	if c.coord == nil {
		c.coord = adversary.NewCoordinator()
	}
	return c.coord
}

// wrap puts every present Byzantine node of attacks, in ID order, behind
// its attack's row for protocol p.
func (c *wrapCtx) wrap(p ProtocolKind, protos []rounds.Protocol, attacks map[ids.NodeID]AttackKind, absent ids.Set) error {
	c.byz = make([]ids.NodeID, 0, len(attacks))
	for b := range attacks {
		c.byz = append(c.byz, b)
	}
	slices.Sort(c.byz)
	for _, b := range c.byz {
		if absent.Has(b) {
			continue // Silent, and must not steer a coalition's victim choice
		}
		wrap := row(p, attacks[b])
		if wrap == nil {
			return fmt.Errorf("harness: attack %q not defined for protocol %q", attacks[b], p)
		}
		w, err := wrap(c, b, protos[b])
		if err != nil {
			return err
		}
		protos[b] = w
	}
	return nil
}

// row returns how protocol p wraps a node under attack a (the empty attack
// means AttackNone), or nil where p does not define a.
func row(p ProtocolKind, a AttackKind) wrapFn { return catalogue[cmp.Or(a, AttackNone)][p] }

// SupportedAttacks lists the attacks defined for protocol p, sorted, for
// CLI listings and exhaustive tests.
func SupportedAttacks(p ProtocolKind) []AttackKind {
	out := make([]AttackKind, 0, len(catalogue))
	for a, row := range catalogue {
		if row[p] != nil {
			out = append(out, a)
		}
	}
	slices.Sort(out)
	return out
}
