package harness

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/nectar-repro/nectar/internal/graph"
	"github.com/nectar-repro/nectar/internal/ids"
	"github.com/nectar-repro/nectar/internal/nectar"
	"github.com/nectar-repro/nectar/internal/rounds"
	"github.com/nectar-repro/nectar/internal/sig"
	"github.com/nectar-repro/nectar/internal/topology"
)

// spy is a Byzantine node that checks, before its attack sees it, every
// message a correct neighbour delivers: a shadow of the node — cache-less,
// in the literal Alg. 1 order, so every signature is verified — must
// accept or discard it, never reject it. A relay whose signature was left
// for a reader to make would reach the spy with an empty slot.
type spy struct {
	rounds.Protocol // the attack
	shadow          *nectar.Node
	byz             map[ids.NodeID]AttackKind
	checked         int // relays from correct neighbours
	rejected        int
}

func (s *spy) Deliver(round int, from ids.NodeID, data []byte) {
	if _, byz := s.byz[from]; !byz {
		before := s.shadow.Stats().Rejected
		s.shadow.Deliver(round, from, data)
		if s.shadow.Stats().Rejected > before {
			s.rejected++
		}
		if round > 1 {
			s.checked++
		}
	}
	s.Protocol.Deliver(round, from, data)
}

// TestByzantineNeighbourGetsSignedChains: a correct node next to a
// Byzantine one signs every relay it emits (DESIGN.md §9), whatever the
// attack — each Byzantine node here is a spy over its attack, and every
// chain a correct neighbour sends it verifies in full.
func TestByzantineNeighbourGetsSignedChains(t *testing.T) {
	harary, err := topology.Harary(4, 12)
	if err != nil {
		t.Fatal(err)
	}
	bridge, err := Bridge(14, 2, 6, 1.8, 2)(rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	upper := ids.NewSet(6, 8, 9, 10, 11)
	for _, sc := range []struct {
		name    string
		g       *graph.Graph
		byz     []ids.NodeID
		blocked map[ids.NodeID]ids.Set
	}{
		{"harary", harary, []ids.NodeID{2, 7}, map[ids.NodeID]ids.Set{2: upper, 7: upper}},
		{"bridge", bridge.Graph, bridge.Byz.Sorted(), bridge.Blocked},
	} {
		for _, attack := range SupportedAttacks(ProtoNectar) {
			cfg := NectarConfig{Graph: sc.g, T: 2, Scheme: sig.NewHMAC(sc.g.N(), 4), Seed: 4,
				Byzantine: map[ids.NodeID]AttackKind{}, Blocked: sc.blocked}
			for _, b := range sc.byz {
				cfg.Byzantine[b] = attack
			}
			run, err := BuildNectar(cfg)
			if err != nil {
				t.Fatal(err)
			}
			proofs := nectar.BuildProofs(cfg.Scheme, sc.g)
			var spies []*spy
			for _, b := range sc.byz {
				shadow, err := nectar.NewNode(nectar.NodeConfig(sc.g, cfg.T, cfg.Scheme, proofs, b, 0, nectar.WithParanoidVerify()))
				if err != nil {
					t.Fatal(err)
				}
				s := &spy{Protocol: run.Protos[b], shadow: shadow, byz: cfg.Byzantine}
				run.Protos[b] = s
				spies = append(spies, s)
			}
			if _, err := rounds.Run(rounds.Config{Graph: sc.g, Rounds: sc.g.N() - 1, Seed: cfg.Seed, Workers: 1}, run.Protos); err != nil {
				t.Fatal(err)
			}
			run.Finish(nectar.NewDecideCache(), nil, 0)
			for i, s := range spies {
				s.shadow.Release()
				if s.rejected > 0 || s.checked == 0 {
					t.Errorf("%s/%s: Byzantine node %v rejected %d messages from correct neighbours, after %d relays checked",
						sc.name, attack, sc.byz[i], s.rejected, s.checked)
				}
			}
		}
	}
}

// TestSignsOnReadGate pins which nodes BuildNectar lets sign their relays
// on first read: the correct, present nodes whose neighbours are all
// correct and present — and none, with Byzantine nodes, when the links may
// change during the run.
func TestSignsOnReadGate(t *testing.T) {
	g := topology.Ring(8)
	byz := map[ids.NodeID]AttackKind{2: AttackCrash}
	for _, c := range []struct {
		name        string
		byz         map[ids.NodeID]AttackKind
		absent      ids.Set
		linksChange bool
		want        []ids.NodeID
	}{
		{"honest", nil, nil, false, []ids.NodeID{0, 1, 2, 3, 4, 5, 6, 7}},
		{"byzantine", byz, nil, false, []ids.NodeID{0, 4, 5, 6, 7}},
		{"absent", nil, ids.NewSet(5), false, []ids.NodeID{0, 1, 2, 3, 7}},
		{"both", byz, ids.NewSet(5), false, []ids.NodeID{0, 7}},
		{"changing links", nil, ids.NewSet(5), true, []ids.NodeID{0, 1, 2, 3, 7}},
		{"changing links, byzantine", byz, nil, true, nil},
	} {
		cfg := NectarConfig{Graph: g, Byzantine: c.byz, Absent: c.absent, linksChange: c.linksChange}
		var got []ids.NodeID
		for v := range ids.NodeID(g.N()) {
			if cfg.signsOnRead(v) {
				got = append(got, v)
			}
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("%s: %v sign on read, want %v", c.name, got, c.want)
		}
	}
}
