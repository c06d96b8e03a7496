package harness

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/nectar-repro/nectar/internal/graph"
	"github.com/nectar-repro/nectar/internal/ids"
	"github.com/nectar-repro/nectar/internal/nectar"
	"github.com/nectar-repro/nectar/internal/obs"
	"github.com/nectar-repro/nectar/internal/rounds"
	"github.com/nectar-repro/nectar/internal/sig"
	"github.com/nectar-repro/nectar/internal/topology"
)

// spy is a Byzantine node that checks what its attack keeps and sends,
// each against cache-less shadows in the literal Alg. 1 order, so that
// every signature is verified. After the attack's Deliver, a delivery its
// inner NECTAR node accepted must pass the node's own shadow in full. Each
// message the attack sends must pass the signature checks of a shadow of
// a correct recipient, handed it from its last signer at its own hop
// count, so no framing check can reject it first. A relay whose signature
// was left for a reader to make is signed by the check that accepts it, so
// only bytes taken before the inner node read them can fail.
type spy struct {
	rounds.Protocol // the attack
	me              ids.NodeID
	inner           *nectar.Node
	shadow          *nectar.Node                // of me
	recipients      map[ids.NodeID]*nectar.Node // shadows of correct recipients, by node
	shadowOf        func(ids.NodeID) *nectar.Node
	checkSends      bool // false for a garbage flooder, whose sends are not meant to verify
	byz             map[ids.NodeID]AttackKind
	sigSize, n      int
	kept, sent      int      // deliveries kept and sends checked
	bad             []string // what failed, in order
}

func (s *spy) Deliver(round int, from ids.NodeID, data []byte) {
	before := s.inner.Stats().Accepted
	s.Protocol.Deliver(round, from, data)
	if s.inner.Stats().Accepted == before {
		return
	}
	s.kept++
	accepted := s.shadow.Stats().Accepted
	s.shadow.Deliver(round, from, data)
	if s.shadow.Stats().Accepted == accepted {
		s.bad = append(s.bad, fmt.Sprintf("round %d: node %v kept a delivery from %v that does not verify", round, s.me, from))
	}
}

func (s *spy) Emit(round int) []rounds.Send {
	out := s.Protocol.Emit(round)
	if !s.checkSends {
		return out
	}
	for _, send := range out {
		to := send.Recipients(nil)
		i := slices.IndexFunc(to, func(v ids.NodeID) bool { _, byz := s.byz[v]; return !byz })
		if i < 0 {
			continue
		}
		s.sent++
		if why := s.signatureReject(to[i], send.Data); why != "" {
			s.bad = append(s.bad, fmt.Sprintf("round %d: node %v sent a message its correct recipient rejects (%s)", round, s.me, why))
		}
	}
	return out
}

// signatureReject hands data to the shadow of recipient to and returns the
// reason it rejected data for, if that was a signature.
func (s *spy) signatureReject(to ids.NodeID, data []byte) string {
	m, err := nectar.DecodeEdgeMsg(data, s.sigSize, s.n)
	if err != nil || len(m.Chain) == 0 {
		return "" // malformed: no signature is reached
	}
	shadow := s.recipients[to]
	if shadow == nil {
		shadow = s.shadowOf(to)
		shadow.TraceEvidence(true)
		s.recipients[to] = shadow
	}
	shadow.Deliver(len(m.Chain), m.Chain[len(m.Chain)-1].Signer, data)
	why := ""
	shadow.DrainEvidence(func(ev obs.Event) {
		if ev.Type == obs.EvChainReject && (ev.Key == "chain_sig" || ev.Key == "proof_sig") {
			why = ev.Key
		}
	})
	return why
}

// replay is the mutation TestByzantineKeepsSignedChains must catch: an
// attack that copies each raw delivery before its inner node reads it and
// sends the copies to its neighbours the next round.
type replay struct {
	rounds.Protocol
	nbrs   []ids.NodeID
	copies [][]byte
}

func (r *replay) Deliver(round int, from ids.NodeID, data []byte) {
	r.copies = append(r.copies, slices.Clone(data))
	r.Protocol.Deliver(round, from, data)
}

func (r *replay) Emit(round int) []rounds.Send {
	out := r.Protocol.Emit(round)
	for _, c := range r.copies {
		out = append(out, rounds.Send{To: r.nbrs, Data: c})
	}
	r.copies = nil
	return out
}

// keptUnsigned runs attack on g's Byzantine nodes byz at workers engine
// workers, each node's attack wrapped by mutate (nil = none) and then by a
// spy, and returns what the spies found. It fails t when an attack that
// reads its deliveries leaves a spy nothing to check.
func keptUnsigned(t *testing.T, g *graph.Graph, byz []ids.NodeID, blocked map[ids.NodeID]ids.Set, attack AttackKind, workers int, mutate func(ids.NodeID, rounds.Protocol) rounds.Protocol) []string {
	t.Helper()
	cfg := NectarConfig{Graph: g, T: 2, Scheme: sig.NewHMAC(g.N(), 4), Seed: 4,
		Byzantine: map[ids.NodeID]AttackKind{}, Blocked: blocked}
	for _, b := range byz {
		cfg.Byzantine[b] = attack
	}
	run, err := BuildNectar(cfg)
	if err != nil {
		t.Fatal(err)
	}
	proofs := nectar.BuildProofs(cfg.Scheme, g)
	shadowOf := func(v ids.NodeID) *nectar.Node {
		nd, err := nectar.NewNode(nectar.NodeConfig(g, cfg.T, cfg.Scheme, proofs, v, 0, nectar.WithParanoidVerify()))
		if err != nil {
			panic(err) // the proofs are the run's own
		}
		return nd
	}
	var spies []*spy
	for _, b := range byz {
		p := run.Protos[b]
		if mutate != nil {
			p = mutate(b, p)
		}
		s := &spy{Protocol: p, me: b, inner: run.Nodes[b], shadow: shadowOf(b), shadowOf: shadowOf,
			recipients: map[ids.NodeID]*nectar.Node{}, byz: cfg.Byzantine,
			sigSize: cfg.Scheme.Verifier().SigSize(), n: g.N(), checkSends: attack != AttackGarbage}
		run.Protos[b] = s
		spies = append(spies, s)
	}
	if _, err := rounds.Run(rounds.Config{Graph: g, Rounds: g.N() - 1, Seed: cfg.Seed, Workers: workers}, run.Protos); err != nil {
		t.Fatal(err)
	}
	run.Finish(nectar.NewDecideCache(), nil, 0)
	var bad []string
	for _, s := range spies {
		s.shadow.Release()
		for _, nd := range s.recipients {
			nd.Release()
		}
		bad = append(bad, s.bad...)
		if reads := attack != AttackCrash && attack != AttackGarbage; reads && (s.kept == 0 || s.sent == 0) {
			t.Errorf("%s at %d workers: Byzantine node %v kept %d deliveries and sent %d checked messages: nothing to check",
				attack, workers, s.me, s.kept, s.sent)
		}
	}
	return bad
}

// TestByzantineKeepsSignedChains: every correct node leaves its relays'
// signatures to their first reader, Byzantine neighbours included
// (DESIGN.md §9), so a Byzantine node may receive a relay whose signature
// slot is still zero. The contract is that every byte it keeps or sends is
// signed: whatever the attack, at one worker and at four, each spy finds
// every delivery its inner node kept verifying in full and every message
// it sends verifying at a correct recipient. An attack that keeps a copy
// of a delivery taken before its inner node read it breaks the contract,
// and the spies must say so.
func TestByzantineKeepsSignedChains(t *testing.T) {
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
			for _, workers := range []int{1, 4} {
				for _, bad := range keptUnsigned(t, sc.g, sc.byz, sc.blocked, attack, workers, nil) {
					t.Errorf("%s/%s at %d workers: %s", sc.name, attack, workers, bad)
				}
			}
		}
		// One worker: at four, the copy would race the reader that signs.
		mutate := func(b ids.NodeID, p rounds.Protocol) rounds.Protocol {
			return &replay{Protocol: p, nbrs: sc.g.Neighbors(b)}
		}
		if bad := keptUnsigned(t, sc.g, sc.byz, sc.blocked, AttackNone, 1, mutate); len(bad) == 0 {
			t.Errorf("%s: an attack replaying deliveries copied before its inner node read them passed", sc.name)
		} else {
			t.Logf("%s, replaying copies: %d failures, first %s", sc.name, len(bad), bad[0])
		}
	}
}

// TestSignsOnReadGate pins which nodes BuildNectar lets sign their relays
// on first read: exactly the correct, present ones, whatever their
// neighbours are.
func TestSignsOnReadGate(t *testing.T) {
	g := topology.Ring(8)
	byz := map[ids.NodeID]AttackKind{2: AttackCrash, 3: AttackFakeEdges}
	for _, c := range []struct {
		name   string
		byz    map[ids.NodeID]AttackKind
		absent ids.Set
		want   []ids.NodeID
	}{
		{"honest", nil, nil, []ids.NodeID{0, 1, 2, 3, 4, 5, 6, 7}},
		{"byzantine", byz, nil, []ids.NodeID{0, 1, 4, 5, 6, 7}},
		{"absent", nil, ids.NewSet(5), []ids.NodeID{0, 1, 2, 3, 4, 6, 7}},
		{"both", byz, ids.NewSet(5), []ids.NodeID{0, 1, 4, 6, 7}},
	} {
		cfg := NectarConfig{Graph: g, Byzantine: c.byz, Absent: c.absent}
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
