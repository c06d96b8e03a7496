package mtg

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"

	"github.com/nectar-repro/nectar/internal/graph"
	"github.com/nectar-repro/nectar/internal/ids"
	"github.com/nectar-repro/nectar/internal/rounds"
	"github.com/nectar-repro/nectar/internal/sig"
	"github.com/nectar-repro/nectar/internal/topology"
)

// refPick is gossip-partner selection by a fresh rand.Perm per round: what
// partners.pick must reproduce draw for draw.
func refPick(rng *rand.Rand, neighbors []ids.NodeID) []ids.NodeID {
	if len(neighbors) <= 1 {
		return neighbors
	}
	return []ids.NodeID{neighbors[rng.Perm(len(neighbors))[0]]}
}

// TestPartnersMatchRandPerm: the in-place draw picks the partner a fresh
// rand.Perm would, round after round, and leaves the RNG where Perm leaves
// it.
func TestPartnersMatchRandPerm(t *testing.T) {
	for k := 0; k <= 40; k++ {
		neighbors := make([]ids.NodeID, k)
		for i := range neighbors {
			neighbors[i] = ids.NodeID(3 * i) // positions and IDs differ
		}
		seed := int64(1000 * k)
		p := newPartners(seed, 7, k)
		ref := rand.New(rand.NewSource(seed ^ 7<<32))
		for round := 0; round < 3; round++ {
			want := refPick(ref, neighbors)
			var got []ids.NodeID
			if pos := p.pick(); pos >= 0 {
				got = append(got, neighbors[pos])
			}
			if !slices.Equal(got, want) {
				t.Fatalf("k=%d round %d: picked %v, rand.Perm picks %v", k, round, got, want)
			}
		}
		if a, b := p.rng.Int63(), ref.Int63(); a != b {
			t.Fatalf("k=%d: next draw %d, rand.Perm's stream gives %d", k, a, b)
		}
	}
}

// refV2 is an MtGv2 node as the reference codec defines it: partners by
// rand.Perm, batches by EncodeBatch over a map of held credentials, and
// deliveries by DecodeBatch followed by the per-entry check.
type refV2 struct {
	cfg   ConfigV2
	rng   *rand.Rand
	known map[ids.NodeID][]byte
	order []ids.NodeID
	sent  map[ids.NodeID]int
}

// expand returns sends as one single-recipient Send per message, in send
// order: what the engine delivers.
func expand(sends []rounds.Send) []rounds.Send {
	var out []rounds.Send
	for _, s := range sends {
		for _, to := range s.Recipients(nil) {
			out = append(out, rounds.Send{To: []ids.NodeID{to}, Data: s.Data})
		}
	}
	return out
}

func newRefV2(cfg ConfigV2) *refV2 {
	return &refV2{
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed ^ int64(cfg.Me)<<32)),
		known: map[ids.NodeID][]byte{cfg.Me: SignID(cfg.Signer)},
		order: []ids.NodeID{cfg.Me},
		sent:  map[ids.NodeID]int{},
	}
}

func (r *refV2) emit() []rounds.Send {
	var out []rounds.Send
	for _, to := range refPick(r.rng, r.cfg.Neighbors) {
		from := r.sent[to]
		if from >= len(r.order) {
			continue
		}
		var batch []SignedID
		for _, id := range r.order[from:] {
			batch = append(batch, SignedID{ID: id, Sig: r.known[id]})
		}
		r.sent[to] = len(r.order)
		out = append(out, rounds.Send{To: []ids.NodeID{to}, Data: EncodeBatch(batch, r.cfg.Verifier.SigSize())})
	}
	return out
}

func (r *refV2) deliver(data []byte) {
	batch, err := DecodeBatch(data, r.cfg.Verifier.SigSize())
	if err != nil {
		return
	}
	for _, e := range batch {
		if _, ok := r.known[e.ID]; ok || int(e.ID) >= r.cfg.N {
			continue
		}
		if VerifyID(r.cfg.Verifier, e.ID, e.Sig) {
			r.known[e.ID] = e.Sig
			r.order = append(r.order, e.ID)
		}
	}
}

// discovered returns the node's held IDs in discovery order.
func (n *NodeV2) discovered() []ids.NodeID {
	var out []ids.NodeID
	for e := n.creds; len(e) > 0; e = e[n.entry:] {
		out = append(out, ids.NodeID(binary.BigEndian.Uint32(e)))
	}
	return out
}

// sameState reports whether nd and ref hold the same credentials — Known()
// set and discovery order.
func sameState(nd *NodeV2, ref *refV2) bool {
	known := nd.Known()
	if len(known) != len(ref.known) {
		return false
	}
	for id := range ref.known {
		if !known.Has(id) {
			return false
		}
	}
	return slices.Equal(nd.discovered(), ref.order)
}

// TestNodeV2MatchesReference runs MtGv2 clusters in lockstep beside their
// reference twins: every round each node must emit exactly the reference's
// sends — the same partners and, byte for byte, EncodeBatch of the same
// credentials — and end every round holding what the reference holds.
func TestNodeV2MatchesReference(t *testing.T) {
	ring := topology.Ring(9)
	harary, err := topology.Harary(4, 12)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		g      *graph.Graph
		scheme sig.Scheme
	}{
		{"ring/hmac", ring, sig.NewHMAC(9, 2)},
		{"harary/hmac", harary, sig.NewHMAC(12, 2)},
		{"harary/ed25519", harary, sig.NewEd25519(12, 2)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.g.N()
			nodes, refs := make([]*NodeV2, n), make([]*refV2, n)
			for i := range nodes {
				cfg := ConfigV2{
					N: n, Me: ids.NodeID(i), Neighbors: tc.g.Neighbors(ids.NodeID(i)),
					Signer: tc.scheme.SignerFor(ids.NodeID(i)), Verifier: tc.scheme.Verifier(),
					Seed: 5,
				}
				if nodes[i], err = NewNodeV2(cfg); err != nil {
					t.Fatal(err)
				}
				refs[i] = newRefV2(cfg)
			}
			for r := 1; r < 2*n; r++ {
				outs := make([][]rounds.Send, n)
				for i, nd := range nodes {
					outs[i] = expand(nd.Emit(r))
					want := refs[i].emit()
					if len(outs[i]) != len(want) {
						t.Fatalf("round %d node %d: %d sends, reference %d", r, i, len(outs[i]), len(want))
					}
					for j, s := range outs[i] {
						if s.To[0] != want[j].To[0] || !bytes.Equal(s.Data, want[j].Data) {
							t.Fatalf("round %d node %d send %d: to %v %x, reference to %v %x",
								r, i, j, s.To, s.Data, want[j].To, want[j].Data)
						}
					}
				}
				for i, out := range outs {
					for _, s := range out {
						nodes[s.To[0]].Deliver(r, ids.NodeID(i), s.Data)
						refs[s.To[0]].deliver(s.Data)
					}
				}
				for i := range nodes {
					if !sameState(nodes[i], refs[i]) {
						t.Fatalf("round %d node %d: holds %v, reference %v", r, i, nodes[i].discovered(), refs[i].order)
					}
				}
			}
			for i, nd := range nodes {
				if out := nd.Decide(); out.Partitioned || out.Known != n {
					t.Errorf("node %d: %+v on a connected graph", i, out)
				}
			}
		})
	}
}

// TestWarmBaselinesAllocateNothing pins the buffer reuse of both
// baselines: once a node's buffers have grown, a round of MtG gossip, and
// an MtGv2 round re-encoding every credential plus the delivery of a batch
// it already holds, allocate nothing.
func TestWarmBaselinesAllocateNothing(t *testing.T) {
	a, err := NewNode(Config{N: 4, Me: 0, Neighbors: []ids.NodeID{1, 2, 3}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewNode(Config{N: 4, Me: 1, Neighbors: []ids.NodeID{0}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	gossip := func() {
		for _, s := range a.Emit(1) {
			b.Deliver(1, 0, s.Data)
		}
	}
	gossip()
	if allocs := testing.AllocsPerRun(100, gossip); allocs != 0 {
		t.Errorf("warm MtG Emit + Deliver: %v allocations, want 0", allocs)
	}

	scheme := sig.NewHMAC(4, 1)
	v2 := func(me ids.NodeID, nbrs ...ids.NodeID) *NodeV2 {
		nd, err := NewNodeV2(ConfigV2{
			N: 4, Me: me, Neighbors: nbrs, Signer: scheme.SignerFor(me),
			Verifier: scheme.Verifier(), Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return nd
	}
	x, y := v2(0, 1, 2, 3), v2(1, 0)
	for _, s := range y.Emit(1) {
		x.Deliver(1, 1, s.Data)
	}
	var batch []byte
	for _, s := range x.Emit(1) {
		y.Deliver(1, 0, s.Data)
		batch = append([]byte(nil), s.Data...)
	}
	if x.held() != 2 || y.held() != 2 {
		t.Fatalf("fixture broken: held %d and %d credentials", x.held(), y.held())
	}
	round := func() {
		clear(x.sent) // resend everything: a full re-encode into warm buffers
		if out := x.Emit(2); len(out) != 1 || len(out[0].To) != 1 {
			t.Fatal("fixture broken: no batch for the round's partner")
		}
		y.Deliver(2, 0, batch)
	}
	round()
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Errorf("warm MtGv2 Emit + Deliver of known credentials: %v allocations, want 0", allocs)
	}
}
