package mtg

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"

	"github.com/nectar-repro/nectar/internal/graph"
	"github.com/nectar-repro/nectar/internal/ids"
	"github.com/nectar-repro/nectar/internal/rounds"
	"github.com/nectar-repro/nectar/internal/sig"
	"github.com/nectar-repro/nectar/internal/topology"
)

// TestPartnerDependsOnlyOnItsKeys: a pick is a function of (seed, me,
// round) and the degree alone — the same drawn forwards, backwards or
// twice — and a node with one neighbour picks it, one with none nothing.
func TestPartnerDependsOnlyOnItsKeys(t *testing.T) {
	const rounds = 64
	for degree := 2; degree <= 40; degree++ {
		for _, seed := range []int64{0, 1, -7, 1 << 40} {
			me := ids.NodeID(degree * 3)
			fwd := make([]int, rounds)
			for r := range fwd {
				fwd[r] = partner(seed, me, r, degree)
				if fwd[r] < 0 || fwd[r] >= degree {
					t.Fatalf("degree %d: round %d picks position %d", degree, r, fwd[r])
				}
			}
			for r := rounds - 1; r >= 0; r-- {
				if got := partner(seed, me, r, degree); got != fwd[r] {
					t.Fatalf("degree %d seed %d: round %d picks %d drawn backwards, %d forwards", degree, seed, r, got, fwd[r])
				}
			}
		}
	}
	for r := range 10 {
		if got := partner(3, 4, r, 1); got != 0 {
			t.Errorf("one neighbour: round %d picks %d, want 0", r, got)
		}
		if got := partner(3, 4, r, 0); got != -1 {
			t.Errorf("no neighbour: round %d picks %d, want -1", r, got)
		}
	}
}

// TestPartnerIsUniform: over every key a pick draws from — seed, node and
// round — each position of a list of 2–5 neighbours is picked, at counts a
// χ² test (p = 0.001) cannot tell from uniform. A draw that ignores a key,
// or a constant one, fails it.
func TestPartnerIsUniform(t *testing.T) {
	// χ² critical values at p = 0.001 for 1–4 degrees of freedom.
	critical := map[int]float64{2: 10.83, 3: 13.82, 4: 16.27, 5: 18.47}
	const perPosition = 4000
	for degree := 2; degree <= 5; degree++ {
		samples := perPosition * degree
		for key := range 3 { // vary the seed, the node or the round
			counts := make([]int, degree)
			for i := range samples {
				seed, me, round := int64(11), ids.NodeID(5), 9
				switch key {
				case 0:
					seed = int64(i)
				case 1:
					me = ids.NodeID(i)
				case 2:
					round = i
				}
				counts[partner(seed, me, round, degree)]++
			}
			chi2 := 0.0
			for _, c := range counts {
				dev := float64(c - perPosition)
				chi2 += dev * dev / perPosition
			}
			if chi2 > critical[degree] || slices.Contains(counts, 0) {
				t.Errorf("degree %d, key %d: counts %v, χ² = %.1f (critical %.2f)", degree, key, counts, chi2, critical[degree])
			}
		}
	}
}

// refV2 is an MtGv2 node as the reference codec defines it: batches by EncodeBatch over a map of held credentials, and
// deliveries by DecodeBatch followed by the per-entry check.
type refV2 struct {
	cfg   ConfigV2
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
		known: map[ids.NodeID][]byte{cfg.Me: SignID(cfg.Signer)},
		order: []ids.NodeID{cfg.Me},
		sent:  map[ids.NodeID]int{},
	}
}

func (r *refV2) emit(round int) []rounds.Send {
	k := partner(r.cfg.Seed, r.cfg.Me, round, len(r.cfg.Neighbors))
	if k < 0 {
		return nil
	}
	to := r.cfg.Neighbors[k]
	from := r.sent[to]
	if from >= len(r.order) {
		return nil
	}
	var batch []SignedID
	for _, id := range r.order[from:] {
		batch = append(batch, SignedID{ID: id, Sig: r.known[id]})
	}
	r.sent[to] = len(r.order)
	return []rounds.Send{{To: []ids.NodeID{to}, Data: EncodeBatch(batch, r.cfg.Verifier.SigSize())}}
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
					want := refs[i].emit(r)
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
