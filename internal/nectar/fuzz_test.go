package nectar

import (
	"bytes"
	"slices"
	"testing"

	"github.com/nectar-repro/nectar/internal/graph"
	"github.com/nectar-repro/nectar/internal/ids"
	"github.com/nectar-repro/nectar/internal/obs"
	"github.com/nectar-repro/nectar/internal/rounds"
	"github.com/nectar-repro/nectar/internal/sig"
	"github.com/nectar-repro/nectar/internal/topology"
)

// FuzzDecodeEdgeMsg feeds arbitrary bytes into the message decoder and —
// when decoding succeeds — into the full acceptance pipeline of a live
// node. Nothing may panic, and no fuzz-crafted message may ever insert an
// unverified edge into the view.
func FuzzDecodeEdgeMsg(f *testing.F) {
	scheme := sig.NewHMAC(6, 1)
	v := scheme.Verifier()
	// Seed with a valid message and a few structured mutations.
	valid := chainMsg(scheme, 0, 1, 2).Encode(v.SigSize())
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add(append([]byte(nil), valid[4:]...))
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 0})

	g := topology.Ring(6)
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := DecodeEdgeMsg(data, v.SigSize(), 6); err != nil {
			return // malformed input must simply error, never panic
		}
		// Decoded fine: run it through a node's Deliver across rounds.
		nodes, err := BuildNodes(g, 1, scheme, 0)
		if err != nil {
			t.Fatal(err)
		}
		nd := nodes[2] // neighbors 1 and 3
		for round := 1; round <= 3; round++ {
			nd.Deliver(round, 1, data)
		}
		// The only way fuzz input may add an edge beyond node 2's own
		// neighborhood is by forging valid HMAC chains — a cryptographic
		// finding; flag it.
		for _, e := range nd.View().Edges() {
			if e.U != 2 && e.V != 2 {
				t.Fatalf("fuzz input inserted edge %v into the view", e)
			}
		}
	})
}

// deliverOp encodes one Deliver call of a FuzzNodeDeliver input: the
// delivering neighbor, the round, and the length-prefixed message bytes.
func deliverOp(from ids.NodeID, round int, data []byte) []byte {
	op := []byte{byte(from), byte(round - 1), byte(len(data) >> 8), byte(len(data))}
	return append(op, data...)
}

// FuzzNodeDeliver is the stateful counterpart of FuzzDecodeEdgeMsg: the
// input is a whole sequence of (from, round, bytes) deliveries, fed to a
// default-mode node and to a paranoid-mode twin (literal Alg. 1 order, the
// reference the lazy header-first path is measured against). Whatever the
// sequence, neither node may panic, both must end with the same view, the
// same acceptance count and the same relay queue, every edge in the view
// must be an initial neighbor edge or one carried by a delivery that passes
// checkMsg on its own, and each node must have rejected exactly the
// deliveries the allocating reference (DecodeEdgeMsg + checkMsg) rejects in
// that node's order of checks — a reject the default node makes with the
// twin's trace label and hop count. Rounds are drawn from 1..n, the range
// the engine calls Deliver with.
func FuzzNodeDeliver(f *testing.F) {
	const n, me = 6, ids.NodeID(2) // ring: node 2 hears from 1 and 3
	g := topology.Ring(n)
	scheme := sig.NewHMAC(n, 1)
	v := scheme.Verifier()
	sigSize := v.SigSize()
	proofs := BuildProofs(scheme, g)
	newTwin := func(t testing.TB, paranoid bool) *Node {
		nd, err := NewNode(Config{
			N: n, T: 1, Me: me,
			Neighbors:      append([]ids.NodeID(nil), g.Neighbors(me)...),
			Proofs:         NeighborProofs(proofs, g, me),
			Signer:         scheme.SignerFor(me),
			Verifier:       v,
			paranoidVerify: paranoid,
		})
		if err != nil {
			t.Fatal(err)
		}
		return nd
	}

	// A valid three-round flood as node 2 would see it, then the ways a
	// hostile neighbor can bend it.
	r1 := chainMsg(scheme, 1, 0).Encode(sigSize)       // 1 announces {0,1}
	r1b := chainMsg(scheme, 3, 4).Encode(sigSize)      // 3 announces {3,4}
	r2 := chainMsg(scheme, 0, 5, 1).Encode(sigSize)    // 1 relays {0,5}
	r3 := chainMsg(scheme, 5, 4, 4, 3).Encode(sigSize) // 3 relays {4,5}
	valid := slices.Concat(deliverOp(1, 1, r1), deliverOp(3, 1, r1b), deliverOp(1, 2, r2), deliverOp(3, 3, r3))
	f.Add(valid)
	f.Add(slices.Concat(deliverOp(1, 1, r1[:len(r1)-3]), deliverOp(1, 2, r2[:9]), deliverOp(3, 3, r3[:len(r3)-sigSize])))
	flipped := slices.Clone(r2)
	flipped[len(flipped)-1] ^= 0x01 // last chain signature
	badProof := slices.Clone(r3)
	badProof[8] ^= 0x80 // first proof signature
	f.Add(slices.Concat(deliverOp(1, 2, flipped), deliverOp(3, 3, badProof), deliverOp(1, 2, r2)))
	// Replays: the same bytes twice, in a later round, from the other
	// neighbor, and a known edge with a mangled tail (a duplicate to the
	// default node, a reject to the paranoid one).
	mangled := slices.Clone(r1)
	mangled[len(mangled)-1] ^= 0xFF
	f.Add(slices.Concat(valid, deliverOp(1, 1, r1), deliverOp(1, 2, r1), deliverOp(3, 2, r2), deliverOp(1, 1, mangled)))
	f.Add(valid[:len(valid)-7]) // stream cut inside the last op
	f.Add([]byte{})
	// Shorter than a proof, with endpoints out of order: the reference
	// rejects it as truncated before it reads them.
	f.Add(deliverOp(1, 1, append([]byte{0, 0, 0, 7, 0, 0, 0, 4}, make([]byte, 12)...)))

	// run delivers the sequence to both twins, checks the invariants, and
	// returns how many messages were accepted.
	run := func(t testing.TB, in []byte) int {
		def, par := newTwin(t, false), newTwin(t, true)
		defer def.Release()
		defer par.Release()
		def.TraceEvidence(true)
		par.TraceEvidence(true)
		justified := graph.New(n) // the edges the view may hold
		for _, nb := range g.Neighbors(me) {
			justified.AddEdge(me, nb)
		}
		defRejects, parRejects := 0, 0 // what the reference rejects, in each order
		for len(in) >= 4 {
			from, round := ids.NodeID(in[0]%n), 1+int(in[1]%n)
			size := min(int(in[2])<<8|int(in[3]), len(in)-4)
			data := in[4 : 4+size]
			in = in[4+size:]
			m, err := DecodeEdgeMsg(data, sigSize, n)
			valid := err == nil && checkMsg(v, m, from, round) == nil
			if !valid {
				parRejects++
				// Header first: a known edge is a duplicate whatever follows it.
				if e, err := DecodeEdgeHeader(data, n); err != nil || !justified.HasEdge(e.U, e.V) {
					defRejects++
				}
			} else {
				justified.AddEdge(m.Proof.Edge.U, m.Proof.Edge.V)
			}
			def.Deliver(round, from, data)
			par.Deliver(round, from, data)
			if d, p := lastReject(def), lastReject(par); d != nil && (p == nil || d.Key != p.Key || d.N != p.N) {
				t.Fatalf("default rejected a delivery as %s (%d hops), paranoid as %+v", d.Key, d.N, p)
			}
		}
		if d, p := def.Stats().Rejected, par.Stats().Rejected; d != defRejects || p != parRejects {
			t.Fatalf("default rejected %d and paranoid %d, the reference %d and %d", d, p, defRejects, parRejects)
		}
		view := def.View()
		if !view.Equal(par.View()) {
			t.Fatalf("views differ:\ndefault  %v\nparanoid %v", view.Edges(), par.View().Edges())
		}
		if d, p := def.Stats().Accepted, par.Stats().Accepted; d != p {
			t.Fatalf("default accepted %d, paranoid %d", d, p)
		}
		for _, e := range view.Edges() {
			if !justified.HasEdge(e.U, e.V) {
				t.Fatalf("edge %v in the view, but no delivery carrying it passes checkMsg", e)
			}
		}
		sameSend := func(a, b rounds.Send) bool {
			return slices.Equal(a.Recipients(nil), b.Recipients(nil)) && bytes.Equal(a.Data, b.Data)
		}
		if d, p := def.Emit(2), par.Emit(2); !slices.EqualFunc(d, p, sameSend) {
			t.Fatalf("relay queues differ: default emits %d sends, paranoid %d", len(d), len(p))
		}
		return def.Stats().Accepted
	}
	if got := run(f, valid); got != 4 {
		f.Fatalf("the valid seed flood had %d of its 4 messages accepted", got)
	}
	f.Fuzz(func(t *testing.T, in []byte) { run(t, in) })
}

// lastReject drains nd's buffered evidence and returns the last
// chain_reject event in it, or nil.
func lastReject(nd *Node) *obs.Event {
	var rej *obs.Event
	nd.DrainEvidence(func(ev obs.Event) {
		if ev.Type == obs.EvChainReject {
			rej = &ev
		}
	})
	return rej
}
