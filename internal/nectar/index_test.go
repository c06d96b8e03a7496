package nectar

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"github.com/nectar-repro/nectar/internal/graph"
	"github.com/nectar-repro/nectar/internal/ids"
	"github.com/nectar-repro/nectar/internal/rounds"
	"github.com/nectar-repro/nectar/internal/sig"
	"github.com/nectar-repro/nectar/internal/topology"
)

// TestIndexedViewMatchesPlain: a node whose view is reset on the run's edge
// index, as BuildNodes makes it above n = 192, and a twin whose view keeps
// every edge in its table, as a node built without the graph does, take
// the same deliveries — edges of G, edges outside it as a coalition forges
// them, repeats, replays in the wrong round and altered signatures — and
// end with the same stats, relays, view and decision, the two decisions
// taken through one memo.
func TestIndexedViewMatchesPlain(t *testing.T) {
	const n, me = 200, ids.NodeID(2)
	g := topology.Ring(n)
	scheme := sig.NewHMAC(n, 1)
	sigSize := scheme.Verifier().SigSize()
	proofs := BuildProofs(scheme, g)
	x := graph.NewEdgeIndex(g)
	if x == nil {
		t.Fatalf("no edge index at n = %d", n)
	}
	twin := func(index *graph.EdgeIndex) *Node {
		cfg := NodeConfig(g, 1, scheme, proofs, me, 0)
		cfg.index = index
		nd, err := NewNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return nd
	}
	on, plain := twin(x), twin(nil)
	rng := rand.New(rand.NewSource(1))
	// other draws a node outside not.
	other := func(not ...ids.NodeID) ids.NodeID {
		for {
			if v := ids.NodeID(rng.Intn(n)); !slices.Contains(not, v) {
				return v
			}
		}
	}
	var sent [][]byte
	sameSend := func(a, b rounds.Send) bool {
		return slices.Equal(a.Recipients(nil), b.Recipients(nil)) && bytes.Equal(a.Data, b.Data)
	}
	for round := 1; round <= 6; round++ {
		if a, b := on.Emit(round), plain.Emit(round); !slices.EqualFunc(a, b, sameSend) {
			t.Fatalf("round %d: the indexed node emits %d sends, the plain one %d, or other bytes", round, len(a), len(b))
		}
		for range 80 {
			from := []ids.NodeID{1, 3}[rng.Intn(2)]
			var data []byte
			if len(sent) > 0 && rng.Intn(5) == 0 {
				data = sent[rng.Intn(len(sent))] // a repeat, maybe in another round
			} else {
				u := from
				if round > 1 {
					u = other(me, from)
				}
				v := ids.NodeID((int(u) + 1) % n) // an edge of the ring
				if rng.Intn(2) == 0 {
					v = other(me, u, ids.NodeID((int(u)+n-1)%n), v) // one outside it
				}
				relayers := []ids.NodeID{}
				for len(relayers) < round-2 {
					relayers = append(relayers, other(append([]ids.NodeID{me, u, from}, relayers...)...))
				}
				if round > 1 {
					relayers = append(relayers, from)
				}
				data = chainMsg(scheme, u, v, relayers...).Encode(sigSize)
				if rng.Intn(8) == 0 {
					data[len(data)-1-rng.Intn(sigSize)] ^= 0x40 // the last hop's signature
				}
				sent = append(sent, data)
			}
			on.Deliver(round, from, data)
			plain.Deliver(round, from, data)
		}
	}
	if a, b := on.Stats(), plain.Stats(); a != b || a.Rejected == 0 || a.Duplicates == 0 {
		t.Fatalf("stats differ, or a kind of delivery never happened: indexed %+v, plain %+v", a, b)
	}
	view := on.View()
	if !view.Equal(plain.View()) {
		t.Fatalf("views differ:\nindexed %v\nplain   %v", view.Edges(), plain.View().Edges())
	}
	if fakes := slices.IndexFunc(view.Edges(), func(e graph.Edge) bool { return !g.HasEdge(e.U, e.V) }); fakes < 0 {
		t.Fatal("no edge outside G was accepted: the view's table went untested")
	}
	c := NewDecideCache()
	if a, b := on.DecideShared(c), plain.DecideShared(c); a != b || c.Hits() != 1 {
		t.Fatalf("the indexed node decides %+v, the plain one %+v, with %d memo hits, want 1", a, b, c.Hits())
	}
}
