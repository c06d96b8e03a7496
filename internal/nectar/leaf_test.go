package nectar

// A relay exists only for a recipient (Alg. 1 l. 11: Γ(i) \ {k}). These
// tests pin the exact condition (the sender is the node's only neighbor,
// not "the node has degree one"), what a node then skips (the signature,
// the retained bytes, the send), what it keeps (the silent round Quiescent
// reports), and the free lists that keep leaves' small scratches away from
// relaying nodes.

import (
	"runtime/debug"
	"slices"
	"sync/atomic"
	"testing"

	"github.com/nectar-repro/nectar/internal/graph"
	"github.com/nectar-repro/nectar/internal/ids"
	"github.com/nectar-repro/nectar/internal/rounds"
	"github.com/nectar-repro/nectar/internal/sig"
	"github.com/nectar-repro/nectar/internal/topology"
)

// appendCounter counts every signature its node makes, through either form.
type appendCounter struct {
	sig.Signer
	calls *atomic.Int64
}

func (s appendCounter) Sign(msg []byte) []byte {
	s.calls.Add(1)
	return s.Signer.Sign(msg)
}

func (s appendCounter) AppendSign(dst, msg []byte) []byte {
	s.calls.Add(1)
	return s.Signer.(sig.AppendSigner).AppendSign(dst, msg)
}

// countedTree builds a correct cluster on KaryTree(3, 13) — root 0, inner
// nodes 1–3, leaves 4–12 — whose nodes sign through appendCounters.
func countedTree(t *testing.T) (*graph.Graph, []*Node, []atomic.Int64) {
	t.Helper()
	g, err := topology.KaryTree(3, 13)
	if err != nil {
		t.Fatal(err)
	}
	calls := make([]atomic.Int64, g.N())
	count := func(c *Config) { c.Signer = appendCounter{c.Signer, &calls[c.Me]} }
	nodes, err := BuildNodes(g, 1, sig.NewHMAC(g.N(), 9), 0, count)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := nodes[0].signer.(appendCounter); !ok {
		t.Fatal("fixture broken: the node did not take the counter's append form")
	}
	return g, nodes, calls
}

// TestLeafSignsNothingAfterRoundOne: a node whose only neighbor delivered
// every edge it learns signs its round-1 announcement and nothing after,
// holds no relay bytes, and emits no send — while accepting every edge of
// the tree. A node with another neighbor signs one relay per accept.
func TestLeafSignsNothingAfterRoundOne(t *testing.T) {
	g, nodes, calls := countedTree(t)
	round1 := make([]int64, len(nodes))
	for r := 1; r < g.N(); r++ {
		outs := make([][]rounds.Send, len(nodes))
		for i, nd := range nodes {
			outs[i] = nd.Emit(r)
			if r == 1 {
				round1[i] = calls[i].Load()
			} else if g.Degree(nd.ID()) == 1 && len(outs[i]) != 0 {
				t.Errorf("round %d: leaf %d emitted %d sends", r, i, len(outs[i]))
			}
		}
		for i, out := range outs {
			for _, s := range out {
				for _, to := range s.Recipients(nil) {
					nodes[to].Deliver(r, ids.NodeID(i), s.Data)
				}
			}
		}
		for i, nd := range nodes {
			if g.Degree(nd.ID()) == 1 && len(nd.queue)+len(nd.arenaRaw) != 0 {
				t.Errorf("round %d: leaf %d holds %d relays in %d arena bytes", r, i, len(nd.queue), len(nd.arenaRaw))
			}
		}
	}
	for i := range nodes {
		if round1[i] != int64(g.Degree(ids.NodeID(i))) {
			t.Fatalf("node %d: %d signatures in round 1, want one per incident edge (%d)", i, round1[i], g.Degree(ids.NodeID(i)))
		}
	}
	for i, nd := range nodes {
		st, after := nd.Stats(), calls[i].Load()-round1[i]
		if !nd.View().Equal(g) {
			t.Errorf("node %d: view %v is not the tree", i, nd.View())
		}
		want := int64(st.Accepted)
		if g.Degree(nd.ID()) == 1 {
			want = 0
		}
		if st.Accepted == 0 || after != want {
			t.Errorf("node %d (degree %d): %d signatures after round 1 for %d accepts, want %d",
				i, g.Degree(nd.ID()), after, st.Accepted, want)
		}
	}
}

// TestQuiescentForExactlyTheRoundAfterEachAccept: on every node, leaf or
// not, Quiescent is false before the announcement and, after each round's
// deliveries, false exactly when that round accepted an edge — a leaf's
// accept keeps it active for its relay round although that round is
// silent, so the engine stops where it always did.
func TestQuiescentForExactlyTheRoundAfterEachAccept(t *testing.T) {
	g, nodes, _ := countedTree(t)
	for i, nd := range nodes {
		if nd.Quiescent() {
			t.Fatalf("node %d quiescent before its announcement", i)
		}
	}
	prev := make([]int, len(nodes))
	leafActive := 0
	for r := 1; r < g.N(); r++ {
		lockstep(g, nodes, r, r)
		for i, nd := range nodes {
			accepted := nd.Stats().Accepted - prev[i]
			prev[i] += accepted
			if nd.Quiescent() != (accepted == 0) {
				t.Errorf("round %d: node %d accepted %d edges, Quiescent = %v", r, i, accepted, nd.Quiescent())
			}
			if accepted > 0 && g.Degree(nd.ID()) == 1 {
				leafActive++
			}
		}
	}
	if leafActive == 0 {
		t.Fatal("fixture broken: no leaf accepted anything")
	}
}

// TestDegreeOneNodeRelaysForAStranger: the condition is Γ(i) \ {from} = ∅,
// not degree one. A degree-one node handed a valid message by a node that
// is not its neighbor relays it, signed, to its neighbor.
func TestDegreeOneNodeRelaysForAStranger(t *testing.T) {
	scheme := sig.NewHMAC(6, 4)
	var calls atomic.Int64
	cfg := Config{
		N: 6, T: 1, Me: 0,
		Neighbors: []ids.NodeID{1},
		Proofs:    []Proof{MakeProof(scheme.SignerFor(0), scheme.SignerFor(1))},
		Signer:    appendCounter{scheme.SignerFor(0), &calls},
		Verifier:  scheme.Verifier(),
	}
	nd, err := NewNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	nd.Emit(1)
	calls.Store(0)
	sigSize := scheme.Verifier().SigSize()
	fromNeighbor := chainMsg(scheme, 2, 3, 1).Encode(sigSize)
	fromStranger := chainMsg(scheme, 4, 5, 2).Encode(sigSize)
	nd.Deliver(2, 1, fromNeighbor)
	nd.Deliver(2, 2, fromStranger)
	if st := nd.Stats(); st.Accepted != 2 || st.Rejected != 0 {
		t.Fatalf("fixture broken: %+v", st)
	}
	sends := nd.Emit(3)
	if len(sends) != 1 || !slices.Equal(sends[0].Recipients(nil), []ids.NodeID{1}) {
		t.Fatalf("emitted %+v, want one relay to neighbor 1", sends)
	}
	if calls.Load() != 1 {
		t.Errorf("%d signatures for one relay", calls.Load())
	}
	m, err := DecodeEdgeMsg(sends[0].Data, sigSize, cfg.N)
	if err != nil {
		t.Fatal(err)
	}
	if m.Proof.Edge != graph.NewEdge(4, 5) || checkMsg(scheme.Verifier(), m, 0, 3) != nil {
		t.Errorf("relay carries %v, or does not check as node 0's round-3 message", m.Proof.Edge)
	}
}

// TestScratchRecyclesByDegree: repeated builds of a double star — centers
// 0 and 1, four leaves each — hand every node a scratch some node of its
// class has grown, so a recycled scratch never regrows during a run; one
// shared list would hand a center a leaf's. A scratch fresh from New (the
// race detector drops some of what a sync.Pool is given) may grow once.
func TestScratchRecyclesByDegree(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection empties the free lists
	withScratchPool(t, func() *nodeScratch { return new(nodeScratch) })
	g := graph.New(10)
	g.AddEdge(0, 1)
	for leaf := 2; leaf < 10; leaf++ {
		g.AddEdge(ids.NodeID(leaf), ids.NodeID(leaf%2))
	}
	type caps struct{ queue, arena, send, enc int }
	capsOf := func(nd *Node) caps {
		return caps{cap(nd.queue), cap(nd.arenaRaw), cap(nd.sendBuf), cap(nd.enc.Bytes())}
	}
	used := map[*nodeScratch]bool{} // scratches some node has run on
	recycled := 0
	for build := 0; build < 6; build++ {
		nodes, err := BuildNodes(g, 1, sig.NewHMAC(g.N(), 2), 0)
		if err != nil {
			t.Fatal(err)
		}
		borrowed := make([]caps, len(nodes))
		for i, nd := range nodes {
			borrowed[i] = capsOf(nd)
		}
		protos := make([]rounds.Protocol, len(nodes))
		for i, nd := range nodes {
			protos[i] = nd
		}
		if _, err := rounds.Run(rounds.Config{Graph: g, Rounds: g.N() - 1, Seed: 3}, protos); err != nil {
			t.Fatal(err)
		}
		for i, nd := range nodes {
			if used[nd.box] {
				recycled++
				if got := capsOf(nd); got != borrowed[i] {
					t.Errorf("build %d: node %d (degree %d) regrew a recycled scratch: %+v -> %+v",
						build, i, g.Degree(nd.ID()), borrowed[i], got)
				}
			}
			used[nd.box] = true
			nd.Decide()
		}
	}
	if recycled == 0 {
		t.Fatal("no scratch was ever recycled")
	}
}
