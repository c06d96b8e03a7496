package rounds_test

import (
	"bytes"
	"slices"
	"testing"

	"github.com/nectar-repro/nectar/internal/adversary"
	"github.com/nectar-repro/nectar/internal/graph"
	"github.com/nectar-repro/nectar/internal/ids"
	"github.com/nectar-repro/nectar/internal/nectar"
	"github.com/nectar-repro/nectar/internal/rounds"
	"github.com/nectar-repro/nectar/internal/sig"
	"github.com/nectar-repro/nectar/internal/topology"
)

// script is a node that sends the same outbox every round.
type script []rounds.Send

func (s script) Emit(int) []rounds.Send        { return s }
func (script) Deliver(int, ids.NodeID, []byte) {}

// tap records a copy of every payload its inner node sends, once per Send.
type tap struct {
	rounds.Protocol
	sent [][]byte
}

func (t *tap) Emit(round int) []rounds.Send {
	out := t.Protocol.Emit(round)
	for _, s := range out {
		t.sent = append(t.sent, slices.Clone(s.Data))
	}
	return out
}

// run is an engine run to meter: a graph, its stacks and a horizon.
type run struct {
	g      *graph.Graph
	protos []rounds.Protocol
	rounds int
}

// TestBroadcastAccountingIsBySend pins what BytesBroadcast charges once:
// one Send with at least one listing on a channel (rounds.Protocol).
// Neither content nor buffer identity plays a part.
func TestBroadcastAccountingIsBySend(t *testing.T) {
	cost := func(p []byte) int64 { return int64(len(p) + rounds.DefaultMsgOverhead) }
	a, b := []byte("payload"), []byte("payload")
	empty := make([]byte, 0, 8)
	to := func(p []byte, ids ...ids.NodeID) rounds.Send { return rounds.Send{To: ids, Data: p} }
	// star runs the scripts on a star, centre 0 and leaves 1..3, for two
	// rounds: every row's charge is made once per round.
	star := func(scripts ...script) run {
		protos := make([]rounds.Protocol, 4)
		for i := range protos {
			protos[i] = script(nil)
			if i < len(scripts) {
				protos[i] = scripts[i]
			}
		}
		return run{topology.Star(4), protos, 2}
	}
	fake, fakeTap, fakeCost := fakeEdgesOnRealEdge(t)
	rows := []struct {
		name string
		run
		want []int64 // BytesBroadcast per node over the run
	}{
		{"one Send to three recipients is charged once",
			star(script{to(a, 1, 2, 3)}),
			[]int64{2 * cost(a), 0, 0, 0}},
		{"two Sends of one buffer are charged twice",
			star(script{to(a, 1, 2), to(a, 3)}),
			[]int64{2 * 2 * cost(a), 0, 0, 0}},
		{"equal bytes in two Sends are charged twice",
			star(script{to(a, 1), to(b, 2)}),
			[]int64{2 * (cost(a) + cost(b)), 0, 0, 0}},
		{"an empty payload to three recipients is charged once",
			star(script{to(empty, 1, 2, 3)}),
			[]int64{2 * cost(empty), 0, 0, 0}},
		{"a listing without a channel is not charged", // the self-send is unmetered
			star(script{to(a, 1, 0, 2), to(b, 0)}),
			[]int64{2 * cost(a), 0, 0, 0}},
		{"a Send whose only listing is skipped is not charged",
			star(script{{To: []ids.NodeID{1}, Skip: 1, Data: a}}),
			[]int64{0, 0, 0, 0}},
		{"each sender is charged for its own Sends of a shared buffer",
			star(script{to(a, 1)}, script{to(a, 0)}),
			[]int64{2 * cost(a), 2 * cost(a), 0, 0}},
		{"a fakeedges node re-announcing a real edge is charged twice",
			fake,
			[]int64{3 * fakeCost, 2 * fakeCost, 2 * fakeCost, 2 * fakeCost}},
	}
	for _, row := range rows {
		m, err := rounds.Run(rounds.Config{Graph: row.g, Rounds: row.rounds, Seed: 1}, row.protos)
		if err != nil {
			t.Fatalf("%s: %v", row.name, err)
		}
		if !slices.Equal(m.BytesBroadcast, row.want) {
			t.Errorf("%s: BytesBroadcast %v, want %v", row.name, m.BytesBroadcast, row.want)
		}
	}

	// The fakeedges row charges a repeat only if it is one: the forged
	// announcement's bytes equal the inner node's own of the same edge.
	if sent := fakeTap.sent; len(sent) != 3 || !bytes.Equal(sent[2], sent[0]) {
		t.Errorf("the forged announcement is not a byte-for-byte repeat of the real one")
	}
}

// fakeEdgesOnRealEdge builds a one-round run on a ring of four in which
// node 0 forges an announcement of its real edge to node 1: it sends its
// two own announcements to both neighbors, then the forgery — a third
// Send with the first one's bytes. It returns the run, the tap on node
// 0, and what one round-1 announcement costs.
func fakeEdgesOnRealEdge(t *testing.T) (run, *tap, int64) {
	t.Helper()
	g := topology.Ring(4)
	scheme := sig.NewHMAC(4, 1)
	nodes, err := nectar.BuildNodes(g, 1, scheme, 0)
	if err != nil {
		t.Fatal(err)
	}
	protos := make([]rounds.Protocol, len(nodes))
	for i, nd := range nodes {
		protos[i] = nd
	}
	sigSize := scheme.Verifier().SigSize()
	fake := &tap{Protocol: adversary.NewNectarFakeEdges(nodes[0], scheme.SignerFor(0),
		[]sig.Signer{scheme.SignerFor(1)}, sigSize, g.Neighbors(0))}
	protos[0] = fake
	return run{g, protos, 1}, fake, int64(nectar.MsgWireSize(sigSize, 1) + rounds.DefaultMsgOverhead)
}
