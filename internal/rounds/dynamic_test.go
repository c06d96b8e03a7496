package rounds

import (
	"reflect"
	"sort"
	"testing"

	"github.com/nectar-repro/nectar/internal/graph"
	"github.com/nectar-repro/nectar/internal/ids"
)

// phasedTopology is a test TopologyProvider: a piecewise-constant graph
// keyed by the first round each phase takes effect (round 1 required).
type phasedTopology struct {
	phases map[int]*graph.Graph
}

func (p *phasedTopology) GraphFor(round int) *graph.Graph {
	best := 0
	for r := range p.phases {
		if r <= round && r > best {
			best = r
		}
	}
	return p.phases[best]
}

func (p *phasedTopology) NextChange(after int) int {
	rounds := make([]int, 0, len(p.phases))
	for r := range p.phases {
		rounds = append(rounds, r)
	}
	sort.Ints(rounds)
	for _, r := range rounds {
		if r > after {
			return r
		}
	}
	return 0
}

// beaconNode sends one byte to every node every round, itself included;
// the engine's edge filter decides what arrives, so per-round delivery
// counts trace the live adjacency.
type beaconNode struct {
	id      ids.NodeID
	n       int
	byRound map[int]int // round -> messages delivered to this node
}

func (b *beaconNode) Emit(round int) []Send {
	all := make([]ids.NodeID, b.n)
	for i := range all {
		all[i] = ids.NodeID(i)
	}
	return []Send{{To: all, Skip: int(b.id) + 1, Data: []byte{1}}}
}

func (b *beaconNode) Deliver(round int, from ids.NodeID, data []byte) {
	if b.byRound == nil {
		b.byRound = map[int]int{}
	}
	b.byRound[round]++
}

func TestTopologyProviderSwapsAdjacencyAtRoundBoundary(t *testing.T) {
	// Rounds 1-2: line 0-1 (node 2 isolated). Rounds 3-4: line 1-2
	// (node 0 isolated).
	g1 := graph.FromEdges(3, []graph.Edge{graph.NewEdge(0, 1)})
	g2 := graph.FromEdges(3, []graph.Edge{graph.NewEdge(1, 2)})
	provider := &phasedTopology{phases: map[int]*graph.Graph{1: g1, 3: g2}}

	nodes := make([]*beaconNode, 3)
	protos := make([]Protocol, 3)
	for i := range nodes {
		nodes[i] = &beaconNode{id: ids.NodeID(i), n: 3}
		protos[i] = nodes[i]
	}
	m, err := Run(Config{Topology: provider, Rounds: 4, Seed: 7}, protos)
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r <= 2; r++ {
		if nodes[0].byRound[r] != 1 || nodes[1].byRound[r] != 1 || nodes[2].byRound[r] != 0 {
			t.Errorf("round %d: deliveries (%d,%d,%d), want (1,1,0)",
				r, nodes[0].byRound[r], nodes[1].byRound[r], nodes[2].byRound[r])
		}
	}
	for r := 3; r <= 4; r++ {
		if nodes[0].byRound[r] != 0 || nodes[1].byRound[r] != 1 || nodes[2].byRound[r] != 1 {
			t.Errorf("round %d: deliveries (%d,%d,%d), want (0,1,1)",
				r, nodes[0].byRound[r], nodes[1].byRound[r], nodes[2].byRound[r])
		}
	}
	// 3 nodes x 2 attempted sends x 4 rounds, one live edge (2 directed
	// sends) per round.
	if m.DroppedNonEdge != int64(3*2*4-2*4) {
		t.Errorf("DroppedNonEdge = %d, want %d", m.DroppedNonEdge, 3*2*4-2*4)
	}
}

// wakingNode announces once at round 1, then goes quiescent; a topology
// swap re-queues the announcement (the TopologyAware wake path).
type wakingNode struct {
	id    ids.NodeID
	nbrs  []ids.NodeID
	queue int
	got   []int // rounds at which something was delivered
}

func (w *wakingNode) Emit(round int) []Send {
	if round == 1 {
		w.queue++
	}
	if w.queue == 0 {
		return nil
	}
	w.queue--
	return []Send{{To: w.nbrs, Data: []byte("hello")}}
}

func (w *wakingNode) Deliver(round int, from ids.NodeID, data []byte) {
	w.got = append(w.got, round)
}

func (w *wakingNode) Quiescent() bool { return w.queue == 0 }

func (w *wakingNode) OnTopology(round int, neighbors []ids.NodeID) {
	w.nbrs = append(w.nbrs[:0], neighbors...)
	w.queue++
}

func TestTopologyChangeReArmsQuiescenceAndWakesNodes(t *testing.T) {
	// Ring of 4 throughout; the round-10 "change" rewires 0-1,2-3 into
	// 0-2,1-3 (same degree, different edges). All nodes quiesce after
	// round 1, so without re-arming the engine would exit long before
	// round 10 and the wake announcements would never happen.
	g1 := graph.FromEdges(4, []graph.Edge{graph.NewEdge(0, 1), graph.NewEdge(2, 3)})
	g2 := graph.FromEdges(4, []graph.Edge{graph.NewEdge(0, 2), graph.NewEdge(1, 3)})
	run := func(fullHorizon bool) ([]*wakingNode, *Metrics) {
		provider := &phasedTopology{phases: map[int]*graph.Graph{1: g1, 10: g2}}
		nodes := make([]*wakingNode, 4)
		protos := make([]Protocol, 4)
		for i := range nodes {
			nodes[i] = &wakingNode{id: ids.NodeID(i)}
			nodes[i].nbrs = append(nodes[i].nbrs, g1.Neighbors(ids.NodeID(i))...)
			protos[i] = nodes[i]
		}
		m, err := Run(Config{Topology: provider, Rounds: 30, Seed: 1, FullHorizon: fullHorizon}, protos)
		if err != nil {
			t.Fatal(err)
		}
		return nodes, m
	}
	nodes, m := run(false)
	// Executed rounds: 1 (announce + drain, all quiescent -> jump to the
	// round-10 change) and 10 (wake announce + drain, quiescent again, no
	// further change -> exit). Everything else is fast-forwarded.
	if m.ActiveRounds != 2 {
		t.Errorf("ActiveRounds = %d, want 2 (fast-forward to the change)", m.ActiveRounds)
	}
	if m.Rounds != 30 {
		t.Errorf("Rounds = %d, want 30", m.Rounds)
	}
	for i, nd := range nodes {
		want := []int{1, 10}
		if !reflect.DeepEqual(nd.got, want) {
			t.Errorf("node %d delivered at rounds %v, want %v", i, nd.got, want)
		}
	}

	// The fast-forward is a pure wall-clock optimization: running all 30
	// rounds delivers and meters exactly the same.
	refNodes, ref := run(true)
	if ref.ActiveRounds != 30 {
		t.Errorf("full horizon: ActiveRounds = %d, want 30", ref.ActiveRounds)
	}
	for i := range nodes {
		if !reflect.DeepEqual(nodes[i].got, refNodes[i].got) {
			t.Errorf("node %d delivered at rounds %v, full horizon %v", i, nodes[i].got, refNodes[i].got)
		}
	}
	for _, f := range []struct {
		name      string
		got, want []int64
	}{
		{"BytesSent", m.BytesSent, ref.BytesSent},
		{"MsgsSent", m.MsgsSent, ref.MsgsSent},
		{"MsgsDelivered", m.MsgsDelivered, ref.MsgsDelivered},
	} {
		if !reflect.DeepEqual(f.got, f.want) {
			t.Errorf("%s = %v, full horizon %v", f.name, f.got, f.want)
		}
	}
}

func TestStaticTopologyProviderMatchesGraphConfig(t *testing.T) {
	g := graph.FromEdges(5, []graph.Edge{
		graph.NewEdge(0, 1), graph.NewEdge(1, 2), graph.NewEdge(2, 3),
		graph.NewEdge(3, 4), graph.NewEdge(4, 0),
	})
	run := func(cfg Config) *Metrics {
		nodes := make([]Protocol, g.N())
		for i := range nodes {
			nodes[i] = quiescentFlood{newFloodNode(ids.NodeID(i), g, "x")}
		}
		m, err := Run(cfg, nodes)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	static := run(Config{Graph: g, Rounds: 10, Seed: 3})
	dynamic := run(Config{Topology: &phasedTopology{phases: map[int]*graph.Graph{1: g}}, Rounds: 10, Seed: 3})
	if !reflect.DeepEqual(static, dynamic) {
		t.Errorf("metrics diverge:\nstatic  %+v\ndynamic %+v", static, dynamic)
	}
}

// TestBadTopologySwapFails: a provider that breaks its contract mid-run —
// a nil graph, or one over another vertex count — fails the run with an
// error at the swap round, instead of the pull indexing past its lists.
func TestBadTopologySwapFails(t *testing.T) {
	g := graph.FromEdges(3, []graph.Edge{graph.NewEdge(0, 1), graph.NewEdge(1, 2)})
	bigger := graph.FromEdges(4, []graph.Edge{graph.NewEdge(0, 3), graph.NewEdge(1, 2)})
	smaller := graph.FromEdges(2, []graph.Edge{graph.NewEdge(0, 1)})
	for name, bad := range map[string]*graph.Graph{"nil": nil, "bigger": bigger, "smaller": smaller} {
		provider := &phasedTopology{phases: map[int]*graph.Graph{1: g, 3: bad}}
		protos := make([]Protocol, 3)
		for i := range protos {
			protos[i] = &beaconNode{id: ids.NodeID(i), n: 4}
		}
		m, err := Run(Config{Topology: provider, Rounds: 5, Seed: 1}, protos)
		if err == nil || m != nil {
			t.Errorf("%s: swapping in a bad graph at round 3 gave %+v, %v; want an error", name, m, err)
		}
		if got := protos[0].(*beaconNode).byRound; got[3] != 0 || got[2] == 0 {
			t.Errorf("%s: deliveries by round %v, want rounds 1-2 only", name, got)
		}
	}
}
