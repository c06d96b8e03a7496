package rounds

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/nectar-repro/nectar/internal/graph"
	"github.com/nectar-repro/nectar/internal/ids"
	"github.com/nectar-repro/nectar/internal/obs"
	"github.com/nectar-repro/nectar/internal/topology"
)

// floodNode relays every first-seen byte string to all neighbors, tagging
// received payloads for order-independent inspection.
type floodNode struct {
	id       ids.NodeID
	g        *graph.Graph
	seen     map[string]bool
	pending  []string
	received []string
}

func newFloodNode(id ids.NodeID, g *graph.Graph, initial string) *floodNode {
	n := &floodNode{id: id, g: g, seen: map[string]bool{initial: true}}
	n.pending = []string{initial}
	return n
}

func (n *floodNode) Emit(round int) []Send {
	var out []Send
	for _, p := range n.pending {
		out = append(out, Send{To: n.g.Neighbors(n.id), Data: []byte(p)})
	}
	n.pending = nil
	return out
}

func (n *floodNode) Deliver(round int, from ids.NodeID, data []byte) {
	s := string(data)
	n.received = append(n.received, s)
	if !n.seen[s] {
		n.seen[s] = true
		n.pending = append(n.pending, s)
	}
}

func runFlood(t *testing.T, g *graph.Graph, cfg Config) ([]*floodNode, *Metrics) {
	t.Helper()
	nodes := make([]*floodNode, g.N())
	protos := make([]Protocol, g.N())
	for i := range nodes {
		nodes[i] = newFloodNode(ids.NodeID(i), g, fmt.Sprintf("origin-%d", i))
		protos[i] = nodes[i]
	}
	cfg.Graph = g
	m, err := Run(cfg, protos)
	if err != nil {
		t.Fatal(err)
	}
	return nodes, m
}

func TestFloodReachesEveryoneOnConnectedGraph(t *testing.T) {
	g := topology.Ring(8)
	nodes, m := runFlood(t, g, Config{Rounds: 8, Seed: 1})
	for i, n := range nodes {
		if len(n.seen) != 8 {
			t.Errorf("node %d saw %d origins, want 8", i, len(n.seen))
		}
	}
	if m.Rounds != 8 {
		t.Errorf("Rounds = %d", m.Rounds)
	}
	if m.DroppedNonEdge != 0 {
		t.Errorf("DroppedNonEdge = %d", m.DroppedNonEdge)
	}
}

func TestFloodRespectsPartition(t *testing.T) {
	g := graph.New(4)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	nodes, _ := runFlood(t, g, Config{Rounds: 5, Seed: 1})
	if nodes[0].seen["origin-2"] || nodes[3].seen["origin-1"] {
		t.Error("message crossed a partition")
	}
	if !nodes[0].seen["origin-1"] || !nodes[3].seen["origin-2"] {
		t.Error("message did not cross an existing edge")
	}
}

// rogueNode tries to send where no channel exists.
type rogueNode struct{ target ids.NodeID }

func (r *rogueNode) Emit(round int) []Send {
	return []Send{{To: []ids.NodeID{r.target}, Data: []byte("x")}}
}
func (r *rogueNode) Deliver(int, ids.NodeID, []byte) {}

// silentNode neither sends nor records.
type silentNode struct{ got int }

func (s *silentNode) Emit(int) []Send                 { return nil }
func (s *silentNode) Deliver(int, ids.NodeID, []byte) { s.got++ }

func TestNonEdgeSendsAreDropped(t *testing.T) {
	// 0-1 edge only; node 0 targets unreachable node 2 and itself.
	g := graph.New(3)
	g.AddEdge(0, 1)
	sink := &silentNode{}
	self := &rogueNode{target: 0}
	far := &silentNode{}
	m, err := Run(Config{Graph: g, Rounds: 2, Seed: 9}, []Protocol{self, sink, far})
	if err != nil {
		t.Fatal(err)
	}
	if m.DroppedNonEdge != 2 { // one self-send per round
		t.Errorf("DroppedNonEdge = %d, want 2", m.DroppedNonEdge)
	}
	if far.got != 0 {
		t.Errorf("non-neighbor received %d messages", far.got)
	}
	if !slices.Equal(m.BytesSent, []int64{0, 0, 0}) {
		t.Errorf("dropped sends were metered: %v", m.BytesSent)
	}
}

func TestMeteringCountsPayloadPlusOverhead(t *testing.T) {
	g := graph.New(2)
	g.AddEdge(0, 1)
	talk := &rogueNode{target: 1} // one 1-byte message per round
	sink := &silentNode{}
	m, err := Run(Config{Graph: g, Rounds: 3, Seed: 0}, []Protocol{talk, sink})
	if err != nil {
		t.Fatal(err)
	}
	wantPer := int64(1 + DefaultMsgOverhead)
	if m.BytesSent[0] != 3*wantPer || m.BytesBroadcast[0] != 3*wantPer {
		t.Errorf("BytesSent[0] = %d, BytesBroadcast[0] = %d, want %d", m.BytesSent[0], m.BytesBroadcast[0], 3*wantPer)
	}
	if m.MsgsSent[0] != 3 || m.MsgsDelivered[1] != 3 {
		t.Errorf("MsgsSent=%v MsgsDelivered=%v", m.MsgsSent, m.MsgsDelivered)
	}
	if m.BytesSent[1] != 0 {
		t.Errorf("silent node metered: %d", m.BytesSent[1])
	}
}

// TestCustomOverhead pins the one overhead every transport shares: a single
// 1-byte message costs its payload plus DefaultMsgOverhead, no more.
func TestCustomOverhead(t *testing.T) {
	g := graph.New(2)
	g.AddEdge(0, 1)
	m, err := Run(Config{Graph: g, Rounds: 1, Seed: 0},
		[]Protocol{&rogueNode{target: 1}, &silentNode{}})
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(1 + DefaultMsgOverhead); m.BytesSent[0] != want {
		t.Errorf("BytesSent[0] = %d, want %d", m.BytesSent[0], want)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	g := topology.Complete(9)
	run := func(workers int) ([][]string, *Metrics) {
		nodes, m := runFlood(t, g, Config{Rounds: 4, Seed: 77, Workers: workers})
		recv := make([][]string, len(nodes))
		for i, n := range nodes {
			recv[i] = n.received
		}
		return recv, m
	}
	r1, m1 := run(0)
	r2, m2 := run(0)
	r3, m3 := run(1) // sequential: every phase inline
	if !reflect.DeepEqual(r1, r2) {
		t.Error("two parallel runs with same seed differ")
	}
	if !reflect.DeepEqual(r1, r3) {
		t.Error("parallel and sequential runs differ")
	}
	if !reflect.DeepEqual(m1.BytesSent, m2.BytesSent) || !reflect.DeepEqual(m1.BytesSent, m3.BytesSent) {
		t.Error("metrics differ across equivalent runs")
	}
}

func TestSeedChangesDeliveryOrderOnly(t *testing.T) {
	g := topology.Complete(6)
	nodesA, mA := runFlood(t, g, Config{Rounds: 3, Seed: 1})
	nodesB, mB := runFlood(t, g, Config{Rounds: 3, Seed: 2})
	if !reflect.DeepEqual(mA.BytesSent, mB.BytesSent) {
		t.Error("seed changed traffic, should only change delivery order")
	}
	// Same multiset of received messages per node.
	for i := range nodesA {
		ca := map[string]int{}
		cb := map[string]int{}
		for _, s := range nodesA[i].received {
			ca[s]++
		}
		for _, s := range nodesB[i].received {
			cb[s]++
		}
		if !reflect.DeepEqual(ca, cb) {
			t.Fatalf("node %d received different multisets across seeds", i)
		}
	}
}

func TestRunValidation(t *testing.T) {
	g := graph.New(2)
	if _, err := Run(Config{Rounds: 1}, nil); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := Run(Config{Graph: g, Rounds: 1}, []Protocol{&silentNode{}}); err == nil {
		t.Error("node/vertex count mismatch accepted")
	}
	if _, err := Run(Config{Graph: g, Rounds: -1}, []Protocol{&silentNode{}, &silentNode{}}); err == nil {
		t.Error("negative rounds accepted")
	}
	if _, err := Run(Config{Graph: g, Rounds: 0}, []Protocol{&silentNode{}, &silentNode{}}); err != nil {
		t.Errorf("zero rounds should be a valid no-op: %v", err)
	}
}

// raceNode exercises the engine under the race detector: every node
// mutates only its own state.
type raceNode struct {
	mu    sync.Mutex
	count int
	g     *graph.Graph
	id    ids.NodeID
}

func (r *raceNode) Emit(round int) []Send {
	r.mu.Lock()
	defer r.mu.Unlock()
	return []Send{{To: r.g.Neighbors(r.id), Data: []byte{byte(round)}}}
}

func (r *raceNode) Deliver(int, ids.NodeID, []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.count++
}

func TestParallelDeliveryCounts(t *testing.T) {
	g := topology.Complete(16)
	protos := make([]Protocol, 16)
	for i := range protos {
		protos[i] = &raceNode{g: g, id: ids.NodeID(i)}
	}
	m, err := Run(Config{Graph: g, Rounds: 5, Seed: 3}, protos)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range protos {
		want := 5 * 15
		if got := p.(*raceNode).count; got != want {
			t.Errorf("node %d delivered %d, want %d", i, got, want)
		}
		if m.MsgsDelivered[i] != int64(want) {
			t.Errorf("metrics delivered[%d] = %d", i, m.MsgsDelivered[i])
		}
	}
}

// multicastNode sends one shared payload to all neighbors plus one unique
// payload to its first neighbor.
type multicastNode struct {
	g  *graph.Graph
	id ids.NodeID
}

func (m *multicastNode) Emit(round int) []Send {
	nbs := m.g.Neighbors(m.id)
	return []Send{
		{To: nbs, Data: []byte("shared-payload")},
		{To: nbs[:1], Data: []byte("unique")},
	}
}

func (m *multicastNode) Deliver(int, ids.NodeID, []byte) {}

func TestBroadcastAccountingDeduplicatesPayloads(t *testing.T) {
	g := topology.Star(4) // center 0 with 3 neighbors
	protos := []Protocol{
		&multicastNode{g: g, id: 0},
		&silentNode{}, &silentNode{}, &silentNode{},
	}
	m, err := Run(Config{Graph: g, Rounds: 2, Seed: 1}, protos)
	if err != nil {
		t.Fatal(err)
	}
	shared := int64(len("shared-payload") + DefaultMsgOverhead)
	unique := int64(len("unique") + DefaultMsgOverhead)
	wantUnicast := 2 * (3*shared + unique)
	wantBroadcast := 2 * (shared + unique)
	if m.BytesSent[0] != wantUnicast {
		t.Errorf("BytesSent = %d, want %d", m.BytesSent[0], wantUnicast)
	}
	if m.BytesBroadcast[0] != wantBroadcast {
		t.Errorf("BytesBroadcast = %d, want %d", m.BytesBroadcast[0], wantBroadcast)
	}
}

// scriptedNode emits a fixed list of sends every round.
type scriptedNode struct{ sends []Send }

func (s *scriptedNode) Emit(int) []Send                 { return s.sends }
func (s *scriptedNode) Deliver(int, ids.NodeID, []byte) {}

func TestLossRateDropsRoughlyTheRightFraction(t *testing.T) {
	g := topology.Complete(10)
	protos := make([]Protocol, 10)
	for i := range protos {
		protos[i] = &raceNode{g: g, id: ids.NodeID(i)}
	}
	m, err := Run(Config{Graph: g, Rounds: 20, Seed: 3, LossRate: 0.4}, protos)
	if err != nil {
		t.Fatal(err)
	}
	var sent, delivered int64
	for i := range m.MsgsSent {
		sent += m.MsgsSent[i]
		delivered += m.MsgsDelivered[i]
	}
	if sent != delivered+m.DroppedLoss {
		t.Fatalf("accounting broken: sent=%d delivered=%d lost=%d", sent, delivered, m.DroppedLoss)
	}
	frac := float64(m.DroppedLoss) / float64(sent)
	if frac < 0.3 || frac > 0.5 {
		t.Errorf("loss fraction %.3f, want ≈0.4", frac)
	}
	// Lost messages still count as sent bytes.
	if m.BytesSent[0] == 0 {
		t.Error("sender bytes not metered under loss")
	}
}

func TestLossRateValidation(t *testing.T) {
	g := topology.Ring(3)
	protos := []Protocol{&silentNode{}, &silentNode{}, &silentNode{}}
	if _, err := Run(Config{Graph: g, Rounds: 1, LossRate: -0.1}, protos); err == nil {
		t.Error("negative loss rate accepted")
	}
	if _, err := Run(Config{Graph: g, Rounds: 1, LossRate: 1.0}, protos); err == nil {
		t.Error("loss rate 1.0 accepted")
	}
	if _, err := Run(Config{Graph: g, Rounds: 1, LossRate: math.NaN()}, protos); err == nil {
		t.Error("NaN loss rate accepted")
	}
}

// quiescentFlood is floodNode plus the Quiescer attestation: nothing
// pending means nothing to say until another first-seen payload arrives.
type quiescentFlood struct{ *floodNode }

func (q quiescentFlood) Quiescent() bool { return len(q.pending) == 0 }

func runQuiescentFlood(t *testing.T, g *graph.Graph, cfg Config) ([]*floodNode, *Metrics) {
	t.Helper()
	nodes := make([]*floodNode, g.N())
	protos := make([]Protocol, g.N())
	for i := range nodes {
		nodes[i] = newFloodNode(ids.NodeID(i), g, fmt.Sprintf("origin-%d", i))
		protos[i] = quiescentFlood{nodes[i]}
	}
	cfg.Graph = g
	m, err := Run(cfg, protos)
	if err != nil {
		t.Fatal(err)
	}
	return nodes, m
}

func TestEarlyExitSkipsSilentRounds(t *testing.T) {
	// Complete-graph flooding is done after 2 active rounds (emit, relay);
	// the engine needs one more silent round to observe quiescence, then
	// fast-forwards the rest of the 20-round horizon.
	g := topology.Complete(8)
	nodes, m := runQuiescentFlood(t, g, Config{Rounds: 20, Seed: 5})
	if m.Rounds != 20 {
		t.Errorf("Rounds = %d, want the 20-round horizon", m.Rounds)
	}
	if m.ActiveRounds >= 20 || m.ActiveRounds < 2 {
		t.Errorf("ActiveRounds = %d, want early exit in [2,20)", m.ActiveRounds)
	}
	for i, n := range nodes {
		if len(n.seen) != 8 {
			t.Errorf("node %d saw %d origins despite early exit", i, len(n.seen))
		}
	}
}

func TestEarlyExitMatchesFullHorizon(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		for _, g := range []*graph.Graph{topology.Ring(10), topology.Complete(9), topology.Star(8)} {
			_, fast := runQuiescentFlood(t, g, Config{Rounds: 15, Seed: seed})
			_, full := runQuiescentFlood(t, g, Config{Rounds: 15, Seed: seed, FullHorizon: true})
			if full.ActiveRounds != 15 {
				t.Fatalf("FullHorizon run exited early: %d", full.ActiveRounds)
			}
			if !reflect.DeepEqual(fast.BytesSent, full.BytesSent) ||
				!reflect.DeepEqual(fast.BytesBroadcast, full.BytesBroadcast) ||
				!reflect.DeepEqual(fast.MsgsSent, full.MsgsSent) ||
				!reflect.DeepEqual(fast.MsgsDelivered, full.MsgsDelivered) {
				t.Errorf("seed %d: early-exit metrics diverge from full horizon", seed)
			}
		}
	}
}

func TestOpaqueProtocolForcesFullHorizon(t *testing.T) {
	// floodNode does not implement Quiescer: one opaque node in the run
	// must disable early exit entirely.
	g := topology.Complete(6)
	_, m := runFlood(t, g, Config{Rounds: 12, Seed: 1})
	if m.ActiveRounds != 12 {
		t.Errorf("ActiveRounds = %d, want full horizon 12 for non-Quiescer protocols", m.ActiveRounds)
	}
}

func TestLossDeterministicAcrossParallelism(t *testing.T) {
	g := topology.Complete(12)
	run := func(workers int) *Metrics {
		protos := make([]Protocol, 12)
		for i := range protos {
			protos[i] = &raceNode{g: g, id: ids.NodeID(i)}
		}
		m, err := Run(Config{Graph: g, Rounds: 8, Seed: 21, LossRate: 0.3, Workers: workers}, protos)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	seq := run(1)
	for _, workers := range []int{0, 3, 7} { // 7 does not divide n: ragged stripes and blocks
		par := run(workers)
		if seq.DroppedLoss != par.DroppedLoss || !reflect.DeepEqual(seq.MsgsDelivered, par.MsgsDelivered) {
			t.Errorf("loss decisions depend on parallelism: seq dropped %d, workers=%d dropped %d",
				seq.DroppedLoss, workers, par.DroppedLoss)
		}
	}
}

func TestBytesByRoundTrailingSilence(t *testing.T) {
	// Flooding on a complete graph finishes in ~2 rounds; rounds beyond
	// the diameter must be silent (the §IV-E observation). A round's bytes
	// are the N of its round_end trace event.
	g := topology.Complete(8)
	nodes := make([]Protocol, 8)
	for i := range nodes {
		nodes[i] = newFloodNode(ids.NodeID(i), g, fmt.Sprintf("o-%d", i))
	}
	rec := obs.NewRecorder(nil)
	m, err := Run(Config{Graph: g, Rounds: 7, Seed: 1, Tracer: rec}, nodes)
	if err != nil {
		t.Fatal(err)
	}
	var bytesByRound []int64
	for _, ev := range rec.Events() {
		if ev.Type == obs.EvRoundEnd {
			if ev.Round != len(bytesByRound)+1 {
				t.Fatalf("round_end for round %d after %d rounds", ev.Round, len(bytesByRound))
			}
			bytesByRound = append(bytesByRound, ev.N)
		}
	}
	if len(bytesByRound) != 7 {
		t.Fatalf("%d round_end events, want one per round of 7", len(bytesByRound))
	}
	if bytesByRound[0] == 0 || bytesByRound[1] == 0 {
		t.Error("early rounds should carry traffic")
	}
	for r := 2; r < 7; r++ {
		if bytesByRound[r] != 0 {
			t.Errorf("round %d not silent: %d bytes", r+1, bytesByRound[r])
		}
	}
	var byRound, byNode int64
	for _, b := range bytesByRound {
		byRound += b
	}
	for _, b := range m.BytesSent {
		byNode += b
	}
	if byRound != byNode {
		t.Errorf("per-round sum %d != per-node sum %d", byRound, byNode)
	}
}

// TestParallelBlocksCoverEveryIndexOnce: whatever the scheduler does, the
// block-claiming helper hands each index of [0, n) to exactly one call and
// never names a worker it was not given.
func TestParallelBlocksCoverEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 64, 500} {
		for _, workers := range []int{1, 2, 3, 8, n + 1} {
			visits := make([]atomic.Int32, n)
			var badWorker, badBlock atomic.Int32
			parallelBlocks(n, workers, func(w, lo, hi int) {
				if w < 0 || w >= workers {
					badWorker.Add(1)
				}
				if lo < 0 || hi > n || lo > hi {
					badBlock.Add(1)
					return
				}
				for i := lo; i < hi; i++ {
					visits[i].Add(1)
				}
			})
			if badWorker.Load() != 0 || badBlock.Load() != 0 {
				t.Errorf("n=%d workers=%d: %d calls with a worker out of range, %d with a block out of range",
					n, workers, badWorker.Load(), badBlock.Load())
			}
			for i := range visits {
				if v := visits[i].Load(); v != 1 {
					t.Errorf("n=%d workers=%d: index %d visited %d times", n, workers, i, v)
				}
			}
		}
	}
}

// TestRepeatedListingIsTwoMessages pins what a recipient listed twice in
// one Send gets: two messages, metered as two and delivered twice, while
// the Send stays one multicast; a Skip leaves out only the listing it
// names.
func TestRepeatedListingIsTwoMessages(t *testing.T) {
	g := topology.Star(3) // centre 0, leaves 1 and 2
	sinks := []*silentNode{{}, {}}
	payload := []byte("twice")
	sender := &scriptedNode{sends: []Send{
		{To: []ids.NodeID{1, 2, 1}, Data: payload},
		{To: []ids.NodeID{1, 2, 1}, Skip: 3, Data: payload},
	}}
	m, err := Run(Config{Graph: g, Rounds: 1, Seed: 1}, []Protocol{sender, sinks[0], sinks[1]})
	if err != nil {
		t.Fatal(err)
	}
	size := int64(len(payload) + DefaultMsgOverhead)
	if sinks[0].got != 3 || sinks[1].got != 2 {
		t.Errorf("deliveries %d and %d, want 3 and 2", sinks[0].got, sinks[1].got)
	}
	if m.MsgsSent[0] != 5 || m.BytesSent[0] != 5*size || m.BytesBroadcast[0] != 2*size {
		t.Errorf("MsgsSent %d, BytesSent %d, BytesBroadcast %d; want 5, %d, %d",
			m.MsgsSent[0], m.BytesSent[0], m.BytesBroadcast[0], 5*size, 2*size)
	}
}
