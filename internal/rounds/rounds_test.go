package rounds

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/nectar-repro/nectar/internal/graph"
	"github.com/nectar-repro/nectar/internal/ids"
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
		for _, nb := range n.g.Neighbors(n.id) {
			out = append(out, Send{To: nb, Data: []byte(p)})
		}
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
	return []Send{{To: r.target, Data: []byte("x")}}
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
	if m.TotalBytes() != 0 {
		t.Errorf("dropped sends were metered: %d bytes", m.TotalBytes())
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
	if m.MaxBytesPerNode() != 3*wantPer || m.MeanBytesPerNode() != float64(3*wantPer)/2 {
		t.Errorf("aggregates wrong: max=%d mean=%f", m.MaxBytesPerNode(), m.MeanBytesPerNode())
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
	var out []Send
	for _, nb := range r.g.Neighbors(r.id) {
		out = append(out, Send{To: nb, Data: []byte{byte(round)}})
	}
	return out
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
	shared := []byte("shared-payload")
	var out []Send
	for _, nb := range m.g.Neighbors(m.id) {
		out = append(out, Send{To: nb, Data: shared})
	}
	if nbs := m.g.Neighbors(m.id); len(nbs) > 0 {
		out = append(out, Send{To: nbs[0], Data: []byte("unique")})
	}
	return out
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

// TestDedupSetResetsAndWraps: the broadcast-dedup set reports each key
// new once per reset, keeps its members across growth, and empties on
// reset — also when the generation counter wraps, where slots stamped with
// an old generation would otherwise read as current.
func TestDedupSetResetsAndWraps(t *testing.T) {
	const keys = 1000
	key := func(i int) uint64 { return payloadHash([]byte(fmt.Sprint(i))) }
	fill := func(s *hashSet) {
		t.Helper()
		for i := 0; i < keys; i++ {
			if !s.add(key(i)) {
				t.Fatalf("gen %d: key %d reported present before it was added", s.gen, i)
			}
		}
		for i := 0; i < keys; i++ {
			if s.add(key(i)) {
				t.Fatalf("gen %d: key %d reported new twice", s.gen, i)
			}
		}
		if s.count != keys {
			t.Fatalf("gen %d: count %d, want %d", s.gen, s.count, keys)
		}
	}
	var s hashSet
	s.reset()
	fill(&s) // stamps the members' slots with generation 1
	s.gen = math.MaxUint32
	s.reset()
	if s.gen == 0 {
		t.Fatal("generation 0 after a wrap: zeroed slots would read as members")
	}
	fill(&s)
	for r := 0; r < 3; r++ {
		s.reset()
		fill(&s)
	}
}

// TestBroadcastAccountingIsByContent pins what BytesBroadcast treats as
// "the same payload": equal bytes, whatever buffer they sit in and
// wherever in the outbox they recur — and nothing less. The payloads are
// shaped around the hash's steps (payloadHash: sixteen bytes, then a
// whole word, then a 1–7 byte tail): every combination of those, sub-word
// payloads, and pairs that differ only at the very end or only in length.
func TestBroadcastAccountingIsByContent(t *testing.T) {
	word := "01234567"
	block := word + "89abcdef"
	distinct := []string{
		"", "a", "b", "abc", "abcdefg", // shorter than a word
		word, block, block + block, // whole steps only
		word + "x", word + "y", // word + one-byte tail, differing in the last byte
		word + "8", word + "89", word + "89abcde", // tails of 1, 2 and 7 bytes
		block + word, block + "x", block + word + "x", block + word + "y", // block + word and/or tail
		"1" + block[1:], block[:8] + "9" + block[9:], // differ from block in the first byte of either word
		block + "\x00", block + "\x00\x00", // differ only in length
		"\x00", "\x00\x00", "\x00\x00\x00\x00\x00\x00\x00\x00", // zero bytes still count by length
		block + "0123456\x80", block + "0123456\x00", // differ in the top bit of the last byte
	}
	g := topology.Star(3) // node 0 with neighbors 1 and 2
	var sends []Send
	var wantUnicast, wantBroadcast int64
	// Every payload goes out three times from three separate buffers, the
	// repeats a full pass apart so that no two are consecutive.
	for pass := 0; pass < 3; pass++ {
		for _, p := range distinct {
			sends = append(sends, Send{To: ids.NodeID(1 + pass%2), Data: []byte(p)})
			wantUnicast += int64(len(p) + DefaultMsgOverhead)
			if pass == 0 {
				wantBroadcast += int64(len(p) + DefaultMsgOverhead)
			}
		}
	}
	const rounds = 2
	protos := []Protocol{&scriptedNode{sends: sends}, &silentNode{}, &silentNode{}}
	m, err := Run(Config{Graph: g, Rounds: rounds, Seed: 1}, protos)
	if err != nil {
		t.Fatal(err)
	}
	if m.BytesSent[0] != rounds*wantUnicast {
		t.Errorf("BytesSent = %d, want %d", m.BytesSent[0], rounds*wantUnicast)
	}
	if m.BytesBroadcast[0] != rounds*wantBroadcast {
		t.Errorf("BytesBroadcast = %d, want %d (each of %d distinct payloads once per round)",
			m.BytesBroadcast[0], rounds*wantBroadcast, len(distinct))
	}
}

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
	if len(m.BytesByRound) != 20 {
		t.Errorf("BytesByRound keeps the horizon length, got %d", len(m.BytesByRound))
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
				!reflect.DeepEqual(fast.MsgsDelivered, full.MsgsDelivered) ||
				!reflect.DeepEqual(fast.BytesByRound, full.BytesByRound) {
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
	// the diameter must be silent (the §IV-E observation).
	g := topology.Complete(8)
	nodes := make([]Protocol, 8)
	for i := range nodes {
		nodes[i] = newFloodNode(ids.NodeID(i), g, fmt.Sprintf("o-%d", i))
	}
	m, err := Run(Config{Graph: g, Rounds: 7, Seed: 1}, nodes)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.BytesByRound) != 7 {
		t.Fatalf("BytesByRound has %d entries", len(m.BytesByRound))
	}
	if m.BytesByRound[0] == 0 || m.BytesByRound[1] == 0 {
		t.Error("early rounds should carry traffic")
	}
	for r := 2; r < 7; r++ {
		if m.BytesByRound[r] != 0 {
			t.Errorf("round %d not silent: %d bytes", r+1, m.BytesByRound[r])
		}
	}
	var total int64
	for _, b := range m.BytesByRound {
		total += b
	}
	if total != m.TotalBytes() {
		t.Errorf("per-round sum %d != total %d", total, m.TotalBytes())
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
