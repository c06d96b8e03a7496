package adversary

import (
	"reflect"
	"slices"
	"testing"

	"github.com/nectar-repro/nectar/internal/bloom"
	"github.com/nectar-repro/nectar/internal/graph"
	"github.com/nectar-repro/nectar/internal/ids"
	"github.com/nectar-repro/nectar/internal/mtg"
	"github.com/nectar-repro/nectar/internal/nectar"
	"github.com/nectar-repro/nectar/internal/rounds"
	"github.com/nectar-repro/nectar/internal/sig"
	"github.com/nectar-repro/nectar/internal/topology"
)

func TestSilentSendsNothing(t *testing.T) {
	s := Silent{}
	if got := s.Emit(1); len(got) != 0 {
		t.Errorf("Silent emitted %d messages", len(got))
	}
	s.Deliver(1, 2, []byte("x")) // must not panic
}

func TestSplitBrainDropsOnlyBlockedSide(t *testing.T) {
	g := topology.Complete(5)
	nodes, err := nectar.BuildNodes(g, 1, sig.NewHMAC(5, 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	blocked := ids.NewSet(3, 4)
	byz := SplitBrain(nodes[0], blocked)
	// The unblocked side still receives the full neighborhood: 4 edges × 2
	// unblocked destinations, in one Send per edge sharing one list. A
	// second Emit(1) re-announces (round-1 logic is stateless in the inner
	// node) and must stay filtered too.
	for pass := 0; pass < 2; pass++ {
		out := byz.Emit(1)
		var to []ids.NodeID
		for _, s := range out {
			to = s.Recipients(to)
		}
		if !reflect.DeepEqual(to, []ids.NodeID{1, 2, 1, 2, 1, 2, 1, 2}) {
			t.Errorf("pass %d: split-brain sent to %v, want {1,2} per edge", pass, to)
		}
		if len(out) != 4 || &out[0].To[0] != &out[3].To[0] {
			t.Errorf("pass %d: the filtered Sends do not share one list", pass)
		}
	}
}

// TestListFilterMovesTheSkip: filtering a list keeps each Send's skipped
// recipient skipped, wherever the removals put it, and drops a Send left
// with no listing.
func TestListFilterMovesTheSkip(t *testing.T) {
	list := []ids.NodeID{1, 2, 3, 4, 5}
	in := []rounds.Send{
		{To: list, Skip: 4, Data: []byte("a")}, // skips 4
		{To: list, Skip: 2, Data: []byte("b")}, // skips 2, which is removed
		{To: list, Data: []byte("c")},
		{To: list[1:2], Data: []byte("d")}, // only 2: dropped
		{To: list[3:4], Skip: 1, Data: []byte("e")},
	}
	var want [][]ids.NodeID
	for _, s := range in {
		var kept []ids.NodeID
		for _, to := range s.Recipients(nil) {
			if to != 2 {
				kept = append(kept, to)
			}
		}
		want = append(want, kept)
	}
	var f listFilter
	out := f.apply(slices.Clone(in), func(to ids.NodeID) bool { return to != 2 })
	if len(out) != 4 {
		t.Fatalf("%d Sends kept, want 4", len(out))
	}
	for k, s := range out {
		w := want[k]
		if k >= 3 {
			w = want[k+1]
		}
		if got := s.Recipients(nil); !reflect.DeepEqual(got, w) {
			t.Errorf("Send %q: recipients %v, want %v", s.Data, got, w)
		}
	}
}

func TestBloomPoisonPayloadIsAllOnes(t *testing.T) {
	byz := NewBloomPoison([]ids.NodeID{1, 2}, 256, 3)
	sends := byz.Emit(1)
	if len(sends) != 1 || len(sends[0].Recipients(nil)) != 2 {
		t.Fatalf("poison sent %+v, want one multicast to 2 neighbors", sends)
	}
	f := bloom.New(256, 3)
	if err := f.UnmarshalInto(sends[0].Data); err != nil {
		t.Fatal(err)
	}
	if f.PopCount() != 256 {
		t.Errorf("poison filter has %d/256 bits set", f.PopCount())
	}
	byz.Deliver(1, 1, sends[0].Data) // ignored, must not panic
}

func TestBloomPoisonFlipsMtGDecision(t *testing.T) {
	// Two disconnected pairs; node 1 (Byzantine) poisons its neighbor 0.
	g := graph.New(4)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	correct := func(me ids.NodeID) *mtg.Node {
		nd, err := mtg.NewNode(mtg.Config{
			N: 4, Me: me,
			Neighbors: append([]ids.NodeID(nil), g.Neighbors(me)...),
			Seed:      3,
		})
		if err != nil {
			t.Fatal(err)
		}
		return nd
	}
	n0 := correct(0)
	protos := []rounds.Protocol{
		n0,
		NewBloomPoison(g.Neighbors(1), mtg.DefaultFilterBits, mtg.DefaultFilterHashes),
		correct(2),
		correct(3),
	}
	if _, err := rounds.Run(rounds.Config{Graph: g, Rounds: 10, Seed: 5}, protos); err != nil {
		t.Fatal(err)
	}
	if out := n0.Decide(); out.Partitioned {
		t.Error("poisoned MtG node still detected the partition (attack should fool it)")
	}
}

func TestGarbageIsHarmlessToNectar(t *testing.T) {
	// Ring of 6 with node 0 Byzantine flooding garbage: correct nodes must
	// reject every junk payload and still reach the right decision.
	g := topology.Ring(6)
	scheme := sig.NewHMAC(6, 1)
	nodes, err := nectar.BuildNodes(g, 1, scheme, 0)
	if err != nil {
		t.Fatal(err)
	}
	protos := make([]rounds.Protocol, 6)
	for i, nd := range nodes {
		protos[i] = nd
	}
	protos[0] = NewGarbage(g.Neighbors(0), 11, 200)
	if _, err := rounds.Run(rounds.Config{Graph: g, Rounds: 5, Seed: 5}, protos); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 6; i++ {
		st := nodes[i].Stats()
		if st.Accepted == 0 {
			t.Errorf("node %d accepted nothing", i)
		}
		// Node 0's silence about its own edges must not corrupt views:
		// every recorded edge must be a real edge of g.
		for _, e := range nodes[i].View().Edges() {
			if !g.HasEdge(e.U, e.V) {
				t.Errorf("node %d recorded fake edge %v", i, e)
			}
		}
	}
	// Neighbors of the flooder must have rejected its garbage.
	if nodes[1].Stats().Rejected == 0 || nodes[5].Stats().Rejected == 0 {
		t.Error("garbage was not rejected by neighbors")
	}
}

func TestFakeEdgesAreAcceptedFromColludingPair(t *testing.T) {
	// Nodes 0 and 2 are Byzantine colluders on a ring; node 0 announces a
	// fictitious {0,2} chord. Correct nodes accept it (both signatures are
	// Byzantine-owned) — the paper's "fictitious edges" deviation.
	g := topology.Ring(6)
	scheme := sig.NewHMAC(6, 1)
	nodes, err := nectar.BuildNodes(g, 1, scheme, 0)
	if err != nil {
		t.Fatal(err)
	}
	protos := make([]rounds.Protocol, 6)
	for i, nd := range nodes {
		protos[i] = nd
	}
	protos[0] = NewNectarFakeEdges(
		nodes[0], scheme.SignerFor(0),
		[]sig.Signer{scheme.SignerFor(2)},
		scheme.Verifier().SigSize(), g.Neighbors(0))
	if _, err := rounds.Run(rounds.Config{Graph: g, Rounds: 5, Seed: 5}, protos); err != nil {
		t.Fatal(err)
	}
	fake := graph.NewEdge(0, 2)
	for i := 1; i < 6; i++ {
		if i == 2 {
			continue
		}
		if !nodes[i].View().HasEdge(fake.U, fake.V) {
			t.Errorf("node %d did not record the forged Byzantine-pair edge", i)
		}
	}
}

// alwaysStale is the stale attack: a member of a coordinator of its own on
// an always-ActStale schedule.
func alwaysStale(inner rounds.Protocol, me ids.NodeID, nbrs []ids.NodeID) rounds.Protocol {
	return NewCoordinator().Join(inner, me, nbrs, func(int) Action { return ActStale })
}

func TestStaleReplayIsRejected(t *testing.T) {
	g := topology.Ring(6)
	scheme := sig.NewHMAC(6, 1)
	nodes, err := nectar.BuildNodes(g, 1, scheme, 0)
	if err != nil {
		t.Fatal(err)
	}
	protos := make([]rounds.Protocol, 6)
	for i, nd := range nodes {
		protos[i] = nd
	}
	protos[0] = alwaysStale(nodes[0], 0, g.Neighbors(0))
	if _, err := rounds.Run(rounds.Config{Graph: g, Rounds: 5, Seed: 5}, protos); err != nil {
		t.Fatal(err)
	}
	// The laggard's neighbors (1 and 5) must reject its stale chains: in
	// round 2 they receive length-1 announcements of edges they cannot yet
	// know through other paths.
	if nodes[1].Stats().Rejected == 0 || nodes[5].Stats().Rejected == 0 {
		t.Errorf("stale chains not rejected: rejected[1]=%d rejected[5]=%d",
			nodes[1].Stats().Rejected, nodes[5].Stats().Rejected)
	}
	// Views must still equal the true topology (the ring routes every edge
	// around the laggard); staleness corrupts nothing.
	for i := 1; i < 6; i++ {
		if !nodes[i].View().Equal(g) {
			t.Errorf("node %d view corrupted by stale chains", i)
		}
	}
}

// delayByOne is the reference stale node: it sends in round r exactly what
// its inner node emitted in round r-1.
type delayByOne struct {
	inner *nectar.Node
	prev  []rounds.Send
}

func (d *delayByOne) Emit(round int) []rounds.Send {
	out := d.prev
	d.prev = copySends(d.inner.Emit(round))
	return out
}

func (d *delayByOne) Deliver(round int, from ids.NodeID, data []byte) {
	d.inner.Deliver(round, from, data)
}

func (d *delayByOne) Quiescent() bool { return len(d.prev) == 0 && d.inner.Quiescent() }

// emitLog records every round's sends of the protocol it wraps.
type emitLog struct {
	rounds.Protocol
	log [][]rounds.Send
}

func (e *emitLog) Emit(round int) []rounds.Send {
	out := e.Protocol.Emit(round)
	e.log = append(e.log, copySends(out))
	return out
}

func (e *emitLog) Quiescent() bool { return e.Protocol.(rounds.Quiescer).Quiescent() }

// TestAlwaysStaleIsDelayByOne holds the stale attack to the reference
// delay: alongside an adaptive coalition, a run with node 0 always-stale
// sends what the reference sends, round by round, and ends with the same
// metrics, per-node stats and views — the private coordinator leaves the
// coalition's victims where they were.
func TestAlwaysStaleIsDelayByOne(t *testing.T) {
	h416, err := topology.Harary(4, 16)
	if err != nil {
		t.Fatal(err)
	}
	h630, err := topology.Harary(6, 30)
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		m     *rounds.Metrics
		stats []nectar.Stats
		views []int
		sent  [][]rounds.Send
	}
	run := func(g *graph.Graph, stale func(*nectar.Node) rounds.Protocol) result {
		n := g.N()
		nodes, err := nectar.BuildNodes(g, 3, sig.NewHMAC(n, 1), 0)
		if err != nil {
			t.Fatal(err)
		}
		protos := make([]rounds.Protocol, n)
		for i, nd := range nodes {
			protos[i] = nd
		}
		coalition := NewCoordinator()
		// Node 2 shares neighbor 1 with the stale node 0.
		for _, b := range []ids.NodeID{2, ids.NodeID(n / 2)} {
			protos[b] = coalition.Join(nodes[b], b, g.Neighbors(b), AlwaysEquivocate())
		}
		logged := &emitLog{Protocol: stale(nodes[0])}
		protos[0] = logged
		m, err := rounds.Run(rounds.Config{Graph: g, Rounds: n - 1, Seed: 3, Workers: 1}, protos)
		if err != nil {
			t.Fatal(err)
		}
		r := result{m: m, sent: logged.log}
		for _, nd := range nodes {
			r.stats = append(r.stats, nd.Stats())
			r.views = append(r.views, nd.View().M())
		}
		return r
	}
	for name, g := range map[string]*graph.Graph{"ring-9": topology.Ring(9), "harary-4-16": h416, "harary-6-30": h630} {
		want := run(g, func(nd *nectar.Node) rounds.Protocol { return &delayByOne{inner: nd} })
		got := run(g, func(nd *nectar.Node) rounds.Protocol { return alwaysStale(nd, 0, g.Neighbors(0)) })
		if !reflect.DeepEqual(got.sent, want.sent) {
			t.Errorf("%s: the stale node's sends differ from the delay-by-one reference", name)
		}
		if !reflect.DeepEqual(got.m, want.m) {
			t.Errorf("%s: metrics differ:\ngot  %+v\nwant %+v", name, got.m, want.m)
		}
		if !reflect.DeepEqual(got.stats, want.stats) || !reflect.DeepEqual(got.views, want.views) {
			t.Errorf("%s: per-node stats or view sizes differ", name)
		}
		var rejected int
		for _, st := range want.stats {
			rejected += st.Rejected
		}
		if rejected == 0 {
			t.Errorf("%s: no stale chain rejected; the comparison shows nothing", name)
		}
	}
}

func TestOmitOwnHidesEdgeFromRound1(t *testing.T) {
	g := topology.Ring(4)
	scheme := sig.NewHMAC(4, 1)
	nodes, err := nectar.BuildNodes(g, 1, scheme, 0)
	if err != nil {
		t.Fatal(err)
	}
	hidden := graph.NewEdge(0, 1)
	byz := NectarOmitOwn(nodes[0], scheme.Verifier().SigSize(), map[graph.Edge]bool{hidden: true})
	for _, s := range byz.Emit(1) {
		m, err := nectar.DecodeEdgeMsg(s.Data, scheme.Verifier().SigSize(), 4)
		if err != nil {
			t.Fatal(err)
		}
		if m.Proof.Edge == hidden {
			t.Error("hidden edge announced")
		}
	}
}

func TestEquivocateTargetsEvenNeighborsOnly(t *testing.T) {
	g := topology.Star(5) // center 0 with neighbors 1..4
	scheme := sig.NewHMAC(5, 1)
	nodes, err := nectar.BuildNodes(g, 1, scheme, 0)
	if err != nil {
		t.Fatal(err)
	}
	byz := NectarEquivocate(nodes[0])
	for _, s := range byz.Emit(1) {
		for _, to := range s.Recipients(nil) {
			if to%2 != 0 {
				t.Errorf("equivocator announced to odd neighbor %v", to)
			}
		}
	}
}

// copySends is sendArena.copySends into fresh memory, every list and
// payload an allocation of its own: the reference the stale member is
// held to.
func copySends(in []rounds.Send) []rounds.Send {
	if len(in) == 0 {
		return nil
	}
	out := make([]rounds.Send, len(in))
	for i, s := range in {
		out[i] = rounds.Send{To: slices.Clone(s.To), Skip: s.Skip, Data: slices.Clone(s.Data)}
	}
	return out
}
