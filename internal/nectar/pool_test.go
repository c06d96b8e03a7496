package nectar

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"sync"
	"testing"

	"github.com/nectar-repro/nectar/internal/graph"
	"github.com/nectar-repro/nectar/internal/ids"
	"github.com/nectar-repro/nectar/internal/rounds"
	"github.com/nectar-repro/nectar/internal/sig"
	"github.com/nectar-repro/nectar/internal/topology"
)

// The scratch free list promises capacity, never content (node.go). These
// tests hand nodes scratch full of garbage beyond length zero — what a
// recycled scratch would look like if Release scrubbed nothing — and
// require runs identical, byte for emitted byte, to ones on zero-value
// scratch.

// withScratchPool swaps the package free list for one whose every miss is
// served by fresh, and restores a clean one afterwards. A just-assigned
// pool is empty, so the next NewNode is certain to call fresh.
func withScratchPool(t *testing.T, fresh func() *nodeScratch) {
	t.Helper()
	scratchPool = sync.Pool{New: func() any { return fresh() }}
	t.Cleanup(func() {
		scratchPool = sync.Pool{New: func() any { return new(nodeScratch) }}
	})
}

// usedView is a view as some other run left it: n vertices, two thirds of
// all pairs, so the bit matrix (n <= 192) is mostly ones and the table
// (n > 192) has grown far past what a fixture needs.
func usedView(n int) *graph.EdgeSet {
	s := new(graph.EdgeSet)
	s.Reset(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if u == 0 || (u+v)%3 != 0 {
				s.Add(ids.NodeID(u), ids.NodeID(v))
			}
		}
	}
	return s
}

// usedViewSizes are the previous sizes poisoned scratches cycle through:
// below, at and above the fixtures' n, on both sides of the set's storage
// boundary at 192, and 0 for a scratch that never held a view.
var usedViewSizes = []int{3, 10, 150, 300, 0}

var poisonedCount int

func poisonedScratch() *nodeScratch {
	junk := bytes.Repeat([]byte{0xFF}, 512)
	s := new(nodeScratch)
	poisonedCount++
	if n := usedViewSizes[poisonedCount%len(usedViewSizes)]; n > 0 {
		s.view = usedView(n)
	}
	for i := 0; i < 6; i++ {
		s.queue = append(s.queue, relayItem{raw: junk, edge: graph.NewEdge(1, 2), from: 3})
		s.sendBuf = append(s.sendBuf, rounds.Send{To: 1 << 20, Data: junk})
	}
	s.queue, s.sendBuf = s.queue[:0], s.sendBuf[:0]
	s.enc.Raw(junk)
	s.enc.Reset()
	s.scr.stmt.Raw(junk)
	s.scr.stmt.Reset()
	// Leave the chain scratch the way a signing node would, then fill what
	// it wrote with garbage through the slices it handed out.
	hops := s.scr.cs.AppendInto(sig.NewHMAC(1, 1).SignerFor(0), junk, []sig.Hop{{Sig: junk}, {Sig: junk}})
	for i := range hops {
		hops[i] = sig.Hop{Signer: 1 << 20, Sig: junk}
	}
	s.scr.cs.Reset()
	s.arenaRaw = append(s.arenaRaw, junk...)[:0]
	return s
}

// taped records everything a node emits.
type taped struct {
	*Node
	tape *bytes.Buffer
}

func (p taped) Emit(round int) []rounds.Send {
	out := p.Node.Emit(round)
	for _, s := range out {
		var hdr [12]byte
		binary.LittleEndian.PutUint32(hdr[0:], uint32(round))
		binary.LittleEndian.PutUint32(hdr[4:], uint32(s.To))
		binary.LittleEndian.PutUint32(hdr[8:], uint32(len(s.Data)))
		p.tape.Write(hdr[:])
		p.tape.Write(s.Data)
	}
	return out
}

// clusterRun is everything observable about one all-correct execution.
type clusterRun struct {
	Tapes    [][]byte
	Stats    []Stats
	Outcomes []Outcome
	Views    [][]graph.Edge
	Metrics  *rounds.Metrics
	Hits     int64
	Misses   int64
}

func runTaped(t *testing.T, g *graph.Graph, scheme sig.Scheme, horizon int, opts ...BuildOption) clusterRun {
	t.Helper()
	vc := sig.NewVerifyCache()
	nodes, err := BuildNodes(g, 1, scheme, horizon, append(opts, WithVerifyCache(vc))...)
	if err != nil {
		t.Fatal(err)
	}
	protos := make([]rounds.Protocol, len(nodes))
	tapes := make([]*bytes.Buffer, len(nodes))
	for i, nd := range nodes {
		tapes[i] = new(bytes.Buffer)
		protos[i] = taped{nd, tapes[i]}
	}
	if horizon == 0 {
		horizon = g.N() - 1
	}
	m, err := rounds.Run(rounds.Config{Graph: g, Rounds: horizon, Seed: 42}, protos)
	if err != nil {
		t.Fatal(err)
	}
	run := clusterRun{Metrics: m}
	for i, nd := range nodes {
		run.Outcomes = append(run.Outcomes, nd.Decide())
		run.Stats = append(run.Stats, nd.Stats())
		run.Views = append(run.Views, nd.View().Edges())
		run.Tapes = append(run.Tapes, tapes[i].Bytes())
	}
	run.Hits, run.Misses = vc.Stats()
	vc.Release()
	return run
}

func TestPoisonedScratchChangesNothing(t *testing.T) {
	harary := mustHarary(t, 4, 10)
	for _, tc := range []struct {
		name    string
		g       *graph.Graph
		scheme  sig.Scheme
		horizon int
		opts    []BuildOption
	}{
		{"ring/hmac", topology.Ring(8), sig.NewHMAC(8, 3), 0, nil},
		{"harary/hmac", harary, sig.NewHMAC(10, 3), 0, nil},
		{"harary/slim", harary, sig.ByName("slim", 10, 3), 0, nil},
		{"line/hmac/paranoid", topology.Line(7), sig.NewHMAC(7, 3), 0, []BuildOption{WithParanoidVerify()}},
		// A horizon shorter than the diameter: nodes decide mid-flood,
		// with relay queues still loaded.
		{"line/hmac/cut-short", topology.Line(9), sig.NewHMAC(9, 3), 3, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			withScratchPool(t, func() *nodeScratch { return new(nodeScratch) })
			want := runTaped(t, tc.g, tc.scheme, tc.horizon, tc.opts...)

			withScratchPool(t, poisonedScratch)
			if got := runTaped(t, tc.g, tc.scheme, tc.horizon, tc.opts...); !reflect.DeepEqual(got, want) {
				t.Error("run on poisoned scratch differs from the run on fresh scratch")
			}
			// And again on whatever the poisoned run's nodes gave back.
			if got := runTaped(t, tc.g, tc.scheme, tc.horizon, tc.opts...); !reflect.DeepEqual(got, want) {
				t.Error("run on recycled scratch differs from the run on fresh scratch")
			}
		})
	}
}

// lockstep drives nodes through rounds [from, to] by hand — every node
// emits, then every message is delivered in sender order — and returns the
// bytes put on the wire.
func lockstep(g *graph.Graph, nodes []*Node, from, to int) []byte {
	var wire bytes.Buffer
	for r := from; r <= to; r++ {
		outs := make([][]rounds.Send, len(nodes))
		for i, nd := range nodes {
			outs[i] = nd.Emit(r)
		}
		for i, out := range outs {
			for _, s := range out {
				wire.WriteByte(byte(s.To))
				wire.Write(s.Data)
				nodes[s.To].Deliver(r, ids.NodeID(i), s.Data)
			}
		}
	}
	return wire.Bytes()
}

// TestNodeUsableAfterRelease: deciding (which releases) in the middle of a
// flood, relay queues loaded, changes nothing about what the node does
// next — it carries on exactly like a node that kept its buffers.
func TestNodeUsableAfterRelease(t *testing.T) {
	g := topology.Line(8)
	build := func() []*Node {
		nodes, err := BuildNodes(g, 1, sig.NewHMAC(8, 5), 0)
		if err != nil {
			t.Fatal(err)
		}
		return nodes
	}
	kept, released := build(), build()
	if a, b := lockstep(g, kept, 1, 3), lockstep(g, released, 1, 3); !bytes.Equal(a, b) {
		t.Fatal("identical clusters diverged before any release")
	}
	loaded := 0
	for i, nd := range released {
		if len(nd.queue) > 0 {
			loaded++
		}
		before := nd.View()
		early := nd.Decide()
		nd.Release() // idempotent
		if nd.box != nil || nd.view != nil {
			t.Fatal("scratch or view still borrowed after Decide")
		}
		if i%2 == 0 {
			// Half the nodes are viewed here, from the snapshot, before
			// the next delivery rebuilds their set from it.
			if !nd.View().Equal(before) || !reflect.DeepEqual(nd.View().Edges(), before.Edges()) {
				t.Errorf("node %v: View after Decide differs from View before it", nd.ID())
			}
		}
		if again := nd.Decide(); again != early {
			t.Errorf("node %v: second Decide %+v != first %+v", nd.ID(), again, early)
		}
	}
	if loaded == 0 {
		t.Fatal("fixture broken: no relay queue was loaded at the release point")
	}
	if a, b := lockstep(g, kept, 4, 7), lockstep(g, released, 4, 7); !bytes.Equal(a, b) {
		t.Error("released nodes put different bytes on the wire than nodes that kept their buffers")
	}
	for i := range kept {
		if released[i].snapshot != nil && released[i].view != nil {
			t.Errorf("node %d: still holds the Release snapshot beside the view rebuilt from it", i)
		}
		if kept[i].Stats() != released[i].Stats() {
			t.Errorf("node %d: stats %+v vs %+v", i, released[i].Stats(), kept[i].Stats())
		}
		if !kept[i].View().Equal(released[i].View()) || !released[i].View().Equal(g) {
			t.Errorf("node %d: views differ or are incomplete", i)
		}
		if a, b := kept[i].Decide(), released[i].Decide(); a != b {
			t.Errorf("node %d: outcome %+v vs %+v", i, b, a)
		}
	}
}

// TestReleaseScrubsScratch: what goes back on the free list references
// nothing and is empty; what the node keeps is the zero value.
func TestReleaseScrubsScratch(t *testing.T) {
	g := mustHarary(t, 4, 10)
	nodes, err := BuildNodes(g, 1, sig.NewHMAC(10, 5), 0)
	if err != nil {
		t.Fatal(err)
	}
	lockstep(g, nodes, 1, 2) // stop mid-flood: arenas, queues and send buffers all loaded
	for _, nd := range nodes {
		if len(nd.queue) > 0 {
			nd.Emit(3) // drain, so the queue travels with the scratch
		}
		if cap(nd.queue) == 0 || cap(nd.sendBuf) == 0 || cap(nd.arenaRaw) == 0 || nd.view.M() <= g.Degree(nd.ID()) {
			t.Fatal("fixture broken: scratch never grew")
		}
		s, view := nd.box, nd.View()
		nd.Release()
		if !reflect.DeepEqual(nd.nodeScratch, nodeScratch{}) {
			t.Error("node kept scratch after Release")
		}
		if nd.snapshot == nil || !nd.snapshot.Equal(viewOf(view)) {
			t.Error("Release did not keep a copy of the view")
		}
		s.view.Reset(3) // the next borrower's; the snapshot shares none of it
		if !nd.snapshot.Equal(viewOf(view)) {
			t.Error("the snapshot shares storage with the released view")
		}
		if len(s.queue)+len(s.sendBuf)+len(s.arenaRaw)+s.enc.Len()+s.scr.stmt.Len() != 0 {
			t.Error("released scratch has non-empty buffers")
		}
		for _, it := range s.queue[:cap(s.queue)] {
			if it.raw != nil {
				t.Fatal("released queue slot still references an arena")
			}
		}
		for _, sd := range s.sendBuf[:cap(s.sendBuf)] {
			if sd.Data != nil {
				t.Fatal("released send slot still references a payload")
			}
		}
	}
	// The view is scrubbed by its next borrower, who knows the n to reset it
	// to: whichever released view a new node gets — of this n, here, and of
	// others in TestPoisonedScratchChangesNothing — it starts from its own
	// neighborhood and nothing else.
	for _, n := range []int{4, 10, 300} {
		ring := topology.Ring(n)
		again, err := BuildNodes(ring, 1, sig.NewHMAC(n, 5), 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, nd := range again {
			if v := nd.View(); v.N() != n || v.M() != 2 || !v.HasEdge(nd.ID(), ring.Neighbors(nd.ID())[0]) || v.Connectivity() != 0 {
				t.Fatalf("n=%d: node %v starts from view %v", n, nd.ID(), v)
			}
			nd.Release()
		}
	}
}

// TestFailedBuildLeavesNoTrace: BuildNodes gives back what the nodes built
// before the failing one borrowed, and a later run is none the wiser.
func TestFailedBuildLeavesNoTrace(t *testing.T) {
	g := topology.Ring(8)
	scheme := sig.NewHMAC(8, 3)
	withScratchPool(t, func() *nodeScratch { return new(nodeScratch) })
	want := runTaped(t, g, scheme, 0)

	withScratchPool(t, poisonedScratch)
	breakNode5 := func(c *Config) {
		if c.Me == 5 {
			c.Rounds = -1
		}
	}
	if _, err := BuildNodes(g, 1, scheme, 0, breakNode5); err == nil {
		t.Fatal("broken config accepted")
	}
	if got := runTaped(t, g, scheme, 0); !reflect.DeepEqual(got, want) {
		t.Error("run after a failed build differs from the reference")
	}
}
