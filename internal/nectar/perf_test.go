package nectar

// Hot-path micro-benchmarks and allocation-regression pins (DESIGN.md §9).
// The testing.AllocsPerRun assertions are tests, not benchmarks, so CI
// fails if the zero/low-allocation properties of the fast path regress.

import (
	"testing"

	"github.com/nectar-repro/nectar/internal/ids"
	"github.com/nectar-repro/nectar/internal/sig"
	"github.com/nectar-repro/nectar/internal/topology"
)

// relayEmitAllocBudget is the pinned per-relay allocation ceiling under
// HMAC: nothing. The relay signs into the hop slot it reserved in the encode
// arena (sig.AppendSigner), so a signature, signing input, hop slice or
// per-destination encode that allocates again shows as the first whole
// object per relay; a collection emptying the scheme's scratch pool
// mid-measurement costs a fraction of one, which AllocsPerRun rounds away.
const relayEmitAllocBudget = 0

// deliverFixture builds node 0 of a complete graph plus one valid relay
// message for a remote edge, delivered in round 2.
type deliverFixture struct {
	node  *Node
	from  ids.NodeID
	relay []byte // valid 2-hop message for edge {2,3}, delivered by 1
	dup   []byte // second copy of the same edge via another path
}

func newDeliverFixture(tb testing.TB, opts ...BuildOption) *deliverFixture {
	tb.Helper()
	g := topology.Complete(6)
	scheme := sig.NewHMAC(6, 1)
	nodes, err := BuildNodes(g, 1, scheme, 0, opts...)
	if err != nil {
		tb.Fatal(err)
	}
	encode := func(initiator, other, relayer ids.NodeID) []byte {
		m := ForgeEdgeMsg(scheme.SignerFor(initiator), scheme.SignerFor(other))
		m.Chain = sig.AppendHop(scheme.SignerFor(relayer), proofStatement(m.Proof.Edge), m.Chain)
		return m.Encode(scheme.Verifier().SigSize())
	}
	return &deliverFixture{
		node:  nodes[0],
		from:  1,
		relay: encode(2, 3, 1),
		dup:   encode(3, 2, 1),
	}
}

// TestDeliverDuplicateIsAllocationFree pins the lazy-discard fast path:
// once an edge is known, every further delivery of it must complete
// without a single heap allocation — no chain decode, no hop slice, no
// signature copies (DESIGN.md §9).
func TestDeliverDuplicateIsAllocationFree(t *testing.T) {
	fx := newDeliverFixture(t)
	fx.node.Deliver(2, fx.from, fx.relay)
	if st := fx.node.Stats(); st.Accepted != 1 {
		t.Fatalf("fixture message not accepted: %+v", st)
	}
	allocs := testing.AllocsPerRun(200, func() {
		fx.node.Deliver(2, fx.from, fx.dup)
	})
	if allocs != 0 {
		t.Errorf("duplicate delivery allocates %.1f objects/op, want 0", allocs)
	}
	st := fx.node.Stats()
	if st.Duplicates == 0 || st.LazyDiscards != st.Duplicates {
		t.Errorf("duplicates not lazily discarded: %+v", st)
	}
}

// TestDeliverGarbageRejectionIsAllocationFree pins the header-reject path:
// structurally hopeless input (a garbage flood) must be discarded from the
// 8-byte header without allocating.
func TestDeliverGarbageRejectionIsAllocationFree(t *testing.T) {
	fx := newDeliverFixture(t)
	garbage := make([]byte, 200)
	for i := range garbage {
		garbage[i] = 0xA7 // header decodes to a non-canonical edge
	}
	allocs := testing.AllocsPerRun(200, func() {
		fx.node.Deliver(2, fx.from, garbage)
	})
	if allocs != 0 {
		t.Errorf("garbage rejection allocates %.1f objects/op, want 0", allocs)
	}
	if st := fx.node.Stats(); st.Rejected == 0 {
		t.Error("garbage was not rejected")
	}
}

// TestQuiescentRoundIsAllocationFree pins the steady state of a node
// after discovery: delivering a duplicate and emitting an empty round —
// what every node does for most of the horizon — must not allocate at
// all, thanks to the lazy discard plus arena/send-header reuse.
func TestQuiescentRoundIsAllocationFree(t *testing.T) {
	fx := newDeliverFixture(t)
	fx.node.Emit(1)
	fx.node.Deliver(2, fx.from, fx.relay)
	fx.node.Emit(3) // drains the queue and sizes the scratch buffers
	allocs := testing.AllocsPerRun(100, func() {
		fx.node.Deliver(2, fx.from, fx.relay) // now a duplicate
		fx.node.Emit(3)
	})
	if allocs != 0 {
		t.Errorf("quiescent deliver+emit allocates %.1f objects/op, want 0", allocs)
	}
}

// TestRelayEmitAllocBudget bounds the allocations of re-emitting a queued
// relay under HMAC: the signing input, the encode arena and the send headers
// are reused and the signature is written where it is sent from, so the
// budget is flat in the chain length and the fan-out degree
// (TestFirstSeenPathIsAllocationFree has the scheme whose signing is free;
// under Ed25519 what is left is the standard library's own, pinned by
// sig's TestAppendSignAllocs).
func TestRelayEmitAllocBudget(t *testing.T) {
	fx := newDeliverFixture(t)
	fx.node.Emit(1)
	fx.node.Deliver(2, fx.from, fx.relay)
	fx.node.Emit(3) // sizes the arena; queue keeps its backing item
	allocs := testing.AllocsPerRun(100, func() {
		fx.node.queue = fx.node.queue[:1] // resurrect the drained item
		fx.node.Emit(3)
	})
	if allocs > relayEmitAllocBudget {
		t.Errorf("relay emit allocates %.1f objects/op, want <= %d", allocs, relayEmitAllocBudget)
	}
}

// TestDeferredRelayAllocBudget holds a relay left for its first reader to
// sign (DESIGN.md §9) to the same budget: the board's posts and statement
// copies reuse their storage, and the reader signs into the poster's slot
// with its own scratch.
func TestDeferredRelayAllocBudget(t *testing.T) {
	cache := sig.NewVerifyCache()
	t.Cleanup(cache.Release)
	fx := newDeliverFixture(t, WithVerifyCache(cache), WithSignOnRead(func(ids.NodeID) bool { return true }))
	t.Cleanup(fx.node.Release)
	fx.node.Emit(1) // the self-check
	fx.node.Deliver(2, fx.from, fx.relay)
	reader := msgScratch{cache: cache}
	sigSize := fx.node.cfg.Verifier.SigSize()
	ps := proofWireSize(sigSize)
	var data []byte
	emitAndRead := func() {
		fx.node.queue = fx.node.queue[:1] // resurrect the drained item
		data = fx.node.Emit(3)[0].Data
		for _, b := range data[len(data)-sigSize:] {
			if b != 0 {
				t.Fatal("the relay left Emit signed")
			}
		}
		if !cache.Vouched(0, 3, data[:ps], data[ps+2:], &reader.cs) {
			t.Fatal("the deferred relay is not vouched for")
		}
	}
	emitAndRead() // sizes the arena, the board's posts and its statement copies
	m, err := DecodeEdgeMsg(data, sigSize, fx.node.cfg.N)
	if err != nil || !m.Proof.Verify(fx.node.cfg.Verifier) || !sig.VerifyChain(fx.node.cfg.Verifier, proofStatement(m.Proof.Edge), m.Chain) {
		t.Fatalf("the relay its reader signed does not verify (%v)", err)
	}
	if allocs := testing.AllocsPerRun(100, emitAndRead); allocs > relayEmitAllocBudget {
		t.Errorf("a deferred relay's emit and first read allocate %.1f objects/op, want <= %d", allocs, relayEmitAllocBudget)
	}
}

// BenchmarkDeliver measures the deliver path per message for what a node
// discards: the dominant duplicate case (lazy header discard; paranoid
// order for scale) and the garbage-reject case. BenchmarkDeliverFirstSeen
// has the path that accepts.
func BenchmarkDeliver(b *testing.B) {
	b.Run("duplicate-lazy", func(b *testing.B) {
		fx := newDeliverFixture(b)
		fx.node.Deliver(2, fx.from, fx.relay)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fx.node.Deliver(2, fx.from, fx.dup)
		}
	})
	b.Run("duplicate-paranoid", func(b *testing.B) {
		fx := newDeliverFixture(b, WithParanoidVerify())
		fx.node.Deliver(2, fx.from, fx.relay)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fx.node.Deliver(2, fx.from, fx.dup)
		}
	})
	b.Run("garbage-reject", func(b *testing.B) {
		fx := newDeliverFixture(b)
		garbage := make([]byte, 200)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fx.node.Deliver(2, fx.from, garbage)
		}
	})
}

// firstSeenFixture is node 0 of a sparse system, neighbors 1, n-2 and n-1,
// with valid messages for distinct remote edges, each a chain of the same
// length that neighbor 1 delivers last — the state of a node deep inside a
// high-diameter flood (a tree, a ring), where every delivery is first-seen
// and chains are long. rewind undoes the acceptances so the same messages
// are first-seen again, on buffers that have reached their size.
// newFirstSeenFixture's n is 2·count+hops+4: up to 192 the view is a bit
// matrix, above it a table.
type firstSeenFixture struct {
	node *Node
	hops int
	msgs [][]byte
}

func newFirstSeenFixture(tb testing.TB, schemeName string, hops, count int, wrap ...func(sig.Signer) sig.Signer) *firstSeenFixture {
	tb.Helper()
	n := 2*count + hops + 4
	scheme := sig.ByName(schemeName, n, 1)
	me := scheme.SignerFor(0)
	cfg := Config{N: n, T: 1, Me: 0, Signer: me, Verifier: scheme.Verifier(), Proofs: map[ids.NodeID]Proof{}}
	for _, w := range wrap { // the node signs through a wrapper; its proofs are its own
		cfg.Signer = w(cfg.Signer)
	}
	for _, nb := range []ids.NodeID{1, ids.NodeID(n - 2), ids.NodeID(n - 1)} {
		cfg.Neighbors = append(cfg.Neighbors, nb)
		cfg.Proofs[nb] = MakeProof(me, scheme.SignerFor(nb))
	}
	nd, err := NewNode(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	fx := &firstSeenFixture{node: nd, hops: hops}
	for i := 0; i < count; i++ {
		u := ids.NodeID(2 + 2*i)
		relayers := make([]ids.NodeID, hops-1)
		for j := range relayers {
			relayers[j] = u + 1 + ids.NodeID(j) // the other endpoint, then strangers
		}
		relayers[hops-2] = 1
		fx.msgs = append(fx.msgs, chainMsg(scheme, u, u+1, relayers...).Encode(scheme.Verifier().SigSize()))
	}
	fx.deliverAll(tb)
	fx.node.Emit(hops + 1) // sizes the encode arena and the send headers
	fx.rewind()
	return fx
}

func (fx *firstSeenFixture) deliverAll(tb testing.TB) {
	before := fx.node.stats.Accepted
	for _, m := range fx.msgs {
		fx.node.Deliver(fx.hops, 1, m)
	}
	if got := fx.node.stats.Accepted - before; got != len(fx.msgs) {
		tb.Fatalf("fixture broken: %d of %d messages accepted (%+v)", got, len(fx.msgs), fx.node.stats)
	}
}

// rewind returns the view to the node's own neighborhood, as NewNode left
// it, on the storage it has grown.
func (fx *firstSeenFixture) rewind() {
	nd := fx.node
	nd.view.Reset(nd.cfg.N)
	for _, nb := range nd.cfg.Neighbors {
		nd.view.Add(nd.cfg.Me, nb)
	}
	nd.queue, nd.arenaRaw = nd.queue[:0], nd.arenaRaw[:0]
}

// TestFirstSeenPathIsAllocationFree pins the accept path and the relay path
// on warm buffers for a scheme whose Sign does not allocate: checking a
// 12-hop chain over its wire bytes, recording the edge in the pooled view —
// its bit matrix at n = 32, its table at n = 208 — queueing the message,
// then signing and encoding its relay: no object at any step (DESIGN.md §9).
func TestFirstSeenPathIsAllocationFree(t *testing.T) {
	for _, count := range []int{8, 96} {
		fx := newFirstSeenFixture(t, "slim", 12, count)
		if allocs := testing.AllocsPerRun(50, func() {
			fx.deliverAll(t)
			fx.rewind()
		}); allocs != 0 {
			t.Errorf("n=%d: %d first-seen deliveries allocate %.1f objects, want 0", fx.node.cfg.N, len(fx.msgs), allocs)
		}
		fx.deliverAll(t)
		if allocs := testing.AllocsPerRun(50, func() {
			fx.node.queue = fx.node.queue[:len(fx.msgs)] // resurrect the drained items
			if sends := fx.node.Emit(fx.hops + 1); len(sends) != len(fx.msgs) {
				t.Fatalf("relay emitted %d sends, want %d", len(sends), len(fx.msgs))
			}
		}); allocs != 0 {
			t.Errorf("n=%d: %d relays allocate %.1f objects, want 0", fx.node.cfg.N, len(fx.msgs), allocs)
		}
	}
}

// BenchmarkDeliverFirstSeen is the layer line of the first-seen path: one
// op is one accepted 12-hop message (check over the wire bytes, view
// insert, arena copy), slim for the handling alone and hmac with the
// signature work on top.
func BenchmarkDeliverFirstSeen(b *testing.B) {
	for _, scheme := range []string{"slim", "hmac"} {
		b.Run(scheme+"-12hop", func(b *testing.B) {
			fx := newFirstSeenFixture(b, scheme, 12, 256)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%len(fx.msgs) == 0 && i > 0 {
					b.StopTimer()
					fx.rewind()
					b.StartTimer()
				}
				fx.node.Deliver(fx.hops, 1, fx.msgs[i%len(fx.msgs)])
			}
		})
	}
}

// BenchmarkEmitRelay measures the emit path: one op is one queued relay
// signed, encoded once into the arena and fanned out to the neighborhood —
// a 2-hop HMAC chain on the dense fixture, and 12-hop chains like
// BenchmarkDeliverFirstSeen's.
func BenchmarkEmitRelay(b *testing.B) {
	b.Run("hmac-2hop", func(b *testing.B) {
		fx := newDeliverFixture(b)
		fx.node.Emit(1)
		fx.node.Deliver(2, fx.from, fx.relay)
		fx.node.Emit(3) // drain once; the backing item survives truncation
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fx.node.queue = fx.node.queue[:1] // resurrect the drained item
			fx.node.Emit(3)
		}
	})
	for _, scheme := range []string{"slim", "hmac"} {
		b.Run(scheme+"-12hop", func(b *testing.B) {
			fx := newFirstSeenFixture(b, scheme, 12, 256)
			fx.deliverAll(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += len(fx.msgs) {
				fx.node.queue = fx.node.queue[:len(fx.msgs)]
				fx.node.Emit(fx.hops + 1)
			}
		})
	}
}
