package nectar

import (
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"github.com/nectar-repro/nectar/internal/graph"
	"github.com/nectar-repro/nectar/internal/ids"
	"github.com/nectar-repro/nectar/internal/rounds"
	"github.com/nectar-repro/nectar/internal/sig"
)

// A node posts what it emits on its board in the run's cache, and a
// neighbour's check takes a post without a Verify call (DESIGN.md §9).
// These tests hold the board to what it may vouch for: the exact bytes a
// node whose own signature verifies emitted to this round's recipients.

// boardNode builds node me of g under scheme around cache, signing with
// signer (nil: the scheme's own), and has it emit round 1. It returns the
// node and its distinct round-1 messages.
func boardNode(t *testing.T, g *graph.Graph, scheme sig.Scheme, cache *sig.VerifyCache, me ids.NodeID, signer sig.Signer) (*Node, [][]byte) {
	t.Helper()
	cfg := NodeConfig(g, 1, scheme, BuildProofs(scheme, g), me, 0, WithVerifyCache(cache))
	if signer != nil {
		cfg.Signer = signer
	}
	nd, err := NewNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(nd.Release)
	var msgs [][]byte
	for _, s := range nd.Emit(1) {
		if len(msgs) == 0 || &msgs[len(msgs)-1][0] != &s.Data[0] {
			msgs = append(msgs, s.Data)
		}
	}
	return nd, msgs
}

// posted reports whether data, delivered from its last signer in round, is
// on that signer's board.
func posted(cache *sig.VerifyCache, data []byte, round, sigSize int) bool {
	ps := proofWireSize(sigSize)
	return cache.Vouched(lastSigner(data[ps+2:], sigSize), round, data[:ps], data[ps+2:], nil)
}

// checkAgainstReference checks data from `from` in round through sc and
// through the cache-less reference, fails on a different verdict, and
// returns the verdict and the Verify calls each made.
func checkAgainstReference(t *testing.T, sc *msgScratch, v sig.Verifier, n int, data []byte, from ids.NodeID, round int) (got verdict, calls, refCalls int) {
	t.Helper()
	var cacheTape, refTape []verifyCall
	want := referenceVerdict(tapeVerifier{v, &refTape}, data, n, from, round)
	got = rawVerdict(sc, tapeVerifier{v, &cacheTape}, data, n, from, round)
	if got != want {
		t.Fatalf("from %v in round %d: the cache says %+v, reference %+v", from, round, got, want)
	}
	return got, len(cacheTape), len(refTape)
}

// TestBoardForeignSignerNeverPosts: a node whose signer comes from another
// seed fails its self-check at its first post, posts nothing, and its
// chains are rejected chain_sig after a Verify call, as without a board —
// while a correct neighbour's posts are taken without one.
func TestBoardForeignSignerNeverPosts(t *testing.T) {
	g := mustHarary(t, 4, 8)
	scheme := sig.NewHMAC(g.N(), 1)
	v := scheme.Verifier()
	sigSize := v.SigSize()
	cache := sig.NewVerifyCache()
	t.Cleanup(cache.Release) // last: after the nodes' Release
	sc := msgScratch{cache: cache}

	foreign, msgs := boardNode(t, g, scheme, cache, 0, sig.NewHMAC(g.N(), 2).SignerFor(0))
	if foreign.board != nil {
		t.Error("a node whose signature fails the self-check kept its board")
	}
	for _, data := range msgs {
		if posted(cache, data, 1, sigSize) {
			t.Fatal("a node with a foreign key posted")
		}
		got, calls, _ := checkAgainstReference(t, &sc, v, g.N(), data, 0, 1)
		if got.Reason != "chain_sig" || calls == 0 {
			t.Errorf("foreign chain: %+v after %d Verify calls, want chain_sig after at least one", got, calls)
		}
	}

	_, msgs = boardNode(t, g, scheme, cache, 1, nil)
	for _, data := range msgs {
		if !posted(cache, data, 1, sigSize) {
			t.Fatal("a correct node did not post")
		}
		if got, calls, _ := checkAgainstReference(t, &sc, v, g.N(), data, 1, 1); got.Reason != "" || calls != 0 {
			t.Errorf("posted chain: %+v after %d Verify calls, want accepted after none", got, calls)
		}
	}
}

// TestBoardAlteredByteIsVerified: a posted message with any one byte
// changed is not the post. Every such delivery gets the reference's
// verdict — a rejection — and, wherever the reference calls Verify, is
// verified too; the post itself is then accepted without a call.
func TestBoardAlteredByteIsVerified(t *testing.T) {
	g := mustHarary(t, 4, 8)
	scheme := sig.NewHMAC(g.N(), 1)
	v := scheme.Verifier()
	cache := sig.NewVerifyCache()
	t.Cleanup(cache.Release) // last: after the nodes' Release
	sc := msgScratch{cache: cache}
	_, msgs := boardNode(t, g, scheme, cache, 0, nil)
	data := msgs[0]
	for i := range data {
		altered := slices.Clone(data)
		altered[i] ^= 0x01
		got, calls, refCalls := checkAgainstReference(t, &sc, v, g.N(), altered, 0, 1)
		if got.Reason == "" {
			t.Fatalf("byte %d changed: accepted", i)
		}
		if refCalls > 0 && calls == 0 {
			t.Errorf("byte %d changed: %q without a Verify call, the reference made %d", i, got.Reason, refCalls)
		}
	}
	if got, calls, _ := checkAgainstReference(t, &sc, v, g.N(), data, 0, 1); got.Reason != "" || calls != 0 {
		t.Errorf("the post itself: %+v after %d Verify calls, want accepted after none", got, calls)
	}
}

// TestBoardReplayIsRejected: a post vouches for its signatures, not for
// who delivers it or when. A Byzantine neighbour re-sending a correct
// node's post is chain_sender, and a re-send a round later chain_length —
// the structural checks run before any board is asked — and a Byzantine
// extension of a post, which no correct node posted, is verified.
func TestBoardReplayIsRejected(t *testing.T) {
	g := mustHarary(t, 4, 8)
	scheme := sig.NewHMAC(g.N(), 1)
	v := scheme.Verifier()
	sigSize := v.SigSize()
	cache := sig.NewVerifyCache()
	t.Cleanup(cache.Release) // last: after the nodes' Release
	sc := msgScratch{cache: cache}
	_, msgs := boardNode(t, g, scheme, cache, 0, nil)
	data := msgs[0]
	byz := g.Neighbors(0)[0]

	for _, c := range []struct {
		name   string
		from   ids.NodeID
		round  int
		reason string
	}{
		{"re-sent by a neighbour", byz, 1, "chain_sender"},
		{"re-sent a round later", byz, 2, "chain_length"},
		{"sent again a round later", 0, 2, "chain_length"},
	} {
		if got, _, _ := checkAgainstReference(t, &sc, v, g.N(), data, c.from, c.round); got.Reason != c.reason {
			t.Errorf("%s: %+v, want %s", c.name, got, c.reason)
		}
	}

	m, err := DecodeEdgeMsg(data, sigSize, g.N())
	if err != nil {
		t.Fatal(err)
	}
	m.Chain = sig.AppendHop(scheme.SignerFor(byz), proofStatement(m.Proof.Edge), m.Chain)
	extended := m.Encode(sigSize)
	if got, calls, _ := checkAgainstReference(t, &sc, v, g.N(), extended, byz, 2); got.Reason != "" || calls == 0 {
		t.Errorf("Byzantine extension of a post: %+v after %d Verify calls, want accepted after at least one", got, calls)
	}
}

// signOnReadRun is what a run signing its relays on first read shows:
// every node's counters, view and outcome, the engine's metrics and the
// signatures made flooding.
type signOnReadRun struct {
	Stats    []Stats
	Views    [][]graph.Edge
	Outcomes []Outcome
	Metrics  *rounds.Metrics
	Signed   int64
}

// runSignOnRead floods g under hmac at the given engine workers, with a
// verification cache and every node granted signOnRead unless cacheless.
func runSignOnRead(t *testing.T, g *graph.Graph, workers int, cacheless bool) signOnReadRun {
	t.Helper()
	var calls atomic.Int64
	scheme := countingScheme{sig.NewHMAC(g.N(), 5), &calls}
	var opts []BuildOption
	cache := sig.NewVerifyCache()
	defer cache.Release()
	if !cacheless {
		opts = append(opts, WithVerifyCache(cache), WithSignOnRead(func(ids.NodeID) bool { return true }))
	}
	nodes, err := BuildNodes(g, 1, scheme, 0, opts...)
	if err != nil {
		t.Fatal(err)
	}
	built := calls.Load()
	protos := make([]rounds.Protocol, len(nodes))
	for i, nd := range nodes {
		protos[i] = nd
	}
	m, err := rounds.Run(rounds.Config{Graph: g, Rounds: g.N() - 1, Seed: 9, Workers: workers}, protos)
	if err != nil {
		t.Fatal(err)
	}
	run := signOnReadRun{Metrics: m, Signed: calls.Load() - built}
	for _, nd := range nodes {
		run.Stats = append(run.Stats, nd.Stats())
		run.Views = append(run.Views, nd.View().Edges())
		run.Outcomes = append(run.Outcomes, nd.Decide())
	}
	return run
}

// TestSignOnReadConcurrentReaders: on a wheel with tails, a hub's relay of
// a tail edge is first-seen by most spokes at once, so with several engine workers
// readers on different goroutines find one unsigned post together. Exactly
// one signs it — the count of signatures is the same at any worker count,
// and below the cache-less run's, which signs every relay — and every run
// reads, accepts, relays and decides as the cache-less one. Run with -race.
func TestSignOnReadConcurrentReaders(t *testing.T) {
	const spokes, tails = 29, 10
	g := graph.New(1 + spokes + tails)
	for s := 1; s <= spokes; s++ {
		g.AddEdge(0, ids.NodeID(s))
		if s > 1 { // a rim, so that some relays reach only readers that know them
			g.AddEdge(ids.NodeID(s-1), ids.NodeID(s))
		}
	}
	for k := 1; k <= tails; k++ {
		g.AddEdge(ids.NodeID(k), ids.NodeID(spokes+k))
	}
	want := runSignOnRead(t, g, 1, true)
	var signed int64
	for _, workers := range []int{1, 2, 4} {
		got := runSignOnRead(t, g, workers, false)
		if workers == 1 {
			signed = got.Signed
			t.Logf("%d signatures flooding, %d without a cache", got.Signed, want.Signed)
			if got.Signed >= want.Signed {
				t.Errorf("%d signatures flooding, not fewer than the %d of the cache-less run", got.Signed, want.Signed)
			}
		} else if got.Signed != signed {
			t.Errorf("%d workers: %d signatures flooding, %d at one worker", workers, got.Signed, signed)
		}
		got.Signed = want.Signed
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%d workers: the run differs from the cache-less run", workers)
		}
	}
}
