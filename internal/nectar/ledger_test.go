package nectar

import (
	"bytes"
	"maps"
	"slices"
	"testing"

	"github.com/nectar-repro/nectar/internal/graph"
	"github.com/nectar-repro/nectar/internal/ids"
	"github.com/nectar-repro/nectar/internal/sig"
)

// The proof ledger (DESIGN.md §9): the first endpoint of an edge that
// NewNode builds checks the edge's proof and records the verdict; the
// second takes it for the same bytes and verifies any other.

// buildOrdered builds the nodes of g in the given order around cache, each
// verifying through a tape of calls, and returns the calls.
func buildOrdered(t *testing.T, g *graph.Graph, scheme sig.Scheme, cache *sig.VerifyCache, order []ids.NodeID) []verifyCall {
	t.Helper()
	proofs := BuildProofs(scheme, g)
	var calls []verifyCall
	for _, me := range order {
		cfg := NodeConfig(g, 1, scheme, proofs, me, 0, WithVerifyCache(cache))
		cfg.Verifier = tapeVerifier{cfg.Verifier, &calls}
		nd, err := NewNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(nd.Release)
	}
	return calls
}

// TestProofLedgerTwoVerifiesPerEdge: building every node of a graph costs
// each edge's proof exactly its two Verify calls, one per signature, made
// by whichever endpoint is built first — in ascending and in descending
// order, under both binding schemes.
func TestProofLedgerTwoVerifiesPerEdge(t *testing.T) {
	g := mustHarary(t, 4, 8)
	for _, name := range []string{"hmac", "ed25519"} {
		scheme := sig.ByName(name, g.N(), 1)
		for _, descending := range []bool{false, true} {
			order := make([]ids.NodeID, g.N())
			for i := range order {
				order[i] = ids.NodeID(i)
			}
			if descending {
				slices.Reverse(order)
			}
			cache := sig.NewVerifyCache()
			t.Cleanup(cache.Release) // last: after the nodes' Release
			perEdge := map[string]int{}
			for _, c := range buildOrdered(t, g, scheme, cache, order) {
				perEdge[string(c.Msg)]++
			}
			for _, e := range g.Edges() {
				if got := perEdge[string(proofStatement(e))]; got != 2 {
					t.Errorf("%s, descending %v: edge %v verified %d times, want 2", name, descending, e, got)
				}
			}
			if len(perEdge) != g.M() {
				t.Errorf("%s, descending %v: %d statements verified, want the %d edges'", name, descending, len(perEdge), g.M())
			}
			if hits, misses := cache.Stats(); hits != int64(g.M()) || misses != int64(g.M()) {
				t.Errorf("%s, descending %v: ledger stats %d/%d, want %d/%d", name, descending, hits, misses, g.M(), g.M())
			}
		}
	}
}

// TestProofLedgerVerifiesOtherBytes: a proof whose bytes differ from the
// recorded ones is verified, not taken — in both directions. An endpoint
// handed a forged proof after the other recorded the valid one is refused,
// and an endpoint handed the valid proof after the other recorded a forged
// one is built, each after verifying the proof itself.
func TestProofLedgerVerifiesOtherBytes(t *testing.T) {
	g := mustHarary(t, 4, 8)
	scheme := sig.NewHMAC(g.N(), 1)
	e := graph.NewEdge(0, 1)
	valid := BuildProofs(scheme, g)
	forged := maps.Clone(valid)
	p := forged[e]
	p.SigV = bytes.Clone(p.SigV)
	p.SigV[len(p.SigV)-1] ^= 0x01
	forged[e] = p

	for _, forgedFirst := range []bool{false, true} {
		cache := sig.NewVerifyCache()
		t.Cleanup(cache.Release)
		for i, me := range []ids.NodeID{e.U, e.V} {
			proofs := valid
			if forgedFirst == (i == 0) {
				proofs = forged
			}
			var calls []verifyCall
			cfg := NodeConfig(g, 1, scheme, proofs, me, 0, WithVerifyCache(cache))
			cfg.Verifier = tapeVerifier{cfg.Verifier, &calls}
			nd, err := NewNode(cfg)
			if wantErr := !bytes.Equal(proofs[e].SigV, valid[e].SigV); (err != nil) != wantErr {
				t.Errorf("forged first %v, endpoint %v: NewNode error %v, want one: %v", forgedFirst, me, err, wantErr)
			}
			if nd != nil {
				t.Cleanup(nd.Release)
			}
			stmt := proofStatement(e)
			n := 0
			for _, c := range calls {
				if bytes.Equal(c.Msg, stmt) {
					n++
				}
			}
			if n != 2 {
				t.Errorf("forged first %v, endpoint %v: the edge's proof verified %d times, want 2", forgedFirst, me, n)
			}
		}
	}
}
