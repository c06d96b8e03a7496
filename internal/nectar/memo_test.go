package nectar

import (
	"slices"
	"testing"

	"github.com/nectar-repro/nectar/internal/graph"
	"github.com/nectar-repro/nectar/internal/ids"
	"github.com/nectar-repro/nectar/internal/sig"
	"github.com/nectar-repro/nectar/internal/wire"
)

// Through a run's cache, checkRaw takes a delivery its sender posted on
// its board, and NewNode a proof the edge's other endpoint checked, from
// the proof ledger (DESIGN.md §9). These tests hold its verdicts to the
// cache-less reference, DecodeEdgeMsg + checkMsg, on the deliveries that
// could fool a cache: bytes that share a post's key or prefix but not its
// content.

// seedMemo makes through sc what a run does before rawCases' valid
// hops-hop message arrives: NewNode's check of the proof, recorded in the
// ledger, then each correct relay's acceptance of the shorter prefixes,
// each in its round. With post, each prefix's signer has posted it on its
// board in that round first, and the last signer the whole message in
// round hops, as Node.Emit does.
func seedMemo(t testing.TB, sc *msgScratch, scheme sig.Scheme, hops int, post bool) {
	t.Helper()
	v := scheme.Verifier()
	relayers := make([]ids.NodeID, hops-1)
	for i := range relayers {
		relayers[i] = ids.NodeID(10 + i)
	}
	m := chainMsg(scheme, 4, 7, relayers...)
	var proof wire.Writer
	m.Proof.encode(&proof, v.SigSize())
	if err := sc.checkSigs(v, m.Proof.Edge, proof.Bytes(), nil, 0); err != nil {
		t.Fatalf("seeding the proof: %v", err)
	}
	for k := 1; k <= hops; k++ {
		prefix := EdgeMsg{Proof: m.Proof, Chain: m.Chain[:k]}.Encode(v.SigSize())
		if post {
			postOn(sc.cache, prefix, k, v.SigSize())
		}
		if k == hops {
			break
		}
		if _, _, err := sc.checkRaw(v, prefix, rawCheckN, m.Chain[k-1].Signer, k); err != nil {
			t.Fatalf("seeding the %d-hop prefix: %v", k, err)
		}
	}
}

// postOn posts data on its last signer's board in cache for round, as
// Node.Emit does once the signer's self-check has passed.
func postOn(cache *sig.VerifyCache, data []byte, round, sigSize int) {
	ps := proofWireSize(sigSize)
	b := cache.Board(lastSigner(data[ps+2:], sigSize))
	b.Retract()
	b.Post(data[:ps], data[ps+2:])
	b.Publish(round)
}

// TestMemoVerdictsMatchReference: after edge {4,7}'s proof has gone into
// a shared ledger and its flood (4 → 10 → 11) through the signers' boards —
// bare, then holding their posts — every delivery below gets the
// reference's verdict, label and hop count, twice, and never makes a
// Verify call the reference would not; a posted message makes none, and
// neither does the other endpoint's check of the recorded proof.
func TestMemoVerdictsMatchReference(t *testing.T) {
	for _, post := range []bool{false, true} {
		memoVerdictsMatchReference(t, post)
	}
}

func memoVerdictsMatchReference(t *testing.T, post bool) {
	scheme := sig.NewHMAC(rawCheckN, 1)
	v := scheme.Verifier()
	sigSize := v.SigSize()
	ps, hop := proofWireSize(sigSize), sig.HopWireSize(sigSize)
	cache := sig.NewVerifyCache()
	defer cache.Release()
	sc := msgScratch{cache: cache}
	seedMemo(t, &sc, scheme, 3, post)

	valid := chainMsg(scheme, 4, 7, 10, 11).Encode(sigSize)
	edit := func(data []byte, f func(m []byte)) []byte {
		m := slices.Clone(data)
		f(m)
		return m
	}
	var calls []verifyCall
	if err := sc.checkSigs(tapeVerifier{v, &calls}, graph.NewEdge(4, 7), valid[:ps], nil, 0); err != nil || len(calls) > 0 {
		t.Errorf("the recorded proof again: %v after %d Verify calls, want accepted after none", err, len(calls))
	}
	forgedProof := edit(valid[:ps], func(m []byte) { m[ps-1] ^= 0x01 })
	calls = nil
	if err := sc.checkSigs(tapeVerifier{v, &calls}, graph.NewEdge(4, 7), forgedProof, nil, 0); err != errProofSig || len(calls) != 2 {
		t.Errorf("another proof of the recorded edge: %v after %d Verify calls, want proof_sig after 2", err, len(calls))
	}
	otherEdge := chainMsg(scheme, 4, 8).Encode(sigSize)[:ps] // {4,8}'s proof, NewNode-checked below
	if err := sc.checkSigs(v, graph.NewEdge(4, 8), otherEdge, nil, 0); err != nil {
		t.Fatal(err)
	}
	byzRelay := chainMsg(scheme, 4, 7, 20, 21).Encode(sigSize) // 20's relay reached only 21
	forged := chainMsg(scheme, 30, 31).Encode(sigSize)         // a Byzantine pair's own edge
	cases := []rawCase{
		{"valid", valid, 11, 3},
		{"proof signature U flipped", edit(valid, func(m []byte) { m[8] ^= 0x01 }), 11, 3},
		{"proof signature V flipped", edit(valid, func(m []byte) { m[ps-1] ^= 0x01 }), 11, 3},
		{"one round late", valid, 11, 4},
		{"same last hop over another edge", edit(valid, func(m []byte) { copy(m, otherEdge) }), 11, 3},
		{"last hop flipped", edit(valid, func(m []byte) { m[len(m)-1] ^= 0x01 }), 11, 3},
		{"first hop flipped", edit(valid, func(m []byte) { m[ps+2+hop-1] ^= 0x01 }), 11, 3},
		{"relay of a prefix no correct node accepted", byzRelay, 21, 3},
		{"relay of an unaccepted prefix with a bad hop", edit(byzRelay, func(m []byte) { m[ps+2+2*hop-1] ^= 0x01 }), 21, 3},
		{"relay of an unaccepted prefix over a bad proof", edit(byzRelay, func(m []byte) { m[8] ^= 0x01 }), 21, 3},
		{"forged edge", forged, 30, 1},
		{"forged edge from the other endpoint", chainMsg(scheme, 31, 30).Encode(sigSize), 31, 1},
		{"forged edge with a bad proof", edit(forged, func(m []byte) { m[ps-1] ^= 0x01 }), 30, 1},
	}
	reasons := map[string]int{}
	for _, c := range cases {
		for pass := 0; pass < 2; pass++ {
			var refCalls, cacheCalls []verifyCall
			want := referenceVerdict(tapeVerifier{v, &refCalls}, c.data, rawCheckN, c.from, c.round)
			got := rawVerdict(&sc, tapeVerifier{v, &cacheCalls}, c.data, rawCheckN, c.from, c.round)
			if got != want {
				t.Fatalf("%s, delivery %d, posted %v: cache says %+v, reference %+v", c.name, pass+1, post, got, want)
			}
			if len(cacheCalls) > len(refCalls) {
				t.Errorf("%s, delivery %d, posted %v: %d Verify calls through the cache, %d in the reference", c.name, pass+1, post, len(cacheCalls), len(refCalls))
			}
			if post && c.name == "valid" && len(cacheCalls) > 0 {
				t.Errorf("valid, delivery %d: %d Verify calls for a message its sender posted", pass+1, len(cacheCalls))
			}
			reasons[got.Reason]++
		}
	}
	for _, r := range []string{"", "proof_sig", "chain_sig", "chain_length"} {
		if reasons[r] == 0 {
			t.Errorf("no case ended in %q: %v", r, reasons)
		}
	}
}

// FuzzCheckRawMemo is TestMemoVerdictsMatchReference on arbitrary bytes,
// sender and round: each input is checked through a cache that a valid
// 12-hop flood has seeded — the proof in the ledger, every signer's board
// holding what it posted — then checked again, and both verdicts must be
// the reference's. Seeded with the thinned cases of FuzzCheckRaw, whose
// valid messages are posted ones.
func FuzzCheckRawMemo(f *testing.F) {
	hmac := sig.NewHMAC(rawCheckN, 1)
	v := hmac.Verifier()
	for _, hops := range []int{1, 3, 12} {
		for _, c := range rawCases(hmac, hops, 97) {
			f.Add(c.data, byte(c.from), byte(c.round-1))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, from, round byte) {
		cache := sig.NewVerifyCache()
		defer cache.Release()
		sc := msgScratch{cache: cache}
		seedMemo(t, &sc, hmac, 12, true)
		c := rawCase{"fuzz", data, ids.NodeID(from), 1 + int(round)%rawCheckN}
		want := referenceVerdict(v, c.data, rawCheckN, c.from, c.round)
		for pass := 0; pass < 2; pass++ {
			if got := rawVerdict(&sc, v, c.data, rawCheckN, c.from, c.round); got != want {
				t.Fatalf("delivery %d: cache says %+v, reference %+v", pass+1, got, want)
			}
		}
	})
}
