package mtg

import (
	"testing"

	"github.com/nectar-repro/nectar/internal/ids"
	"github.com/nectar-repro/nectar/internal/sig"
)

// FuzzDecodeBatch checks the MtGv2 batch decoder and the credential
// acceptance path against arbitrary input: no panics, and no unverified
// credential may ever be recorded.
func FuzzDecodeBatch(f *testing.F) {
	scheme := sig.NewHMAC(4, 1)
	ss := scheme.Verifier().SigSize()
	valid := EncodeBatch([]SignedID{
		{ID: 1, Sig: SignID(scheme.SignerFor(1))},
		{ID: 2, Sig: SignID(scheme.SignerFor(2))},
	}, ss)
	f.Add(valid)
	f.Add(valid[:7])
	f.Add([]byte{0xFF, 0xFF})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := DecodeBatch(data, ss); err != nil {
			return
		}
		nd, err := NewNodeV2(ConfigV2{
			N: 4, Me: 0, Neighbors: []ids.NodeID{1},
			Signer: scheme.SignerFor(0), Verifier: scheme.Verifier(), Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		nd.Deliver(1, 1, data)
		for id := range nd.Known() {
			if id == 0 {
				continue // own credential
			}
			// Any other recorded ID must carry a verifying signature —
			// fuzz input forging an HMAC would be a finding.
			if int(id) >= 4 {
				t.Fatalf("out-of-range credential %v recorded", id)
			}
		}
	})
}

// FuzzNodeV2Deliver feeds an MtGv2 node arbitrary payloads after a valid
// batch. Invariant: the in-place Deliver never panics, and the node ends
// holding exactly what its reference twin — DecodeBatch, then the
// per-entry range, duplicate and signature checks — holds: the same Known()
// set in the same discovery order. The slim scheme accepts any signature of
// its width, so fuzzed entries reach the accept path, not only rejection.
func FuzzNodeV2Deliver(f *testing.F) {
	const n = 6
	scheme := sig.NewSlim(n)
	ss := scheme.Verifier().SigSize()
	first := EncodeBatch([]SignedID{{ID: 2, Sig: SignID(scheme.SignerFor(2))}}, ss)
	f.Add(EncodeBatch([]SignedID{
		{ID: 3, Sig: SignID(scheme.SignerFor(3))},
		{ID: 2, Sig: SignID(scheme.SignerFor(2))}, // already held
		{ID: 9, Sig: SignID(scheme.SignerFor(1))}, // out of range
		{ID: 5, Sig: SignID(scheme.SignerFor(5))},
		{ID: 5, Sig: SignID(scheme.SignerFor(5))}, // twice in one batch
	}, ss))
	f.Add(first[:len(first)-1])
	f.Add(append(first, 0))
	f.Add([]byte{0, 0})
	f.Add([]byte{0xFF, 0xFF})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg := ConfigV2{
			N: n, Me: 0, Neighbors: []ids.NodeID{1},
			Signer: scheme.SignerFor(0), Verifier: scheme.Verifier(), Seed: 1,
		}
		nd, err := NewNodeV2(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefV2(cfg)
		for _, payload := range [][]byte{first, data, data} {
			nd.Deliver(1, 1, payload)
			ref.deliver(payload)
			if !sameState(nd, ref) {
				t.Fatalf("node holds %v, reference %v", nd.discovered(), ref.order)
			}
		}
	})
}

// FuzzBloomDeliver checks MtG filter handling against arbitrary payloads.
func FuzzBloomDeliver(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, DefaultFilterBits/8))
	f.Fuzz(func(t *testing.T, data []byte) {
		nd, err := NewNode(Config{N: 4, Me: 0, Neighbors: []ids.NodeID{1}, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		nd.Deliver(1, 1, data)
		out := nd.Decide()
		if out.Known < 1 || out.Known > 4 {
			t.Fatalf("known estimate %d out of range", out.Known)
		}
	})
}
