package sig

import (
	"testing"

	"github.com/nectar-repro/nectar/internal/ids"
	"github.com/nectar-repro/nectar/internal/wire"
)

func buildChain(s Scheme, payload []byte, signers ...ids.NodeID) []Hop {
	var chain []Hop
	for _, id := range signers {
		chain = AppendHop(s.SignerFor(id), payload, chain)
	}
	return chain
}

func TestChainAppendVerify(t *testing.T) {
	for _, s := range []Scheme{NewEd25519(5, 1), NewHMAC(5, 1)} {
		t.Run(s.Name(), func(t *testing.T) {
			v := s.Verifier()
			payload := []byte("proof(p0,p1)")
			chain := buildChain(s, payload, 0, 2, 4)
			if len(chain) != 3 {
				t.Fatalf("chain length %d", len(chain))
			}
			if !VerifyChain(v, payload, chain) {
				t.Error("valid chain rejected")
			}
			if !VerifyChain(v, payload, nil) {
				t.Error("empty chain should verify trivially")
			}
		})
	}
}

func TestChainAppendDoesNotMutateInput(t *testing.T) {
	s := NewHMAC(5, 1)
	payload := []byte("p")
	base := buildChain(s, payload, 0)
	a := AppendHop(s.SignerFor(1), payload, base)
	b := AppendHop(s.SignerFor(2), payload, base)
	if len(base) != 1 || len(a) != 2 || len(b) != 2 {
		t.Fatalf("lengths: base=%d a=%d b=%d", len(base), len(a), len(b))
	}
	if a[1].Signer != 1 || b[1].Signer != 2 {
		t.Error("chains share storage: appended hops collided")
	}
}

func TestChainRejectsTampering(t *testing.T) {
	s := NewEd25519(5, 1)
	v := s.Verifier()
	payload := []byte("edge{p0,p1}")
	chain := buildChain(s, payload, 0, 1, 2)

	t.Run("payload swap", func(t *testing.T) {
		if VerifyChain(v, []byte("edge{p0,p3}"), chain) {
			t.Error("chain accepted over different payload")
		}
	})
	t.Run("hop reorder", func(t *testing.T) {
		re := []Hop{chain[1], chain[0], chain[2]}
		if VerifyChain(v, payload, re) {
			t.Error("reordered chain accepted")
		}
	})
	t.Run("hop drop", func(t *testing.T) {
		// Dropping an inner hop invalidates all later hops.
		drop := []Hop{chain[0], chain[2]}
		if VerifyChain(v, payload, drop) {
			t.Error("chain with dropped hop accepted")
		}
	})
	t.Run("truncation is still valid", func(t *testing.T) {
		// A prefix is a legitimately shorter chain — NECTAR rejects these
		// via the length==round check, not via signature verification.
		if !VerifyChain(v, payload, chain[:2]) {
			t.Error("honest prefix rejected")
		}
	})
	t.Run("signer swap", func(t *testing.T) {
		sw := append([]Hop(nil), chain...)
		sw[2] = Hop{Signer: 3, Sig: chain[2].Sig}
		if VerifyChain(v, payload, sw) {
			t.Error("signer substitution accepted")
		}
	})
	t.Run("bit flip", func(t *testing.T) {
		fl := append([]Hop(nil), chain...)
		sig := append([]byte(nil), fl[1].Sig...)
		sig[0] ^= 0x80
		fl[1] = Hop{Signer: fl[1].Signer, Sig: sig}
		if VerifyChain(v, payload, fl) {
			t.Error("bit-flipped signature accepted")
		}
	})
}

func TestDistinctSigners(t *testing.T) {
	s := NewHMAC(5, 1)
	payload := []byte("p")
	if !DistinctSigners(buildChain(s, payload, 0, 1, 2)) {
		t.Error("distinct chain flagged")
	}
	if DistinctSigners(buildChain(s, payload, 0, 1, 0)) {
		t.Error("duplicate signer not flagged (Dolev-Strong requires distinct signers)")
	}
	if !DistinctSigners(nil) {
		t.Error("empty chain should be distinct")
	}
}

func TestEncodeDecodeHops(t *testing.T) {
	s := NewHMAC(5, 1)
	v := s.Verifier()
	payload := []byte("payload")
	chain := buildChain(s, payload, 3, 1, 4)

	w := wire.NewWriter(256)
	EncodeHops(w, chain, v.SigSize())
	wantSize := 2 + len(chain)*HopWireSize(v.SigSize())
	if w.Len() != wantSize {
		t.Errorf("encoded size %d, want %d", w.Len(), wantSize)
	}

	r := wire.NewReader(w.Bytes())
	got := DecodeHopsNoCopy(r, v.SigSize())
	if err := r.Close(); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got) != 3 {
		t.Fatalf("decoded %d hops", len(got))
	}
	if !VerifyChain(v, payload, got) {
		t.Error("decoded chain does not verify")
	}
}

func TestDecodeHopsRejectsLyingCount(t *testing.T) {
	w := wire.NewWriter(8)
	w.U16(1000) // claims 1000 hops, provides none
	r := wire.NewReader(w.Bytes())
	if got := DecodeHopsNoCopy(r, 64); got != nil || r.Err() == nil {
		t.Errorf("lying hop count accepted: %v (err=%v)", got, r.Err())
	}
}

func TestEncodeHopsNormalizesOddSizes(t *testing.T) {
	// Adversarial hops with wrong-size signatures must still encode to the
	// fixed width (and then fail verification, not decoding).
	w := wire.NewWriter(64)
	EncodeHops(w, []Hop{{Signer: 1, Sig: []byte("tiny")}}, 64)
	if w.Len() != 2+HopWireSize(64) {
		t.Errorf("encoded size %d", w.Len())
	}
	r := wire.NewReader(w.Bytes())
	got := DecodeHopsNoCopy(r, 64)
	if r.Close() != nil || len(got) != 1 || len(got[0].Sig) != 64 {
		t.Errorf("normalized decode failed: %v, err=%v", got, r.Err())
	}
}

func BenchmarkAppendHopHMAC(b *testing.B) {
	s := NewHMAC(10, 1)
	payload := make([]byte, 140)
	chain := buildChain(s, payload, 0, 1, 2)
	signer := s.SignerFor(3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		AppendHop(signer, payload, chain)
	}
}

func BenchmarkVerifyChain3HMAC(b *testing.B) {
	s := NewHMAC(10, 1)
	v := s.Verifier()
	payload := make([]byte, 140)
	chain := buildChain(s, payload, 0, 1, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !VerifyChain(v, payload, chain) {
			b.Fatal("verify failed")
		}
	}
}
