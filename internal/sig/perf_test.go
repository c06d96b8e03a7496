package sig

// Chain-verification micro-benchmarks and allocation pins (DESIGN.md §9).

import (
	"fmt"
	"testing"

	"github.com/nectar-repro/nectar/internal/ids"
)

// buildChainN signs an R-hop chain over payload with distinct signers.
func buildChainN(scheme Scheme, payload []byte, hops int) []Hop {
	var chain []Hop
	for i := 0; i < hops; i++ {
		chain = AppendHop(scheme.SignerFor(ids.NodeID(i)), payload, chain)
	}
	return chain
}

// TestVerifyChainAllocs pins the incremental signing-input construction:
// verifying an R-hop chain must allocate exactly one buffer (the shared
// input, extended in place per hop), not one quadratically sized rebuild
// per hop.
func TestVerifyChainAllocs(t *testing.T) {
	scheme := NewInsecure(16, Ed25519SigSize) // verification itself is free
	v := scheme.Verifier()
	payload := []byte("edge statement")
	chain := buildChainN(scheme, payload, 12)
	allocs := testing.AllocsPerRun(100, func() {
		if !VerifyChain(v, payload, chain) {
			t.Fatal("chain rejected")
		}
	})
	if allocs > 1 {
		t.Errorf("VerifyChain allocates %.1f objects/op, want <= 1", allocs)
	}
}

// TestVerifyChainIncrementalMatchesNaive: the incrementally extended
// buffer must present each hop with exactly chainInput(payload, prefix) —
// checked by a recording verifier against the naive reconstruction.
func TestVerifyChainIncrementalMatchesNaive(t *testing.T) {
	scheme := NewHMAC(8, 3)
	payload := []byte("some edge payload")
	chain := buildChainN(scheme, payload, 6)
	var seen [][]byte
	rec := recordingVerifier{Verifier: scheme.Verifier(), seen: &seen}
	if !VerifyChain(rec, payload, chain) {
		t.Fatal("valid chain rejected")
	}
	if len(seen) != len(chain) {
		t.Fatalf("%d verifications for %d hops", len(seen), len(chain))
	}
	for i := range chain {
		want := chainInput(payload, chain[:i])
		if string(seen[i]) != string(want) {
			t.Errorf("hop %d signing input diverges from chainInput(payload, chain[:%d])", i, i)
		}
	}
}

type recordingVerifier struct {
	Verifier
	seen *[][]byte
}

func (r recordingVerifier) Verify(signer ids.NodeID, msg, sg []byte) bool {
	*r.seen = append(*r.seen, append([]byte(nil), msg...)) // snapshot: the buffer mutates
	return r.Verifier.Verify(signer, msg, sg)
}

// BenchmarkVerifyChain measures full-chain verification at relay depths
// spanning the n-1 horizon of mid-size graphs.
func BenchmarkVerifyChain(b *testing.B) {
	payload := []byte("canonical edge statement bytes")
	for _, hops := range []int{4, 16, 48} {
		scheme := NewHMAC(64, 1)
		v := scheme.Verifier()
		chain := buildChainN(scheme, payload, hops)
		b.Run(benchName("uncached", hops), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if !VerifyChain(v, payload, chain) {
					b.Fatal("chain rejected")
				}
			}
		})
	}
}

func benchName(mode string, hops int) string {
	return fmt.Sprintf("%s/hops=%d", mode, hops)
}
