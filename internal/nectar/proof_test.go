package nectar

import (
	"testing"

	"github.com/nectar-repro/nectar/internal/graph"
	"github.com/nectar-repro/nectar/internal/sig"
	"github.com/nectar-repro/nectar/internal/topology"
	"github.com/nectar-repro/nectar/internal/wire"
)

func TestMakeProofVerify(t *testing.T) {
	for _, scheme := range []sig.Scheme{sig.NewEd25519(4, 1), sig.NewHMAC(4, 1)} {
		t.Run(scheme.Name(), func(t *testing.T) {
			v := scheme.Verifier()
			p := MakeProof(scheme.SignerFor(2), scheme.SignerFor(0))
			if p.Edge != graph.NewEdge(0, 2) {
				t.Errorf("edge = %v, want {p0,p2}", p.Edge)
			}
			if !p.Verify(v) {
				t.Error("valid proof rejected")
			}
		})
	}
}

func TestProofSignaturesBoundToEndpoints(t *testing.T) {
	scheme := sig.NewEd25519(4, 1)
	v := scheme.Verifier()
	p := MakeProof(scheme.SignerFor(0), scheme.SignerFor(1))

	// Swapping the two signatures must invalidate the proof.
	swapped := Proof{Edge: p.Edge, SigU: p.SigV, SigV: p.SigU}
	if swapped.Verify(v) {
		t.Error("signature-swapped proof accepted")
	}
	// A proof for a different edge cannot reuse these signatures: p2
	// cannot claim an edge with p0 using p1's signature.
	forged := Proof{Edge: graph.NewEdge(0, 2), SigU: p.SigU, SigV: p.SigV}
	if forged.Verify(v) {
		t.Error("forged proof with transplanted signatures accepted")
	}
}

func TestByzantinePairCanForgeTheirOwnEdge(t *testing.T) {
	// §II: Byzantine nodes may forge proofs of neighborhood between
	// Byzantine processes — both signatures are theirs to give.
	scheme := sig.NewEd25519(4, 1)
	p := MakeProof(scheme.SignerFor(1), scheme.SignerFor(3)) // no such channel exists
	if !p.Verify(scheme.Verifier()) {
		t.Error("a Byzantine pair's self-signed fictitious edge should verify")
	}
}

func TestProofEncodeDecodeRoundTrip(t *testing.T) {
	scheme := sig.NewHMAC(6, 1)
	v := scheme.Verifier()
	p := MakeProof(scheme.SignerFor(5), scheme.SignerFor(3))
	w := wire.NewWriter(256)
	p.encode(w, v.SigSize())
	if w.Len() != proofWireSize(v.SigSize()) {
		t.Errorf("encoded %d bytes, want %d", w.Len(), proofWireSize(v.SigSize()))
	}
	r := wire.NewReader(w.Bytes())
	got, err := decodeProofNoCopy(r, v.SigSize(), 6)
	if err != nil {
		t.Fatal(err)
	}
	if got.Edge != p.Edge || !got.Verify(v) {
		t.Errorf("decoded proof differs or fails verification: %v", got.Edge)
	}
}

func TestDecodeProofRejectsStructuralGarbage(t *testing.T) {
	sigSize := 64
	encode := func(u, v uint32) []byte {
		w := wire.NewWriter(proofWireSize(sigSize))
		w.U32(u)
		w.U32(v)
		w.Raw(make([]byte, 2*sigSize))
		return w.Bytes()
	}
	tests := []struct {
		name string
		data []byte
	}{
		{"self edge", encode(3, 3)},
		{"non-canonical order", encode(4, 2)},
		{"endpoint out of range", encode(1, 17)},
		{"truncated", encode(1, 2)[:20]},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			r := wire.NewReader(tc.data)
			if _, err := decodeProofNoCopy(r, sigSize, 8); err == nil {
				t.Error("structurally invalid proof accepted")
			}
		})
	}
}

func TestBuildProofsAndNeighborProofs(t *testing.T) {
	g := topology.Ring(5)
	scheme := sig.NewHMAC(5, 1)
	all := BuildProofs(scheme, g)
	if len(all) != g.M() {
		t.Fatalf("%d proofs for %d edges", len(all), g.M())
	}
	v := scheme.Verifier()
	for e, p := range all {
		if p.Edge != e || !p.Verify(v) {
			t.Errorf("bad proof for %v", e)
		}
	}
	mine := NeighborProofs(all, g, 0)
	if len(mine) != 2 {
		t.Fatalf("node 0 has %d neighbor proofs, want 2", len(mine))
	}
	for k, p := range mine {
		if nb := g.Neighbors(0)[k]; p.Edge != graph.NewEdge(0, nb) {
			t.Errorf("proof for neighbor %v covers %v", nb, p.Edge)
		}
	}
}
