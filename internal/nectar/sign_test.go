package nectar

// The append-style signing seam (DESIGN.md §4): a relay signs into the hop
// slot it has reserved in the encode arena. These tests hold the bytes it
// emits to what the allocating reference encodes, whatever the signer hands
// back and whichever form of it the node reaches.

import (
	"bytes"
	"reflect"
	"sync/atomic"
	"testing"

	"github.com/nectar-repro/nectar/internal/ids"
	"github.com/nectar-repro/nectar/internal/sig"
)

// widthSigner signs like the Signer it embeds, cut to width bytes or extended
// to them with 0xDD. It has no AppendSign: a node reaches it through Sign
// and a copy.
type widthSigner struct {
	sig.Signer
	width int
}

func (s widthSigner) Sign(msg []byte) []byte {
	out := bytes.Repeat([]byte{0xDD}, s.width)
	copy(out, s.Signer.Sign(msg))
	return out
}

// widthAppendSigner is widthSigner with the append form.
type widthAppendSigner struct{ widthSigner }

func (s widthAppendSigner) AppendSign(dst, msg []byte) []byte {
	return append(dst, s.Sign(msg)...)
}

// TestRelayNormalisesSignatureWidth: a signer whose signatures are narrower
// or wider than the scheme's puts on the wire exactly what EncodeHops makes
// of them — cut or zero-padded to the hop's width — and never a byte beyond
// the hop slot, through AppendSign and through the Sign fallback alike.
func TestRelayNormalisesSignatureWidth(t *testing.T) {
	const hops, count = 3, 4
	sigSize := sig.ByName("hmac", 1, 0).Verifier().SigSize()
	forms := map[string]func(widthSigner) sig.Signer{
		"append":   func(s widthSigner) sig.Signer { return widthAppendSigner{s} },
		"fallback": func(s widthSigner) sig.Signer { return s },
	}
	for form, wrap := range forms {
		for _, width := range []int{0, 1, sigSize - 1, sigSize, sigSize + 1, 3 * sigSize} {
			var signer sig.Signer
			fx := newFirstSeenFixture(t, "hmac", hops, count, func(s sig.Signer) sig.Signer {
				signer = wrap(widthSigner{s, width})
				return signer
			})
			if _, ok := fx.node.signer.(signCopy); ok != (form == "fallback") {
				t.Fatalf("%s: node resolved the wrong form of its signer", form)
			}
			fx.deliverAll(t)
			// Paint the arena, grown well past what the round needs: whatever
			// Emit leaves beyond the bytes it hands out must still be paint.
			fx.node.enc.Extend(1 << 14)
			paint := fx.node.enc.Bytes()
			paint = paint[:cap(paint)]
			for i := range paint {
				paint[i] = 0xEE
			}
			sends := fx.node.Emit(hops + 1)
			if len(sends) != count {
				t.Fatalf("%s, width %d: %d sends, want %d", form, width, len(sends), count)
			}
			for i, raw := range fx.msgs {
				m, err := DecodeEdgeMsg(raw, sigSize, fx.node.cfg.N)
				if err != nil {
					t.Fatal(err)
				}
				m.Chain = sig.AppendHop(signer, proofStatement(m.Proof.Edge), m.Chain)
				if want := m.Encode(sigSize); !bytes.Equal(sends[i].Data, want) {
					t.Errorf("%s, width %d: relay %d differs from the reference encoding", form, width, i)
				}
			}
			used := fx.node.enc.Bytes()
			if len(used) != count*MsgWireSize(sigSize, hops+1) {
				t.Errorf("%s, width %d: round encoded into %d bytes, want %d", form, width, len(used), count*MsgWireSize(sigSize, hops+1))
			}
			if rest := used[len(used):cap(used)]; !bytes.Equal(rest, bytes.Repeat([]byte{0xEE}, len(rest))) {
				t.Errorf("%s, width %d: Emit wrote past the last hop slot", form, width)
			}
		}
	}
}

// countingScheme hands out signers that count Sign calls and, embedding the
// sig.Signer interface, have no other way in — the shape of the benchmark's
// traced signer.
type countingScheme struct {
	sig.Scheme
	calls *atomic.Int64
}

type countingSigner struct {
	sig.Signer
	calls *atomic.Int64
}

func (s countingScheme) SignerFor(id ids.NodeID) sig.Signer {
	return countingSigner{s.Scheme.SignerFor(id), s.calls}
}

func (s countingSigner) Sign(msg []byte) []byte {
	s.calls.Add(1)
	return s.Signer.Sign(msg)
}

// TestSignOnlySignerSameWire: a Signer without AppendSign takes the fallback
// at every signing site — proofs, announcements, relays — and the run puts
// the same bytes on the wire, with Sign called once per signature made.
func TestSignOnlySignerSameWire(t *testing.T) {
	g := mustHarary(t, 4, 10)
	for _, name := range []string{"hmac", "slim"} {
		scheme := sig.ByName(name, g.N(), 3)
		want := runTaped(t, g, scheme, 0)
		var calls atomic.Int64
		got := runTaped(t, g, countingScheme{scheme, &calls}, 0)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: run through Sign-only signers differs from the run through AppendSign", name)
		}
		signatures := 4 * g.M() // two per proof, one per round-1 announcement
		for _, st := range want.Stats {
			signatures += st.Accepted // one per relay
		}
		if int(calls.Load()) != signatures {
			t.Errorf("%s: Sign called %d times for %d signatures", name, calls.Load(), signatures)
		}
	}
}
