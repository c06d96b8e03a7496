package sig

import (
	"encoding/binary"

	"github.com/nectar-repro/nectar/internal/ids"
	"github.com/nectar-repro/nectar/internal/wire"
)

// Chained signatures (§II): σ_j(σ_i(msg)) is represented as a payload plus
// an ordered list of hops, where hop i signs the payload together with all
// previous hops. NECTAR relays extend the chain by one hop per round, so a
// chain's length equals the round in which its last hop was emitted
// (Alg. 1 l. 14: lengthSign(msg) = R).

// Hop is one link of a signature chain.
type Hop struct {
	Signer ids.NodeID
	Sig    []byte
}

// chainTag is the domain-separation prefix of every chain signing input.
var chainTag = []byte("chain-v1")

// chainInputSize returns the encoded size of the signing input for hop
// #len(prefix): the domain tag, the length-prefixed payload, and every
// previous hop.
func chainInputSize(payload []byte, prefix []Hop) int {
	n := len(chainTag) + 4 + len(payload)
	for _, h := range prefix {
		n += 8 + len(h.Sig)
	}
	return n
}

// chainInputStart seeds a signing-input buffer with the domain tag and the
// length-prefixed payload; hops are appended with chainInputHop. Building
// the input incrementally keeps chain verification O(total bytes) instead
// of re-concatenating the payload‖prefix per hop — O(R²) for an R-hop
// chain (DESIGN.md §9).
func chainInputStart(w *wire.Writer, payload []byte) {
	w.Raw(chainTag)
	w.LenBytes(payload)
}

// chainInputHop appends one hop to a signing-input buffer.
func chainInputHop(w *wire.Writer, h Hop) {
	w.NodeID(h.Signer)
	w.LenBytes(h.Sig)
}

// chainInput builds the byte string hop #len(prefix) signs: a domain tag,
// the payload, and every previous hop.
func chainInput(payload []byte, prefix []Hop) []byte {
	w := wire.MakeWriter(chainInputSize(payload, prefix))
	chainInputStart(&w, payload)
	for _, h := range prefix {
		chainInputHop(&w, h)
	}
	return w.Bytes()
}

// AppendHop returns chain extended with a hop signed by s. The input chain
// is not modified.
func AppendHop(s Signer, payload []byte, chain []Hop) []Hop {
	out := make([]Hop, len(chain), len(chain)+1)
	copy(out, chain)
	return append(out, Hop{
		Signer: s.ID(),
		Sig:    s.Sign(chainInput(payload, chain)),
	})
}

// VerifyChain reports whether every hop of the chain carries a valid
// signature over the payload and its prefix. An empty chain verifies
// trivially.
//
// The signing input grows by one hop per link, so the chain is verified
// against a single incrementally extended buffer: one allocation total
// instead of one quadratically sized rebuild per hop. The bytes handed to
// v for hop i are exactly chainInput(payload, chain[:i]).
func VerifyChain(v Verifier, payload []byte, chain []Hop) bool {
	if len(chain) == 0 {
		return true
	}
	w := wire.MakeWriter(chainInputSize(payload, chain[:len(chain)-1]))
	chainInputStart(&w, payload)
	for i, h := range chain {
		if !v.Verify(h.Signer, w.Bytes(), h.Sig) {
			return false
		}
		if i < len(chain)-1 {
			chainInputHop(&w, h)
		}
	}
	return true
}

// DistinctSigners reports whether no node signed the chain twice. The
// Dolev–Strong argument behind Lemma 2 requires relayed chains to carry
// pairwise-distinct signers; correct nodes discard chains violating this.
func DistinctSigners(chain []Hop) bool {
	seen := make(ids.Set, len(chain))
	for _, h := range chain {
		if seen.Has(h.Signer) {
			return false
		}
		seen.Add(h.Signer)
	}
	return true
}

// DistinctRawSigners is DistinctSigners over a raw chain (scratch.go) of
// sigSize-byte signatures, and in the same walk it reports whether every
// signer is below n — a node of the n-node system. That is all an unbound
// scheme's Verify checks of a well-framed hop (Verifier.BindsMessage), so
// a caller holding such a scheme checks the chain's signatures with it.
// The second result is meaningful only when the first is true; a repeated
// signer reports false for both. It compares every pair of signers in
// place: the reference for ChainScratch.DistinctRawSigners, which hot
// paths call, and its walk for chains that name a signer outside n.
func DistinctRawSigners(rawHops []byte, sigSize, n int) (bool, bool) {
	hop := HopWireSize(sigSize)
	inRange := true
	for i := 0; i+hop <= len(rawHops); i += hop {
		s := binary.BigEndian.Uint32(rawHops[i:])
		for j := 0; j < i; j += hop {
			if binary.BigEndian.Uint32(rawHops[j:]) == s {
				return false, false
			}
		}
		inRange = inRange && s < uint32(n)
	}
	return true, inRange
}

// EncodeHops appends the chain to w: a uint16 hop count followed by
// (signer, raw signature) pairs. All signatures must have length sigSize.
func EncodeHops(w *wire.Writer, chain []Hop, sigSize int) {
	w.U16(uint16(len(chain)))
	for _, h := range chain {
		w.NodeID(h.Signer)
		if len(h.Sig) != sigSize {
			// Normalize: pad/truncate to the fixed width so decoding stays
			// well-defined even for adversarial senders. Honest signers
			// always produce sigSize bytes.
			fixed := make([]byte, sigSize)
			copy(fixed, h.Sig)
			w.Raw(fixed)
			continue
		}
		w.Raw(h.Sig)
	}
}

// DecodeHopsNoCopy reads a chain written by EncodeHops with hop signatures
// aliasing the reader's input — callers that retain the chain past the
// input's lifetime must copy the signatures. On malformed input the
// reader's error state is set and nil is returned.
func DecodeHopsNoCopy(r *wire.Reader, sigSize int) []Hop {
	count := int(r.U16())
	if r.Err() != nil {
		return nil
	}
	if count*(4+sigSize) > r.Remaining() {
		r.Fail(wire.ErrTruncated)
		return nil
	}
	chain := make([]Hop, 0, count)
	for i := 0; i < count; i++ {
		h := Hop{Signer: r.NodeID()}
		h.Sig = r.Raw(sigSize)
		if r.Err() != nil {
			return nil
		}
		chain = append(chain, h)
	}
	return chain
}

// HopWireSize returns the encoded size of a single hop for the given
// signature size.
func HopWireSize(sigSize int) int { return 4 + sigSize }
