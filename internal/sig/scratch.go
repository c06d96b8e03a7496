package sig

import (
	"encoding/binary"

	"github.com/nectar-repro/nectar/internal/ids"
	"github.com/nectar-repro/nectar/internal/wire"
)

// Hot-path chain operations (DESIGN.md §9, §14). A NECTAR flood performs
// Θ(n·m) relays and acceptances, and what AppendHop / VerifyChain do per
// call — allocate a signing input, walk a []Hop decoded from the wire —
// dominated its profile. ChainScratch carries the signing-input buffer and
// works on a raw chain: a chain in its wire encoding, the hop region
// EncodeHops writes after the count prefix — whole (4+sigSize)-byte hops,
// nothing else. Relays retain accepted messages in that form and Deliver
// checks them in it, so a single-goroutine owner (one Node) touches a
// chain's bytes once and allocates nothing. Results are byte-identical to
// the allocating entry points.

// ChainScratch holds the reusable buffers of a chain-processing hot loop:
// the signing input, and a hop slice and a signature buffer for extended
// chains. The zero value is ready to use. Not safe for concurrent use;
// values returned by AppendInto are only valid until the next AppendInto
// call on the same scratch.
type ChainScratch struct {
	w    wire.Writer
	hops []Hop
	sig  []byte
}

// Reset empties the scratch but keeps its capacity, zeroing the hop slots
// so no signature they referenced stays reachable — for owners that hand
// the scratch on to another run (DESIGN.md §9).
func (cs *ChainScratch) Reset() {
	cs.w.Reset()
	clear(cs.hops[:cap(cs.hops)])
	cs.hops = cs.hops[:0]
	cs.sig = cs.sig[:0]
}

// AppendInto is AppendHop backed by the scratch: it returns chain extended
// with a hop signed by s, with the hop slice and the new hop's signature
// drawn from the scratch. The input chain is not modified. Both are
// overwritten by the next AppendInto; callers that retain the result must
// copy it, signature included, first.
func (cs *ChainScratch) AppendInto(s Signer, payload []byte, chain []Hop) []Hop {
	cs.w.Reset()
	chainInputStart(&cs.w, payload)
	for _, h := range chain {
		chainInputHop(&cs.w, h)
	}
	if as, ok := s.(AppendSigner); ok {
		cs.sig = as.AppendSign(cs.sig[:0], cs.w.Bytes())
	} else { // no append form: Sign and a copy
		cs.sig = append(cs.sig[:0], s.Sign(cs.w.Bytes())...)
	}
	cs.hops = append(cs.hops[:0], chain...)
	cs.hops = append(cs.hops, Hop{Signer: s.ID(), Sig: cs.sig})
	return cs.hops
}

// rawInput writes chainInput(payload, hops) for the decoded sequence of
// rawHops into the scratch: the buffer is sized once, and each hop is two
// copies at a fixed offset. Every chainInput(payload, hops[:i]) is a prefix
// of the result, (4+sigSize)+4 bytes shorter per hop left out.
func (cs *ChainScratch) rawInput(payload, rawHops []byte, sigSize int) []byte {
	cs.w.Reset()
	chainInputStart(&cs.w, payload)
	hop := HopWireSize(sigSize)
	out := cs.w.Extend(len(rawHops) / hop * (hop + 4))
	for ; len(rawHops) >= hop; rawHops, out = rawHops[hop:], out[hop+4:] {
		copy(out[:4], rawHops[:4])
		binary.BigEndian.PutUint32(out[4:], uint32(sigSize))
		copy(out[8:hop+4], rawHops[4:hop])
	}
	return cs.w.Bytes()
}

// AppendSignRawChain appends to dst s's signature extending a raw chain. The
// bytes handed to s are exactly chainInput(payload, hops) for the decoded
// hop sequence, so the signature is identical to AppendInto's — unless v's
// scheme does not bind the message, in which case no input can change the
// signature, none is built, and s signs nil.
func (cs *ChainScratch) AppendSignRawChain(dst []byte, s AppendSigner, v Verifier, payload, rawHops []byte) []byte {
	if !v.BindsMessage() {
		return s.AppendSign(dst, nil)
	}
	return s.AppendSign(dst, cs.rawInput(payload, rawHops, v.SigSize()))
}

// SignLastHop fills the signature slot of rawHops' last hop — its final
// v.SigSize() bytes — with AppendSignRawChain's signature by s extending
// the hops before it, cut or zero-padded to the slot's width as EncodeHops
// would. The slot is capped, so a longer signature is appended into memory
// of its own, never into the bytes behind rawHops.
func (cs *ChainScratch) SignLastHop(s AppendSigner, v Verifier, payload, rawHops []byte) {
	sigSize, n := v.SigSize(), len(rawHops)
	slot := rawHops[n-sigSize : n : n]
	sg := cs.AppendSignRawChain(slot[:0], s, v, payload, rawHops[:n-HopWireSize(sigSize)])
	if len(sg) != sigSize {
		clear(slot[copy(slot, sg):])
	}
}

// VerifyRawChain is VerifyChain over a raw chain: the same verdict from the
// same Verify calls in the same order, hop #i against
// chainInput(payload, hops[:i]). The first `from` hops are skipped: a
// caller that knows them valid (a node checking only its own last
// signature) verifies the rest; 0 verifies the whole chain. A scheme that does not bind the
// message needs no call at all (Verifier.BindsMessage, DistinctRawSigners).
func (cs *ChainScratch) VerifyRawChain(v Verifier, payload, rawHops []byte, from int) bool {
	sigSize := v.SigSize()
	hop := HopWireSize(sigSize)
	if len(rawHops) < hop {
		return true
	}
	// The last hop signs the others and is signed by none.
	input := cs.rawInput(payload, rawHops[:len(rawHops)-hop], sigSize)
	step := hop + 4
	size := chainInputSize(payload, nil) + from*step
	for rawHops = rawHops[from*hop:]; len(rawHops) >= hop; rawHops, size = rawHops[hop:], size+step {
		if !v.Verify(ids.NodeID(binary.BigEndian.Uint32(rawHops)), input[:size], rawHops[4:hop]) {
			return false
		}
	}
	return true
}
