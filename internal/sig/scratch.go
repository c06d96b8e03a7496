package sig

import (
	"github.com/nectar-repro/nectar/internal/wire"
)

// Hot-path chain operations (DESIGN.md §14). At large n a NECTAR flood
// performs Θ(n·m) relays and acceptances, and the per-call allocations of
// AppendHop / VerifyChain — one signing-input buffer and one hop slice
// each — dominate the profile. ChainScratch carries those two buffers so
// a single-goroutine owner (one Node) pays them once, not once per
// message. Results are byte-identical to the allocating entry points; the
// scratch only changes where the bytes live.

// ChainScratch holds the reusable buffers of a chain-processing hot loop:
// the incrementally built signing input and a hop slice for extended
// chains. The zero value is ready to use. Not safe for concurrent use;
// values returned by AppendInto are only valid until the next AppendInto
// call on the same scratch.
type ChainScratch struct {
	w    wire.Writer
	hops []Hop
}

// Reset empties the scratch but keeps its capacity, zeroing the hop slots
// so no signature they referenced stays reachable — for owners that hand
// the scratch on to another run (DESIGN.md §9).
func (cs *ChainScratch) Reset() {
	cs.w.Reset()
	clear(cs.hops[:cap(cs.hops)])
	cs.hops = cs.hops[:0]
}

// AppendInto is AppendHop backed by the scratch: it returns chain extended
// with a hop signed by s, with the hop slice (but not the signature bytes,
// which the Signer allocates) drawn from the scratch. The input chain is
// not modified. The returned slice is overwritten by the next AppendInto;
// callers that retain it must copy first.
func (cs *ChainScratch) AppendInto(s Signer, payload []byte, chain []Hop) []Hop {
	cs.w.Reset()
	chainInputStart(&cs.w, payload)
	for _, h := range chain {
		chainInputHop(&cs.w, h)
	}
	cs.hops = append(cs.hops[:0], chain...)
	cs.hops = append(cs.hops, Hop{Signer: s.ID(), Sig: s.Sign(cs.w.Bytes())})
	return cs.hops
}

// SignRawChain returns s's signature extending a chain given as its wire
// encoding: rawHops is the hop region written by EncodeHops after the
// count prefix — whole (4+sigSize)-byte hops, nothing else. The bytes
// handed to s are exactly chainInput(payload, hops) for the decoded hop
// sequence, so the resulting signature is identical to AppendInto's; the
// raw entry point exists for relays that retain accepted messages as wire
// bytes and never materialize []Hop (DESIGN.md §14).
func (cs *ChainScratch) SignRawChain(s Signer, payload, rawHops []byte, sigSize int) []byte {
	cs.w.Reset()
	chainInputStart(&cs.w, payload)
	r := wire.ReaderOf(rawHops)
	for r.Remaining() >= 4+sigSize {
		chainInputHop(&cs.w, Hop{Signer: r.NodeID(), Sig: r.Raw(sigSize)})
	}
	return s.Sign(cs.w.Bytes())
}

// Verify is VerifyChain backed by the scratch's signing-input buffer: one
// incrementally extended buffer, zero allocations. The verdict and the
// bytes handed to v are identical to VerifyChain's.
func (cs *ChainScratch) Verify(v Verifier, payload []byte, chain []Hop) bool {
	if len(chain) == 0 {
		return true
	}
	cs.w.Reset()
	chainInputStart(&cs.w, payload)
	for i, h := range chain {
		if !v.Verify(h.Signer, cs.w.Bytes(), h.Sig) {
			return false
		}
		if i < len(chain)-1 {
			chainInputHop(&cs.w, h)
		}
	}
	return true
}

// DecodeHopsInto reads a chain written by EncodeHops into dst[:0], growing
// it as needed, with hop signatures aliasing the reader's input. It is
// DecodeHopsNoCopy with a caller-owned backing slice, for decode loops
// that would otherwise allocate one hop slice per message. On malformed
// input the reader's error state is set and an empty slice is returned.
func DecodeHopsInto(dst []Hop, r *wire.Reader, sigSize int) []Hop {
	dst = dst[:0]
	count := int(r.U16())
	if r.Err() != nil {
		return dst
	}
	if count*(4+sigSize) > r.Remaining() {
		r.Fail(wire.ErrTruncated)
		return dst
	}
	for i := 0; i < count; i++ {
		h := Hop{Signer: r.NodeID()}
		h.Sig = r.Raw(sigSize)
		if r.Err() != nil {
			return dst[:0]
		}
		dst = append(dst, h)
	}
	return dst
}
