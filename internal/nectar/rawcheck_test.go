package nectar

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/nectar-repro/nectar/internal/ids"
	"github.com/nectar-repro/nectar/internal/sig"
)

// Deliver checks a message in one pass over its wire bytes (checkRaw). The
// allocating path it replaced — DecodeEdgeMsg into an EdgeMsg, then checkMsg
// and sig.VerifyChain over decoded hops — stays as the reference, and these
// tests hold the two together: same verdict, same trace label, same hop
// count, on valid messages and on every single-fault mutation of them — and
// under a scheme that binds the message the same Verify calls in the same
// order, under one that does not none at all.

// verifyCall is one Verify as a verifier saw it.
type verifyCall struct {
	Signer ids.NodeID
	Msg    []byte
	Sig    []byte
}

// tapeVerifier records every Verify call, arguments copied.
type tapeVerifier struct {
	sig.Verifier
	calls *[]verifyCall
}

func (v tapeVerifier) Verify(signer ids.NodeID, msg, sg []byte) bool {
	*v.calls = append(*v.calls, verifyCall{signer, bytes.Clone(msg), bytes.Clone(sg)})
	return v.Verifier.Verify(signer, msg, sg)
}

// verdict is what Deliver makes of a message: the trace label of the
// rejection ("" = accepted) and the hop count it reports with it.
type verdict struct {
	Reason string
	Hops   int
}

func referenceVerdict(v sig.Verifier, data []byte, n int, from ids.NodeID, round int) verdict {
	m, err := DecodeEdgeMsg(data, v.SigSize(), n)
	if err != nil {
		return verdict{rejectReason(err), 0}
	}
	if err := checkMsg(v, m, from, round); err != nil {
		return verdict{rejectReason(err), len(m.Chain)}
	}
	return verdict{"", len(m.Chain)}
}

func rawVerdict(sc *msgScratch, v sig.Verifier, data []byte, n int, from ids.NodeID, round int) verdict {
	_, hops, err := sc.checkRaw(v, data, n, from, round)
	if err != nil {
		return verdict{rejectReason(err), hops}
	}
	return verdict{"", hops}
}

// compareChecks runs one delivery through both checks and fails on any
// difference. For a scheme that binds the message the raw check must hand
// Verify the reference's exact bytes — chainInput(stmt, hops[:i]) for hop i,
// by sig's TestVerifyChainIncrementalMatchesNaive; one that does not it
// must never call: its signer walk is the check (sig.Verifier.BindsMessage).
func compareChecks(t testing.TB, sc *msgScratch, v sig.Verifier, n int, c rawCase) verdict {
	t.Helper()
	var refCalls, rawCalls []verifyCall
	want := referenceVerdict(tapeVerifier{v, &refCalls}, c.data, n, c.from, c.round)
	got := rawVerdict(sc, tapeVerifier{v, &rawCalls}, c.data, n, c.from, c.round)
	if got != want {
		t.Fatalf("%s: raw check says %+v, reference %+v", c.name, got, want)
	}
	if !v.BindsMessage() {
		refCalls = nil
	}
	if !reflect.DeepEqual(rawCalls, refCalls) {
		t.Fatalf("%s: raw check made %d Verify calls, want %d, or with other arguments:\nraw %v\nwant %v",
			c.name, len(rawCalls), len(refCalls), rawCalls, refCalls)
	}
	return got
}

// rawCase is one delivery.
type rawCase struct {
	name  string
	data  []byte
	from  ids.NodeID
	round int
}

const rawCheckN = 64 // room for a 40-hop chain

// rawCases returns, for a valid hops-hop message under scheme, the message
// and every single mutation of it: cut at each byte (every cutStride-th),
// grown by a byte, the edge swapped or out of range, the count off by one
// either way, a signer repeated, the initiator or the sender replaced, the
// round off by one either way, and one bit flipped in each signature.
func rawCases(scheme sig.Scheme, hops, cutStride int) []rawCase {
	sigSize := scheme.Verifier().SigSize()
	ps, hop := proofWireSize(sigSize), sig.HopWireSize(sigSize)
	relayers := make([]ids.NodeID, hops-1)
	for i := range relayers {
		relayers[i] = ids.NodeID(10 + i)
	}
	valid := chainMsg(scheme, 4, 7, relayers...).Encode(sigSize)
	from := ids.NodeID(4)
	if hops > 1 {
		from = relayers[hops-2]
	}
	name := func(what string, args ...any) string {
		return fmt.Sprintf("%s/%d hops/%s", scheme.Name(), hops, fmt.Sprintf(what, args...))
	}
	cases := []rawCase{
		{name("valid"), valid, from, hops},
		{name("round+1"), valid, from, hops + 1},
		{name("other sender"), valid, from + 1, hops},
		{name("trailing byte"), append(slices.Clone(valid), 0), from, hops},
	}
	if hops > 1 {
		cases = append(cases, rawCase{name("round-1"), valid, from, hops - 1})
	}
	for cut := 0; cut < len(valid); cut += cutStride {
		cases = append(cases, rawCase{name("cut at %d", cut), valid[:cut], from, hops})
	}
	mutate := func(what string, edit func(m []byte)) {
		m := slices.Clone(valid)
		edit(m)
		cases = append(cases, rawCase{what, m, from, hops})
	}
	signerAt := func(m []byte, i int) []byte { return m[ps+2+i*hop:][:4] }
	mutate(name("endpoints swapped"), func(m []byte) { copy(m, valid[4:8]); copy(m[4:], valid[:4]) })
	mutate(name("self edge"), func(m []byte) { copy(m[4:], valid[:4]) })
	mutate(name("endpoint out of range"), func(m []byte) { binary.BigEndian.PutUint32(m[4:], rawCheckN) })
	mutate(name("count+1"), func(m []byte) { binary.BigEndian.PutUint16(m[ps:], uint16(hops+1)) })
	mutate(name("count-1"), func(m []byte) { binary.BigEndian.PutUint16(m[ps:], uint16(hops-1)) })
	mutate(name("initiator not an endpoint"), func(m []byte) { binary.BigEndian.PutUint32(signerAt(m, 0), 9) })
	mutate(name("initiator is the other endpoint"), func(m []byte) { binary.BigEndian.PutUint32(signerAt(m, 0), 7) })
	mutate(name("signer out of range"), func(m []byte) { binary.BigEndian.PutUint32(signerAt(m, hops/2), rawCheckN) })
	if hops > 1 {
		mutate(name("last signer repeats the first"), func(m []byte) { copy(signerAt(m, hops-1), signerAt(m, 0)) })
		mutate(name("adjacent signers repeat"), func(m []byte) { copy(signerAt(m, hops/2), signerAt(m, hops/2-1)) })
	}
	if hops > 2 {
		mutate(name("signer out of range, then a repeat"), func(m []byte) {
			binary.BigEndian.PutUint32(signerAt(m, 1), rawCheckN)
			copy(signerAt(m, hops-1), signerAt(m, 0))
		})
		mutate(name("a repeat, then a signer out of range"), func(m []byte) {
			copy(signerAt(m, 1), signerAt(m, 0))
			binary.BigEndian.PutUint32(signerAt(m, hops-1), rawCheckN)
		})
	}
	for i, off := range []int{8, 8 + sigSize} {
		mutate(name("proof sig %d flipped", i), func(m []byte) { m[off+sigSize/2] ^= 0x10 })
	}
	for i := 0; i < hops; i++ {
		mutate(name("hop sig %d flipped", i), func(m []byte) { m[ps+2+i*hop+4+sigSize-1] ^= 0x01 })
	}
	return cases
}

func TestRawCheckMatchesReference(t *testing.T) {
	for _, row := range []struct {
		scheme sig.Scheme
		// phantom: built for 2N, so its Verify accepts the signers in
		// [N, 2N) that no node of the N-node check is.
		phantom bool
	}{
		{scheme: sig.NewEd25519(rawCheckN, 1)}, {scheme: sig.NewHMAC(rawCheckN, 1)},
		{scheme: sig.NewInsecure(rawCheckN, sig.Ed25519SigSize)}, {scheme: sig.NewSlim(rawCheckN)},
		{scheme: sig.NewSlim(2 * rawCheckN), phantom: true},
	} {
		v := row.scheme.Verifier()
		var sc msgScratch // one scratch throughout, as a node has
		reasons := map[string]int{}
		for _, hops := range []int{1, 2, 3, 12, 32, 33, 40} {
			for _, c := range rawCases(row.scheme, hops, 1) {
				if row.phantom && strings.HasSuffix(c.name, "/signer out of range") {
					// The one verdict the reference does not share: where the
					// structure passes, it asks the scheme, which was built
					// for more nodes than exist, and accepts.
					want := referenceVerdict(v, c.data, rawCheckN, c.from, c.round)
					if want.Reason == "" {
						want.Reason = "chain_sig"
					}
					if got := rawVerdict(&sc, v, c.data, rawCheckN, c.from, c.round); got != want {
						t.Fatalf("%s: phantom signer %d gets %+v, want %+v", c.name, rawCheckN, got, want)
					}
					reasons[want.Reason]++
					continue
				}
				reasons[compareChecks(t, &sc, v, rawCheckN, c).Reason]++
			}
		}
		want := []string{"", "malformed", "bad_proof", "chain_length", "chain_signers", "chain_initiator", "chain_sender", "chain_sig"}
		if v.BindsMessage() {
			want = append(want, "proof_sig")
		}
		for _, r := range want {
			if reasons[r] == 0 {
				t.Errorf("%s: no case ended in %q: %v", row.scheme.Name(), r, reasons)
			}
		}
	}
}

// FuzzCheckRaw is TestRawCheckMatchesReference on arbitrary bytes, sender
// and round, seeded with a thinned set of its cases.
func FuzzCheckRaw(f *testing.F) {
	hmac, slim := sig.NewHMAC(rawCheckN, 1), sig.NewSlim(rawCheckN)
	for _, hops := range []int{1, 3, 12} {
		for _, c := range rawCases(hmac, hops, 97) {
			f.Add(c.data, byte(c.from), byte(c.round-1))
		}
	}
	for _, c := range rawCases(slim, 35, 97) {
		f.Add(c.data, byte(c.from), byte(c.round-1))
	}
	var sc msgScratch
	f.Fuzz(func(t *testing.T, data []byte, from, round byte) {
		c := rawCase{"fuzz", data, ids.NodeID(from), 1 + int(round)%rawCheckN}
		compareChecks(t, &sc, hmac.Verifier(), rawCheckN, c)
		compareChecks(t, &sc, slim.Verifier(), rawCheckN, c)
	})
}
