package sig

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"github.com/nectar-repro/nectar/internal/ids"
	"github.com/nectar-repro/nectar/internal/wire"
)

func TestAppendIntoMatchesAppendHop(t *testing.T) {
	for _, s := range []Scheme{NewEd25519(8, 1), NewHMAC(8, 1)} {
		t.Run(s.Name(), func(t *testing.T) {
			payload := []byte("proof(p0,p1)")
			var cs ChainScratch
			var chain []Hop
			for hop, id := range []ids.NodeID{0, 3, 5, 7} {
				want := AppendHop(s.SignerFor(id), payload, chain)
				got := cs.AppendInto(s.SignerFor(id), payload, chain)
				if len(got) != len(want) {
					t.Fatalf("hop %d: length %d vs %d", hop, len(got), len(want))
				}
				for i := range got {
					if got[i].Signer != want[i].Signer || !bytes.Equal(got[i].Sig, want[i].Sig) {
						t.Fatalf("hop %d: index %d differs", hop, i)
					}
				}
				// Retain by copy, as the contract requires, then extend again.
				chain = append([]Hop(nil), got...)
				for i := range chain {
					chain[i].Sig = append([]byte(nil), chain[i].Sig...)
				}
			}
			if !VerifyChain(s.Verifier(), payload, chain) {
				t.Fatal("scratch-built chain does not verify")
			}
		})
	}
}

// rawChain returns chain's hop region as EncodeHops writes it, without the
// count prefix.
func rawChain(chain []Hop, sigSize int) []byte {
	var w wire.Writer
	EncodeHops(&w, chain, sigSize)
	return w.Bytes()[2:]
}

// signedInputs records what a Signer was handed, through either method.
type signedInputs struct{ seen [][]byte }

type recordingSigner struct {
	Signer
	r *signedInputs
}

func (r *signedInputs) signer(s Signer) recordingSigner { return recordingSigner{s, r} }

func (s recordingSigner) Sign(msg []byte) []byte {
	s.r.seen = append(s.r.seen, bytes.Clone(msg))
	return s.Signer.Sign(msg)
}

func (s recordingSigner) AppendSign(dst, msg []byte) []byte {
	s.r.seen = append(s.r.seen, bytes.Clone(msg))
	return s.Signer.(AppendSigner).AppendSign(dst, msg)
}

// TestScratchVerifyMatchesVerifyChain: over a chain's wire bytes the scratch
// reaches VerifyChain's verdict through the same Verify calls — hop i
// against chainInput(payload, chain[:i]) — on chains of 0 to 12 hops,
// tampered or not, from every starting hop, and with a scratch that is
// reused throughout. The schemes are the ones that bind the message: an
// unbound chain is checked in the signer walk, under the contract
// TestUnboundVerifyIsRangeAndWidth pins.
func TestScratchVerifyMatchesVerifyChain(t *testing.T) {
	payload := []byte("edge{p0,p4}")
	var cs ChainScratch
	for _, s := range []Scheme{NewEd25519(16, 2), NewHMAC(16, 2)} {
		v := s.Verifier()
		sigSize := v.SigSize()
		for _, hops := range []int{0, 1, 2, 3, 12} {
			good := buildChainN(s, payload, hops)
			cases := map[string][]Hop{"valid": good}
			for i := range good {
				bad := append([]Hop(nil), good...)
				bad[i].Sig = bytes.Clone(bad[i].Sig)
				bad[i].Sig[sigSize-1] ^= 0x40
				cases[fmt.Sprintf("sig %d flipped", i)] = bad
				far := append([]Hop(nil), good...)
				far[i].Signer = 1 << 20 // no such key
				cases[fmt.Sprintf("signer %d out of range", i)] = far
			}
			for name, chain := range cases {
				for _, pl := range [][]byte{payload, []byte("edge{p0,p5}")} {
					// Skipping `from` hops is VerifyChain's walk started there.
					for from := 0; from <= len(chain); from++ {
						var want, got [][]byte
						wantOK := true
						if from == 0 {
							wantOK = VerifyChain(recordingVerifier{v, &want}, pl, chain)
						}
						for i := from; from > 0 && i < len(chain) && wantOK; i++ {
							wantOK = recordingVerifier{v, &want}.Verify(chain[i].Signer, chainInput(pl, chain[:i]), chain[i].Sig)
						}
						gotOK := cs.VerifyRawChain(recordingVerifier{v, &got}, pl, rawChain(chain, sigSize), from)
						if gotOK != wantOK {
							t.Fatalf("%s, %d hops from %d, %s: raw verdict %v, VerifyChain %v", s.Name(), hops, from, name, gotOK, wantOK)
						}
						if !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
							t.Fatalf("%s, %d hops from %d, %s: Verify was handed other inputs than VerifyChain hands it", s.Name(), hops, from, name)
						}
					}
				}
			}
		}
	}
}

// TestSignRawChainMatchesAppendHop: extending a chain from its wire bytes
// signs exactly what AppendHop signs and appends the same signature behind
// what dst already holds; a scheme that does not bind the message is handed
// nil, once.
func TestSignRawChainMatchesAppendHop(t *testing.T) {
	payload := []byte("proof(p0,p1)")
	var cs ChainScratch
	for _, s := range []Scheme{NewEd25519(16, 1), NewHMAC(16, 1), NewSlim(16)} {
		v := s.Verifier()
		for _, hops := range []int{0, 1, 3, 12} {
			chain := buildChainN(s, payload, hops)
			var want, got signedInputs
			wantHop := AppendHop(want.signer(s.SignerFor(15)), payload, chain)[hops]
			gotSig := cs.AppendSignRawChain([]byte("dst"), got.signer(s.SignerFor(15)), v, payload, rawChain(chain, v.SigSize()))
			if !bytes.Equal(gotSig, append([]byte("dst"), wantHop.Sig...)) {
				t.Fatalf("%s, %d hops: signature differs from AppendHop's", s.Name(), hops)
			}
			if !v.BindsMessage() {
				want.seen = [][]byte{nil}
			}
			if !reflect.DeepEqual(got.seen, want.seen) {
				t.Fatalf("%s, %d hops: signed other bytes than AppendHop signs", s.Name(), hops)
			}
		}
	}
}

// TestRawChainIsAllocationFree: on a warm scratch neither raw entry point
// allocates, whether or not it builds a signing input (what a real scheme
// adds on top is its own: TestHMACAllocs).
func TestRawChainIsAllocationFree(t *testing.T) {
	s := NewInsecure(16, Ed25519SigSize)
	payload := []byte("edge statement")
	raw := rawChain(buildChainN(s, payload, 12), Ed25519SigSize)
	var cs ChainScratch
	signer := s.SignerFor(15).(AppendSigner)
	slot := make([]byte, 0, Ed25519SigSize)
	for name, v := range map[string]Verifier{"binding": bindingInsecure{s.Verifier()}, "unbound": s.Verifier()} {
		cs.VerifyRawChain(v, payload, raw, 0) // sizes the buffer
		if allocs := testing.AllocsPerRun(100, func() {
			if !cs.VerifyRawChain(v, payload, raw, 0) {
				t.Fatal("chain rejected")
			}
			cs.AppendSignRawChain(slot, signer, v, payload, raw)
		}); allocs != 0 {
			t.Errorf("%s: raw verify + sign allocate %.1f objects/op, want 0", name, allocs)
		}
	}
}

// bindingInsecure makes the free verifier claim to bind the message, so the
// signing input is built and nothing else costs.
type bindingInsecure struct{ Verifier }

func (bindingInsecure) BindsMessage() bool { return true }

// TestDistinctRawSignersMatchesDistinctSigners: the reference walk finds
// the repeats DistinctSigners finds and calls a distinct chain in range of
// n exactly when its largest signer is below n, and the scratch walk gives
// the reference's (distinct, inRange) — on chains of 0 to 40 hops, with
// repeated signers, signers outside n and both, at bounds around every
// word of its bit set. One scratch serves every call, so a walk that left a
// bit set would fail a later one.
func TestDistinctRawSignersMatchesDistinctSigners(t *testing.T) {
	var cs ChainScratch
	const outside = 1<<20 + 5 // above every bound below
	for _, sigSize := range []int{0, 4, 64} {
		for _, h := range []int{0, 1, 2, 32, 33, 40} {
			chain := make([]Hop, h)
			for i := range chain {
				chain[i] = Hop{Signer: ids.NodeID(3 * i), Sig: make([]byte, sigSize)}
			}
			variants := map[string][]Hop{"distinct": chain}
			set := func(name string, at map[int]ids.NodeID) {
				v := slices.Clone(chain)
				for i, s := range at {
					v[i].Signer = s
				}
				variants[name] = v
			}
			for _, pair := range [][2]int{{0, h - 1}, {h / 2, h - 1}, {0, 1}, {h - 2, h - 1}} {
				if 0 <= pair[0] && pair[0] < pair[1] && pair[1] < h {
					set(fmt.Sprintf("%d repeats %d", pair[1], pair[0]), map[int]ids.NodeID{pair[1]: chain[pair[0]].Signer})
				}
			}
			for _, i := range []int{0, h / 2, h - 1} {
				if 0 <= i && i < h {
					set(fmt.Sprintf("%d outside", i), map[int]ids.NodeID{i: outside})
				}
			}
			if h >= 3 {
				set("outside, then a repeat", map[int]ids.NodeID{1: outside, h - 1: chain[0].Signer})
				set("a repeat, then outside", map[int]ids.NodeID{1: chain[0].Signer, h - 1: outside})
				set("outside twice", map[int]ids.NodeID{0: outside, h - 1: outside})
			}
			for name, v := range variants {
				raw, top := rawChain(v, sigSize), ids.NodeID(0)
				for _, hop := range v {
					top = max(top, hop.Signer)
				}
				for _, bound := range []int{1, 63, 64, 65, 129, int(top), int(top) + 1, int(top) + 100} {
					d, r := DistinctRawSigners(raw, sigSize, bound)
					if wd, wr := DistinctSigners(v), DistinctSigners(v) && (h == 0 || int(top) < bound); d != wd || r != wr {
						t.Fatalf("sigSize %d, %d hops, %s, n = %d: reference says (%v, %v), want (%v, %v)", sigSize, h, name, bound, d, r, wd, wr)
					}
					if gd, gr := cs.DistinctRawSigners(raw, sigSize, bound); gd != d || gr != r {
						t.Fatalf("sigSize %d, %d hops, %s, n = %d: scratch walk says (%v, %v), the reference (%v, %v)", sigSize, h, name, bound, gd, gr, d, r)
					}
				}
			}
		}
	}
	if i := slices.IndexFunc(cs.seen, func(w uint64) bool { return w != 0 }); i >= 0 {
		t.Fatalf("the walks left word %d of the signer set at %#x", i, cs.seen[i])
	}
}

// TestDistinctSignersLongChainUsesMapPath: DistinctSigners, the decoded
// check's reference, tells a repeat on a 40-hop chain as TestDistinctSigners
// has it do on short ones.
func TestDistinctSignersLongChainUsesMapPath(t *testing.T) {
	const n = 40
	chain := make([]Hop, n)
	for i := range chain {
		chain[i].Signer = ids.NodeID(i)
	}
	if !DistinctSigners(chain) {
		t.Fatal("distinct long chain rejected")
	}
	chain[n-1].Signer = chain[0].Signer
	if DistinctSigners(chain) {
		t.Fatal("duplicate signer in long chain accepted")
	}
}
