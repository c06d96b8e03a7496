package sig

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"math"
	"math/rand"
	"sync"
	"testing"

	"github.com/nectar-repro/nectar/internal/ids"
)

func schemes(t *testing.T, n int) []Scheme {
	t.Helper()
	return []Scheme{NewEd25519(n, 1), NewHMAC(n, 1), NewInsecure(n, 64)}
}

func TestSignVerifyRoundTrip(t *testing.T) {
	for _, s := range schemes(t, 4) {
		t.Run(s.Name(), func(t *testing.T) {
			v := s.Verifier()
			msg := []byte("the message")
			for id := ids.NodeID(0); id < 4; id++ {
				sg := s.SignerFor(id).Sign(msg)
				if len(sg) != v.SigSize() {
					t.Fatalf("signature size %d, want %d", len(sg), v.SigSize())
				}
				if !v.Verify(id, msg, sg) {
					t.Errorf("valid signature by %v rejected", id)
				}
			}
		})
	}
}

func TestVerifyRejectsWrongSigner(t *testing.T) {
	// Insecure intentionally accepts everything; skip it.
	for _, s := range []Scheme{NewEd25519(4, 1), NewHMAC(4, 1)} {
		t.Run(s.Name(), func(t *testing.T) {
			v := s.Verifier()
			msg := []byte("msg")
			sg := s.SignerFor(1).Sign(msg)
			if v.Verify(2, msg, sg) {
				t.Error("signature by p1 accepted as p2's")
			}
		})
	}
}

func TestVerifyRejectsTamperedMessage(t *testing.T) {
	for _, s := range []Scheme{NewEd25519(4, 1), NewHMAC(4, 1)} {
		t.Run(s.Name(), func(t *testing.T) {
			v := s.Verifier()
			sg := s.SignerFor(0).Sign([]byte("original"))
			if v.Verify(0, []byte("tampered"), sg) {
				t.Error("tampered message accepted")
			}
		})
	}
}

func TestVerifyRejectsMalformedInputs(t *testing.T) {
	for _, s := range schemes(t, 3) {
		t.Run(s.Name(), func(t *testing.T) {
			v := s.Verifier()
			if v.Verify(99, []byte("m"), make([]byte, v.SigSize())) {
				t.Error("out-of-range signer accepted")
			}
			if v.Verify(0, []byte("m"), []byte("short")) {
				t.Error("wrong-size signature accepted")
			}
		})
	}
}

func TestDeterministicKeyDerivation(t *testing.T) {
	// Two scheme instances with the same seed must interoperate (this is
	// how separate TCP processes agree on keys); different seeds must not.
	a := NewEd25519(3, 7)
	b := NewEd25519(3, 7)
	c := NewEd25519(3, 8)
	msg := []byte("interop")
	sg := a.SignerFor(1).Sign(msg)
	if !b.Verifier().Verify(1, msg, sg) {
		t.Error("same-seed instance rejected signature")
	}
	if c.Verifier().Verify(1, msg, sg) {
		t.Error("different-seed instance accepted signature")
	}
}

func TestSignerIsBoundToID(t *testing.T) {
	s := NewHMAC(4, 1)
	signer := s.SignerFor(3)
	if signer.ID() != 3 {
		t.Errorf("signer.ID() = %v, want p3", signer.ID())
	}
}

func TestByName(t *testing.T) {
	for _, name := range Names() {
		s := ByName(name, 3, 1)
		if s == nil || s.Name() != name || s.N() != 3 {
			t.Errorf("ByName(%q) = %v", name, s)
		}
	}
	for _, name := range []string{"rsa", "insecure"} {
		if ByName(name, 3, 1) != nil {
			t.Errorf("ByName(%q) should return nil", name)
		}
	}
}

func BenchmarkSignEd25519(b *testing.B) {
	s := NewEd25519(1, 1)
	signer := s.SignerFor(0)
	msg := make([]byte, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		signer.Sign(msg)
	}
}

func BenchmarkVerifyEd25519(b *testing.B) {
	s := NewEd25519(1, 1)
	v := s.Verifier()
	msg := make([]byte, 256)
	sg := s.SignerFor(0).Sign(msg)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !v.Verify(0, msg, sg) {
			b.Fatal("verify failed")
		}
	}
}

func BenchmarkSignHMAC(b *testing.B) {
	s := NewHMAC(1, 1)
	signer := s.SignerFor(0)
	msg := make([]byte, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		signer.Sign(msg)
	}
}

func BenchmarkVerifyHMAC(b *testing.B) {
	s := NewHMAC(1, 1)
	v := s.Verifier()
	msg := make([]byte, 256)
	sg := s.SignerFor(0).Sign(msg)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !v.Verify(0, msg, sg) {
			b.Fatal("verify failed")
		}
	}
}

// referenceHMACTag is the construction the scheme documents, built with
// the standard library: HMAC-SHA256(key, 0x01‖msg) under the node's derived
// key, followed by 32 zero bytes. It stays in the test file; the scheme
// itself never calls crypto/hmac.New.
func referenceHMACTag(seed int64, id ids.NodeID, msg []byte) []byte {
	key := deriveSeed(seed, uint32(id), "hmac-key")
	mac := hmac.New(sha256.New, key[:])
	mac.Write([]byte{0x01})
	mac.Write(msg)
	return append(mac.Sum(nil), make([]byte, 32)...)
}

// TestHMACMatchesReference: the keyed-midstate signatures are bit-identical
// to the crypto/hmac construction, for several keys and for message lengths
// on both sides of every SHA-256 padding boundary (the inner hash has
// already absorbed 65 bytes, so 54/55/56 and 63/64/65 straddle the block
// and length-field edges).
func TestHMACMatchesReference(t *testing.T) {
	lengths := []int{0, 1, 54, 55, 56, 63, 64, 65, 500, 5000}
	for _, seed := range []int64{1, 7, -3} {
		s := NewHMAC(5, seed)
		v := s.Verifier()
		for id := ids.NodeID(0); id < 5; id++ {
			signer := s.SignerFor(id)
			for _, n := range lengths {
				msg := make([]byte, n)
				for i := range msg {
					msg[i] = byte(i*31 + n + int(id))
				}
				want := referenceHMACTag(seed, id, msg)
				if got := signer.Sign(msg); !bytes.Equal(got, want) {
					t.Fatalf("seed %d node %v len %d: tag diverges from crypto/hmac", seed, id, n)
				}
				if !v.Verify(id, msg, want) {
					t.Errorf("seed %d node %v len %d: reference tag rejected", seed, id, n)
				}
			}
		}
	}
}

// marshalOnly hides a digest's AppendBinary: the digest of a toolchain
// before Go 1.24.
type marshalOnly struct{ sha256State }

// TestHMACMidstatesAreMarshaled: the midstates NewHMAC appends to its slab
// are byte for byte what MarshalBinary returns for the same pad blocks,
// whether the digest appends them (AppendBinary, Go ≥ 1.24) or only
// marshals them.
func TestHMACMidstatesAreMarshaled(t *testing.T) {
	const n, seed = 5, 9
	var want []byte
	for id := 0; id < n; id++ {
		key := deriveSeed(seed, uint32(id), "hmac-key")
		for _, pad := range []byte{0x36, 0x5c} {
			block := bytes.Repeat([]byte{pad}, sha256.BlockSize)
			for j, b := range key {
				block[j] ^= b
			}
			d := newSHA256State()
			d.Write(block)
			if pad == 0x36 {
				d.Write(hmacDomain[:])
			}
			st, err := d.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, st...)
		}
	}
	_, appends := newSHA256State().(binaryAppender)
	t.Logf("this toolchain's digest appends: %v", appends)
	for name, s := range map[string]*HMAC{
		"NewHMAC":      NewHMAC(n, seed),
		"marshal only": newHMAC(n, seed, marshalOnly{newSHA256State()}),
	} {
		if !bytes.Equal(s.states, want) {
			t.Errorf("%s: midstates (%d bytes) differ from MarshalBinary's (%d bytes)", name, len(s.states), len(want))
		}
		if s.stride*2*n != len(want) {
			t.Errorf("%s: stride %d, want %d", name, s.stride, len(want)/(2*n))
		}
	}
}

// TestHMACRejectsAlteredSignature: Verify accepts Sign's output and nothing
// else — not a single flipped bit in the tag or in the zero filler, not the
// signature cut short or extended, not the right bytes under another signer.
func TestHMACRejectsAlteredSignature(t *testing.T) {
	s := NewHMAC(3, 5)
	v := s.Verifier()
	msg := []byte("altered")
	sg := s.SignerFor(1).Sign(msg)
	if !v.Verify(1, msg, sg) {
		t.Fatal("valid signature rejected")
	}
	for i := range sg {
		for _, mask := range []byte{0x01, 0x80, 0xFF} {
			bad := bytes.Clone(sg)
			bad[i] ^= mask
			if v.Verify(1, msg, bad) {
				t.Errorf("byte %d ^ %#02x accepted", i, mask)
			}
		}
	}
	for _, bad := range [][]byte{nil, sg[:len(sg)-1], sg[:sha256.Size], append(bytes.Clone(sg), 0)} {
		if v.Verify(1, msg, bad) {
			t.Errorf("%d-byte signature accepted", len(bad))
		}
	}
	for _, other := range []ids.NodeID{0, 2} {
		if v.Verify(other, msg, sg) {
			t.Errorf("p1's signature accepted as %v's", other)
		}
	}
}

// FuzzHMACVerify: for any (signer, msg, sig), Verify holds exactly when sig
// is what the signer's Sign returns for msg, and never panics — whatever
// the signer index, the message or the signature's length and bytes.
func FuzzHMACVerify(f *testing.F) {
	const n = 4
	s := NewHMAC(n, 2)
	v := s.Verifier()
	msg := []byte("fuzzed")
	good := s.SignerFor(3).Sign(msg)
	filler := bytes.Clone(good)
	filler[len(filler)-1] = 1
	f.Add(uint32(3), msg, good)
	f.Add(uint32(3), msg, filler)
	f.Add(uint32(2), msg, good)
	f.Add(uint32(n), msg, good)
	f.Add(uint32(3), msg, good[:sha256.Size])
	f.Add(uint32(0), []byte{}, []byte{})
	f.Fuzz(func(t *testing.T, signer uint32, msg, sg []byte) {
		want := signer < n && bytes.Equal(sg, s.SignerFor(ids.NodeID(signer)).Sign(msg))
		if got := v.Verify(ids.NodeID(signer), msg, sg); got != want {
			t.Fatalf("Verify(%d, %x, %x) = %v, want %v", signer, msg, sg, got, want)
		}
	})
}

// TestHMACAllocs pins the hot path: Verify allocates nothing, Sign only
// the signature it returns.
func TestHMACAllocs(t *testing.T) {
	s := NewHMAC(2, 1)
	signer, v := s.SignerFor(1), s.Verifier()
	msg := make([]byte, 300)
	sg := signer.Sign(msg)
	if a := testing.AllocsPerRun(200, func() {
		if !v.Verify(1, msg, sg) {
			t.Fatal("valid signature rejected")
		}
	}); a != 0 {
		t.Errorf("Verify allocates %.0f objects/op, want 0", a)
	}
	if a := testing.AllocsPerRun(200, func() { sg = signer.Sign(msg) }); a > 1 {
		t.Errorf("Sign allocates %.0f objects/op, want <= 1", a)
	}
}

// TestAppendSignMatchesSign: under each built-in scheme AppendSign appends
// exactly the bytes Sign returns — behind whatever dst already holds, which
// it leaves alone, and in place when dst has the room, which is what lets a
// relay sign into its hop slot (DESIGN.md §4).
func TestAppendSignMatchesSign(t *testing.T) {
	prefix := []byte("prefix")
	for _, name := range Names() {
		s := ByName(name, 4, 7)
		signer := s.SignerFor(2)
		as, ok := signer.(AppendSigner)
		if !ok {
			t.Fatalf("%s: signer has no AppendSign", name)
		}
		for _, msg := range [][]byte{nil, []byte("m"), bytes.Repeat([]byte{0xA5}, 300)} {
			want := signer.Sign(msg)
			if len(want) != s.Verifier().SigSize() {
				t.Fatalf("%s: Sign returned %d bytes, want %d", name, len(want), s.Verifier().SigSize())
			}
			if got := as.AppendSign(nil, msg); !bytes.Equal(got, want) {
				t.Errorf("%s: AppendSign(nil) differs from Sign", name)
			}
			// dst full: the result is a new array, dst's bytes in front.
			if got := as.AppendSign(bytes.Clone(prefix), msg); !bytes.Equal(got, append(bytes.Clone(prefix), want...)) {
				t.Errorf("%s: AppendSign onto a full dst is not dst followed by Sign's bytes", name)
			}
			// dst with room to spare: extended where it is, nothing beyond touched.
			buf := bytes.Repeat([]byte{0xEE}, len(prefix)+len(want)+8)
			got := as.AppendSign(buf[:copy(buf, prefix)], msg)
			if &got[0] != &buf[0] {
				t.Errorf("%s: AppendSign moved a dst that had the capacity", name)
			}
			if !bytes.Equal(buf, append(append(bytes.Clone(prefix), want...), bytes.Repeat([]byte{0xEE}, 8)...)) {
				t.Errorf("%s: AppendSign in place left other bytes than prefix, signature, untouched spare", name)
			}
		}
	}
}

// TestAppendSignAllocs pins what the seam is for: signing into memory the
// caller owns allocates nothing under HMAC and the ablation schemes. Under
// Ed25519 it is strictly fewer objects than Sign — ed25519.Sign's result
// stays on the stack — and what remains is the standard library's own, which
// differs between Go releases.
func TestAppendSignAllocs(t *testing.T) {
	msg := make([]byte, 300)
	for _, name := range Names() {
		s := ByName(name, 2, 1)
		signer := s.SignerFor(1)
		as := signer.(AppendSigner)
		slot := make([]byte, 0, s.Verifier().SigSize())
		appendAllocs := testing.AllocsPerRun(200, func() { as.AppendSign(slot, msg) })
		signAllocs := testing.AllocsPerRun(200, func() { signer.Sign(msg) })
		t.Logf("%s: AppendSign %.0f objects/op, Sign %.0f", name, appendAllocs, signAllocs)
		if name == "ed25519" {
			if appendAllocs >= signAllocs {
				t.Errorf("ed25519: AppendSign allocates %.0f objects/op, Sign %.0f: want strictly fewer", appendAllocs, signAllocs)
			}
		} else if appendAllocs != 0 {
			t.Errorf("%s: AppendSign allocates %.0f objects/op, want 0", name, appendAllocs)
		}
	}
}

// TestHMACConcurrent: signers and the shared verifier draw their scratch
// from a pool, so concurrent use must stay correct; run under -race.
func TestHMACConcurrent(t *testing.T) {
	s := NewHMAC(4, 9)
	v := s.Verifier()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := ids.NodeID(w % 4)
			signer := s.SignerFor(id)
			for i := 0; i < 200; i++ {
				msg := []byte{byte(w), byte(i), 0xAB}
				sg := signer.Sign(msg)
				if !bytes.Equal(sg, referenceHMACTag(9, id, msg)) || !v.Verify(id, msg, sg) {
					t.Errorf("worker %d: bad tag on iteration %d", w, i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestBindsMessage(t *testing.T) {
	want := map[string]bool{"ed25519": true, "hmac": true, "slim": false}
	for _, name := range Names() {
		if got := ByName(name, 2, 1).Verifier().BindsMessage(); got != want[name] {
			t.Errorf("%s: BindsMessage() = %v, want %v", name, got, want[name])
		}
	}
}

// TestUnboundVerifyIsRangeAndWidth pins the contract BindsMessage() ==
// false makes, which NECTAR's signer walk runs in place of Verify: the
// verdict is exactly signer < n && len(sig) == SigSize(), whatever the
// message and the signature's bytes. Signers, messages and signature bytes
// are random, signers and widths clustered around the two boundaries.
func TestUnboundVerifyIsRangeAndWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n = 48
	for _, s := range []Scheme{NewInsecure(n, Ed25519SigSize), NewSlim(n)} {
		v := s.Verifier()
		if v.BindsMessage() {
			t.Fatalf("%s binds the message", s.Name())
		}
		size := v.SigSize()
		accepted := 0
		for i := 0; i < 20000; i++ {
			var signer ids.NodeID
			switch rng.Intn(4) {
			case 0:
				signer = ids.NodeID(rng.Intn(n))
			case 1:
				signer = ids.NodeID(n - 2 + rng.Intn(4))
			case 2:
				signer = ids.NodeID(math.MaxUint32 - rng.Intn(2))
			default:
				signer = ids.NodeID(rng.Uint32())
			}
			width := size
			if rng.Intn(2) == 0 {
				width = max(0, size-2+rng.Intn(5))
			}
			msg, sg := make([]byte, rng.Intn(100)), make([]byte, width)
			rng.Read(msg)
			rng.Read(sg)
			if rng.Intn(4) == 0 && int(signer) < n { // the signer's own tag
				sg = s.SignerFor(signer).Sign(msg)
			}
			want := int(signer) < n && len(sg) == size
			if got := v.Verify(signer, msg, sg); got != want {
				t.Fatalf("%s: Verify(%d, %d-byte msg, %d-byte sig) = %v, want %v", s.Name(), signer, len(msg), len(sg), got, want)
			}
			if want {
				accepted++
			}
		}
		if accepted == 0 {
			t.Fatalf("%s: no draw was accepted", s.Name())
		}
	}
}
