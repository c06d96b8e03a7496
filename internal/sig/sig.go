// Package sig provides the digital-signature substrate of the system
// model (§II): every node can sign messages, every node can verify every
// other node's signatures, and Byzantine nodes cannot forge the signatures
// of correct nodes.
//
// Three kinds of scheme are provided:
//
//   - Ed25519 (stdlib crypto/ed25519) — a real asymmetric scheme,
//     substituting for the paper's ECDSA (same 64-byte signature order of
//     magnitude, see DESIGN.md §4). Used by default in tests, examples and
//     the TCP deployment.
//   - HMAC — a keyed simulation scheme with identical signature sizes,
//     used for the large benchmark sweeps: one HMAC-SHA256 tag per
//     signature, zero-filled to Ed25519's width and computed from per-key
//     SHA-256 midstates so it costs the hashing and nothing else.
//     Unforgeability holds *within the simulation* by capability
//     discipline: protocol code (including adversaries) signs only through
//     the Signer handle bound to its own identity.
//   - Slim, the 4-byte Insecure scheme — no crypto at all, for cost and
//     scale runs (tests build wider ones with NewInsecure). Its signatures
//     do not bind the message (Verifier.BindsMessage reports false).
//
// Signers are distributed as capabilities: a node — correct or Byzantine —
// receives only SignerFor(its own ID) plus the shared Verifier, which
// cannot produce signatures on behalf of others (for Ed25519,
// cryptographically; for HMAC, by interface discipline).
//
// VerifyCache is what the nodes of a run share to skip verifications
// (DESIGN.md §9): the signers' boards and the proof ledger, with hit/miss
// counts that are a pure function of the checks made.
package sig

import (
	"crypto/ed25519"
	"crypto/hmac"
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"fmt"
	"hash"
	"slices"
	"strings"
	"sync"

	"github.com/nectar-repro/nectar/internal/ids"
)

// Signer signs messages on behalf of a single node.
type Signer interface {
	// ID returns the node identity this signer is bound to.
	ID() ids.NodeID
	// Sign returns a signature over msg by ID().
	Sign(msg []byte) []byte
}

// Verifier checks signatures of any node in the system.
type Verifier interface {
	// Verify reports whether sg is a valid signature over msg by signer.
	Verify(signer ids.NodeID, msg, sg []byte) bool
	// SigSize returns the fixed signature length in bytes.
	SigSize() int
	// BindsMessage reports whether a signature commits to the message it
	// signs, i.e. whether Verify's verdict depends on msg. It is a property
	// of the scheme: true for Ed25519 and HMAC, false for slim (any
	// Insecure width), whose one constant tag per signer verifies for any
	// message. False is a contract: Verify(s, msg, sg) is then exactly
	// s < n && len(sg) == SigSize() for the scheme's n, so a caller may run
	// that test instead of the call. A NECTAR node reads it to check an
	// unbound chain in its signer walk (ChainScratch.DistinctRawSigners)
	// and to decide whether the boards and the proof ledger can pay.
	BindsMessage() bool
}

// Scheme is a signature scheme instantiated for a fixed population of n
// nodes with pre-distributed keys (the PKI-at-setup assumption of §II).
type Scheme interface {
	// Name identifies the scheme ("ed25519", "hmac", "slim", "insecure").
	Name() string
	// N returns the population size the scheme was built for.
	N() int
	// SignerFor returns the signing capability of the given node.
	SignerFor(id ids.NodeID) Signer
	// Verifier returns the shared verification capability.
	Verifier() Verifier
}

// AppendSigner is the optional append-style form of a Signer (DESIGN.md §4),
// which the signers of every built-in scheme have: a caller that has already
// reserved the signature's place — a hop slot in an encode arena, a slab of
// proofs — signs into it instead of copying out of a slice Sign allocated.
// A Signer without it (a wrapper that embeds a Signer and overrides Sign,
// say) is signed through Sign and a copy, and so goes on seeing every call.
type AppendSigner interface {
	// AppendSign appends the signature Sign(msg) returns to dst, as append
	// does — in place when dst has the capacity — and returns the extended
	// slice. It does not retain dst or msg.
	AppendSign(dst, msg []byte) []byte
}

// deriveSeed expands (seed, id, domain) into 32 deterministic bytes, used
// to generate per-node key material reproducibly.
func deriveSeed(seed int64, id uint32, domain string) [32]byte {
	var b [12 + 32]byte // SHA-256(seed ‖ id ‖ domain), hashed off the stack
	binary.BigEndian.PutUint64(b[:8], uint64(seed))
	binary.BigEndian.PutUint32(b[8:], id)
	if len(domain) > len(b)-12 {
		panic("sig: key domain longer than 32 bytes")
	}
	return sha256.Sum256(b[:12+copy(b[12:], domain)])
}

// ---- Ed25519 ----

// Ed25519SigSize is the length of Ed25519 signatures.
const Ed25519SigSize = ed25519.SignatureSize

// Ed25519 is a Scheme backed by stdlib crypto/ed25519 with keys derived
// deterministically from a seed.
type Ed25519 struct {
	signers []ed25519Signer
	pub     []ed25519.PublicKey
}

type ed25519Signer struct {
	id   ids.NodeID
	priv ed25519.PrivateKey
}

var _ Scheme = (*Ed25519)(nil)

// NewEd25519 generates deterministic keypairs for n nodes from seed.
func NewEd25519(n int, seed int64) *Ed25519 {
	s := &Ed25519{
		signers: make([]ed25519Signer, n),
		pub:     make([]ed25519.PublicKey, n),
	}
	for i := 0; i < n; i++ {
		ks := deriveSeed(seed, uint32(i), "ed25519-key")
		priv := ed25519.NewKeyFromSeed(ks[:])
		s.signers[i] = ed25519Signer{id: ids.NodeID(i), priv: priv}
		s.pub[i] = priv.Public().(ed25519.PublicKey)
	}
	return s
}

// Name implements Scheme.
func (s *Ed25519) Name() string { return "ed25519" }

// N implements Scheme.
func (s *Ed25519) N() int { return len(s.signers) }

// SignerFor implements Scheme.
func (s *Ed25519) SignerFor(id ids.NodeID) Signer { return &s.signers[id] }

func (s *ed25519Signer) ID() ids.NodeID { return s.id }

func (s *ed25519Signer) Sign(msg []byte) []byte {
	return s.AppendSign(make([]byte, 0, Ed25519SigSize), msg)
}

// AppendSign implements AppendSigner. ed25519.Sign is written to inline, so
// the signature it makes stays on this frame and the append is its only copy.
func (s *ed25519Signer) AppendSign(dst, msg []byte) []byte {
	return append(dst, ed25519.Sign(s.priv, msg)...)
}

// Verifier implements Scheme.
func (s *Ed25519) Verifier() Verifier { return ed25519Verifier{s} }

type ed25519Verifier struct{ s *Ed25519 }

func (v ed25519Verifier) Verify(signer ids.NodeID, msg, sg []byte) bool {
	if int(signer) >= len(v.s.pub) || len(sg) != ed25519.SignatureSize {
		return false
	}
	return ed25519.Verify(v.s.pub[signer], msg, sg)
}

func (v ed25519Verifier) SigSize() int { return Ed25519SigSize }

func (v ed25519Verifier) BindsMessage() bool { return true }

// ---- HMAC simulation scheme ----

// hmacSigSize is the HMAC scheme's signature width: Ed25519's, a SHA-256
// tag and as many zero bytes again.
const hmacSigSize = Ed25519SigSize

// hmacFiller pads a tag to hmacSigSize.
var hmacFiller [hmacSigSize - sha256.Size]byte

// hmacDomain is the byte every signed message is prefixed with.
var hmacDomain = [1]byte{0x01}

// HMAC is the fast simulation Scheme: a signature over msg by node i is
//
//	HMAC-SHA256(keyᵢ, 0x01‖msg) ‖ 0³²
//
// under per-node keys derived from a master seed — the same 64-byte wire
// size as Ed25519, so cost measurements are unchanged. Verify requires the
// filler to be zero, so any altered signature is rejected, as under
// Ed25519.
//
// HMAC(k, m) = H(k⊕opad ‖ H(k⊕ipad ‖ m)), and both pad blocks depend on
// the key alone. NewHMAC therefore hashes them once per node and keeps the
// SHA-256 midstates; a tag restores a midstate into a pooled scratch
// digest and hashes only the message and the inner digest, so signing
// costs what the hash costs — no per-tag digest, pad or key-schedule
// allocation (DESIGN.md §4). Signers and the Verifier are safe for
// concurrent use.
type HMAC struct {
	n int
	// states holds, per node, two marshaled SHA-256 states of stride bytes
	// each, appended to one slab: the inner hash after key⊕ipad‖0x01 and
	// the outer hash after key⊕opad.
	states  []byte
	stride  int
	pool    sync.Pool // of *hmacScratch
	signers []hmacSigner
}

type hmacSigner struct {
	s  *HMAC
	id ids.NodeID
}

var _ Scheme = (*HMAC)(nil)

// sha256State is a SHA-256 digest whose running state can be saved and
// restored; crypto/sha256 digests have implemented it since go 1.10.
type sha256State interface {
	hash.Hash
	encoding.BinaryMarshaler
	encoding.BinaryUnmarshaler
}

func newSHA256State() sha256State { return sha256.New().(sha256State) }

// hmacScratch is the reusable state of one tag computation.
type hmacScratch struct {
	d     sha256State
	inner [sha256.Size]byte
	tag   [hmacSigSize]byte // Verify's expected signature
}

// binaryAppender is encoding.BinaryAppender, which SHA-256 digests
// implement from Go 1.24 on; declared here so the package builds on
// toolchains that have neither.
type binaryAppender interface {
	AppendBinary(b []byte) ([]byte, error)
}

// NewHMAC builds the HMAC scheme for n nodes from seed.
func NewHMAC(n int, seed int64) *HMAC { return newHMAC(n, seed, newSHA256State()) }

// newHMAC is NewHMAC hashing the pads with d.
func newHMAC(n int, seed int64, d sha256State) *HMAC {
	s := &HMAC{n: n, signers: make([]hmacSigner, n)}
	s.pool.New = func() any { return &hmacScratch{d: newSHA256State()} }
	app, appends := d.(binaryAppender)
	// Each midstate is appended to states: in place where the digest
	// appends, else marshaled and copied (the first always, to size the
	// slab). The bytes are the same.
	snapshot := func() {
		var err error
		if appends && s.states != nil {
			s.states, err = app.AppendBinary(s.states)
		} else {
			var st []byte
			st, err = d.MarshalBinary()
			if s.states == nil { // every state has the first one's size
				s.stride = len(st)
				s.states = make([]byte, 0, n*2*s.stride)
			}
			s.states = append(s.states, st...)
		}
		if err != nil { // never, for a SHA-256 digest: a toolchain bug
			panic("sig: marshaling SHA-256 state: " + err.Error())
		}
	}
	// The pads reach the digest through an interface, so they escape: one
	// pair for every key, not a pair per key.
	ipad, opad := new([sha256.BlockSize]byte), new([sha256.BlockSize]byte)
	for i := 0; i < n; i++ {
		s.signers[i] = hmacSigner{s: s, id: ids.NodeID(i)}
		key := deriveSeed(seed, uint32(i), "hmac-key")
		for j := range ipad {
			ipad[j], opad[j] = 0x36, 0x5c
		}
		for j, b := range key {
			ipad[j] ^= b
			opad[j] ^= b
		}
		d.Reset()
		d.Write(ipad[:])
		d.Write(hmacDomain[:])
		snapshot()
		d.Reset()
		d.Write(opad[:])
		snapshot()
	}
	return s
}

// Name implements Scheme.
func (s *HMAC) Name() string { return "hmac" }

// N implements Scheme.
func (s *HMAC) N() int { return s.n }

// restore loads a marshaled midstate into the scratch digest.
func (sc *hmacScratch) restore(state []byte) {
	if err := sc.d.UnmarshalBinary(state); err != nil {
		panic("sig: restoring SHA-256 state: " + err.Error())
	}
}

// appendTag appends id's signature over msg to out: the tag, then the filler.
func (s *HMAC) appendTag(sc *hmacScratch, id ids.NodeID, msg, out []byte) []byte {
	st := s.states[int(id)*2*s.stride:][:2*s.stride]
	sc.restore(st[:s.stride])
	sc.d.Write(msg)
	inner := sc.d.Sum(sc.inner[:0])
	sc.restore(st[s.stride:])
	sc.d.Write(inner)
	return append(sc.d.Sum(out), hmacFiller[:]...)
}

// SignerFor implements Scheme.
func (s *HMAC) SignerFor(id ids.NodeID) Signer { return &s.signers[id] }

func (h *hmacSigner) ID() ids.NodeID { return h.id }

func (h *hmacSigner) Sign(msg []byte) []byte {
	return h.AppendSign(make([]byte, 0, hmacSigSize), msg)
}

// AppendSign implements AppendSigner: the tag goes from the pooled scratch
// digest straight to dst, the filler behind it.
func (h *hmacSigner) AppendSign(dst, msg []byte) []byte {
	sc := h.s.pool.Get().(*hmacScratch)
	dst = h.s.appendTag(sc, h.id, msg, dst)
	h.s.pool.Put(sc)
	return dst
}

// Verifier implements Scheme.
func (s *HMAC) Verifier() Verifier { return hmacVerifier{s} }

type hmacVerifier struct{ s *HMAC }

// Verify compares sg with the whole expected signature in constant time, so
// a non-zero filler fails like a wrong tag.
func (v hmacVerifier) Verify(signer ids.NodeID, msg, sg []byte) bool {
	if int(signer) >= v.s.n || len(sg) != hmacSigSize {
		return false
	}
	sc := v.s.pool.Get().(*hmacScratch)
	ok := hmac.Equal(sg, v.s.appendTag(sc, signer, msg, sc.tag[:0]))
	v.s.pool.Put(sc)
	return ok
}

func (v hmacVerifier) SigSize() int { return hmacSigSize }

func (v hmacVerifier) BindsMessage() bool { return true }

// ---- Insecure ablation scheme ----

// Insecure is a no-crypto Scheme for cost-only runs: signatures are
// constant-content byte strings of the configured size and verification
// only checks size and signer range. Never use where Byzantine behaviour
// matters. ByName offers it only as "slim".
type Insecure struct {
	n       int
	sigSize int
	name    string
	signers []insecureSigner // one per node, their tags carved from one slab
}

var _ Scheme = (*Insecure)(nil)

// NewInsecure builds the ablation scheme for n nodes with sigSize-byte
// pseudo-signatures.
func NewInsecure(n, sigSize int) *Insecure {
	return newInsecure(n, sigSize, "insecure")
}

// newInsecure builds the scheme's n signers and their tags up front, as
// NewHMAC does its midstates, so handing a node its signer allocates
// nothing.
func newInsecure(n, sigSize int, name string) *Insecure {
	s := &Insecure{n: n, sigSize: sigSize, name: name, signers: make([]insecureSigner, n)}
	tags := make([]byte, n*sigSize)
	for i := range s.signers {
		// A tag is the signer's ID, big-endian, in its first four bytes
		// when it has them, zeros elsewhere.
		tag := tags[i*sigSize:][:sigSize:sigSize]
		if sigSize >= 4 {
			binary.BigEndian.PutUint32(tag, uint32(i))
		}
		s.signers[i] = insecureSigner{id: ids.NodeID(i), tag: tag}
	}
	return s
}

// SlimSigSize is the "slim" scheme's signature width: just the 4-byte
// signer tag, the minimum SignerFor can stamp.
const SlimSigSize = 4

// NewSlim builds the large-n scaling scheme (DESIGN.md §14): the
// Insecure verifier with SlimSigSize-byte pseudo-signatures, so hop
// chains shrink ~8× (8 bytes a hop instead of 68).
func NewSlim(n int) *Insecure {
	return newInsecure(n, SlimSigSize, "slim")
}

// Name implements Scheme.
func (s *Insecure) Name() string { return s.name }

// N implements Scheme.
func (s *Insecure) N() int { return s.n }

// SignerFor implements Scheme. It returns the scheme's own signer for id,
// built with the scheme — the same one on every call, so it allocates
// nothing. It panics for id ≥ N, as HMAC's and Ed25519's do.
func (s *Insecure) SignerFor(id ids.NodeID) Signer { return &s.signers[id] }

type insecureSigner struct {
	id  ids.NodeID
	tag []byte
}

func (s *insecureSigner) ID() ids.NodeID { return s.id }

// Sign returns the same backing array on every call: the scheme exists
// for cost and scale ablations, where a per-signature allocation would
// mask the engine being measured. Signatures are immutable by convention
// everywhere downstream (encode, arena copy, cache key).
func (s *insecureSigner) Sign([]byte) []byte { return s.tag }

// AppendSign implements AppendSigner.
func (s *insecureSigner) AppendSign(dst, _ []byte) []byte { return append(dst, s.tag...) }

// Verifier implements Scheme.
func (s *Insecure) Verifier() Verifier { return insecureVerifier{s} }

type insecureVerifier struct{ s *Insecure }

func (v insecureVerifier) Verify(signer ids.NodeID, _ []byte, sg []byte) bool {
	return int(signer) < v.s.n && len(sg) == v.s.sigSize
}

func (v insecureVerifier) SigSize() int { return v.s.sigSize }

func (v insecureVerifier) BindsMessage() bool { return false }

// Names lists the scheme names ByName accepts, for error messages and
// flag validation.
func Names() []string { return []string{"ed25519", "hmac", "slim"} }

// CheckName rejects a name ByName does not know, naming the valid ones, so
// a misconfigured scheme fails before any key is generated. Callers prefix
// the error with their own package and resolve "" to their own default.
func CheckName(name string) error {
	if slices.Contains(Names(), name) {
		return nil
	}
	return fmt.Errorf("unknown scheme %q (valid: %s)", name, strings.Join(Names(), ", "))
}

// ByName constructs a scheme by name: "ed25519", "hmac" or "slim". Unknown
// names return nil.
func ByName(name string, n int, seed int64) Scheme {
	switch name {
	case "ed25519":
		return NewEd25519(n, seed)
	case "hmac":
		return NewHMAC(n, seed)
	case "slim":
		return NewSlim(n)
	}
	return nil
}
