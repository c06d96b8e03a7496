package nectar

import (
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/nectar-repro/nectar/internal/graph"
	"github.com/nectar-repro/nectar/internal/ids"
	"github.com/nectar-repro/nectar/internal/sig"
	"github.com/nectar-repro/nectar/internal/wire"
)

// EdgeMsg is the protocol message: a proof of neighborhood wrapped in a
// signature chain σ_k(...σ_x(proof_{u,v})). The chain grows by exactly one
// hop per relay round, so lengthSign(msg) — len(Chain) — must equal the
// round number in which the message is received (Alg. 1 l. 14).
type EdgeMsg struct {
	Proof Proof
	Chain []sig.Hop
}

// Encode serializes the message with fixed-width signatures.
func (m EdgeMsg) Encode(sigSize int) []byte {
	w := wire.NewWriter(proofWireSize(sigSize) + 2 + len(m.Chain)*sig.HopWireSize(sigSize))
	m.encodeTo(w, sigSize)
	return w.Bytes()
}

// encodeTo appends the encoded message to w — the arena-reuse entry point
// of the emit path: Node encodes a whole round into one scratch Writer and
// hands out sub-slices (DESIGN.md §9).
func (m EdgeMsg) encodeTo(w *wire.Writer, sigSize int) {
	m.Proof.encode(w, sigSize)
	sig.EncodeHops(w, m.Chain, sigSize)
}

// Copy returns a deep copy of the message whose signature slices own their
// memory, for retaining a message decoded zero-copy from a delivered buffer.
func (m EdgeMsg) Copy() EdgeMsg {
	m.Proof.SigU = append([]byte(nil), m.Proof.SigU...)
	m.Proof.SigV = append([]byte(nil), m.Proof.SigV...)
	chain := make([]sig.Hop, len(m.Chain))
	for i, h := range m.Chain {
		chain[i] = sig.Hop{Signer: h.Signer, Sig: append([]byte(nil), h.Sig...)}
	}
	m.Chain = chain
	return m
}

// MsgWireSize returns the encoded size of an EdgeMsg whose chain has the
// given number of hops — the per-message cost model of §IV-E.
func MsgWireSize(sigSize, hops int) int {
	return proofWireSize(sigSize) + 2 + hops*sig.HopWireSize(sigSize)
}

// DecodeEdgeHeader reads only the leading edge endpoints of an encoded
// EdgeMsg, validating their structure (in range, canonical U < V order)
// and nothing else. It is the allocation-free first step of the lazy
// header-first decode (DESIGN.md §9): a flood delivers every edge many
// times, and duplicates are identified from these 8 bytes alone — no
// signature bytes are touched, no hop slice is allocated.
func DecodeEdgeHeader(data []byte, n int) (graph.Edge, error) {
	r := wire.ReaderOf(data)
	u, v := r.NodeID(), r.NodeID()
	if err := r.Err(); err != nil {
		return graph.Edge{}, err
	}
	if u >= v || int(v) >= n {
		return graph.Edge{}, errBadProof
	}
	return graph.Edge{U: u, V: v}, nil
}

// DecodeEdgeMsg parses an EdgeMsg, validating structure only (framing,
// endpoint ranges, full consumption). Signature validity, chain length and
// signer policy are checked separately by checkMsg. The result owns its
// memory. Together the two are the reference that checkRaw, Deliver's one
// pass over the wire bytes, is tested against.
func DecodeEdgeMsg(data []byte, sigSize, n int) (EdgeMsg, error) {
	r := wire.ReaderOf(data)
	p, err := decodeProofNoCopy(&r, sigSize, n)
	if err != nil {
		return EdgeMsg{}, err
	}
	chain := sig.DecodeHopsNoCopy(&r, sigSize)
	if err := r.Close(); err != nil {
		return EdgeMsg{}, err
	}
	return EdgeMsg{Proof: p, Chain: chain}.Copy(), nil
}

// ForgeEdgeMsg builds a round-1 announcement of the edge between the two
// signers, initiated (first chain hop) by initiator. Setup code uses it
// indirectly through Node; Byzantine pairs use it directly to announce
// fictitious edges between themselves — which the model permits, since
// both endpoint signatures are theirs to give (§II).
func ForgeEdgeMsg(initiator, other sig.Signer) EdgeMsg {
	p := MakeProof(initiator, other)
	return EdgeMsg{
		Proof: p,
		Chain: sig.AppendHop(initiator, proofStatement(p.Edge), nil),
	}
}

// Chain policy errors, surfaced by acceptability checks and useful to
// tests and robustness metrics.
var (
	errChainLength    = errors.New("nectar: chain length differs from round")
	errChainSigners   = errors.New("nectar: duplicate signer in chain")
	errChainInitiator = errors.New("nectar: chain initiator is not a proof endpoint")
	errChainSender    = errors.New("nectar: outermost signer is not the delivering neighbor")
	errChainSig       = errors.New("nectar: invalid signature in chain")
	errProofSig       = errors.New("nectar: invalid proof of neighborhood")
)

// checkMsg applies the full acceptance policy of Alg. 1 for a message
// delivered by neighbor `from` in round `round`:
//
//  1. lengthSign(msg) = round — late or replayed chains are discarded;
//  2. pairwise-distinct signers (Dolev–Strong requirement of Lemma 2);
//  3. the innermost signer is an endpoint of the carried proof (a node
//     only initiates dissemination of its own edges, Alg. 1 ll. 6-8);
//  4. the outermost signer is the delivering neighbor ("when msg =
//     σ_k(...) from k", Alg. 1 l. 13);
//  5. the proof carries both endpoint signatures;
//  6. every chain hop signature verifies.
//
// Cheap structural checks run first so that the expensive signature
// verifications only happen for plausible messages.
func checkMsg(v sig.Verifier, m EdgeMsg, from ids.NodeID, round int) error {
	if len(m.Chain) != round {
		return fmt.Errorf("%w: %d hops in round %d", errChainLength, len(m.Chain), round)
	}
	if !sig.DistinctSigners(m.Chain) {
		return errChainSigners
	}
	init := m.Chain[0].Signer
	if init != m.Proof.Edge.U && init != m.Proof.Edge.V {
		return fmt.Errorf("%w: %v for edge %v", errChainInitiator, init, m.Proof.Edge)
	}
	if last := m.Chain[len(m.Chain)-1].Signer; last != from {
		return fmt.Errorf("%w: signed %v, delivered by %v", errChainSender, last, from)
	}
	stmt := proofStatement(m.Proof.Edge)
	if !m.Proof.verifyStmt(v, stmt) {
		return errProofSig
	}
	if !sig.VerifyChain(v, stmt, m.Chain) {
		return errChainSig
	}
	return nil
}

// msgScratch carries the reusable buffers of a node's sign and verify
// paths — the proof-statement writer and the chain signing-input scratch
// (DESIGN.md §14) — and the run's boards and proof ledger, if the scheme
// binds the message. The zero value is ready; not safe for concurrent use.
type msgScratch struct {
	stmt  wire.Writer
	cs    sig.ChainScratch
	cache *sig.VerifyCache
}

// statement returns the proof statement for e, or nil when v's scheme does
// not bind the message: no signature under it depends on what was signed,
// so a relay builds no signing input at all (sig.ChainScratch).
func (sc *msgScratch) statement(v sig.Verifier, e graph.Edge) []byte {
	if !v.BindsMessage() {
		return nil
	}
	return proofStatementInto(&sc.stmt, e)
}

// checkRaw is DecodeEdgeMsg followed by checkMsg in one pass over the wire
// bytes: the same checks in the same order with the same verdict — and,
// without a cache, the same Verify calls under a scheme that binds the
// message, none under one that does not — but every field is read in place
// at its fixed offset: nothing is decoded into an EdgeMsg, no []sig.Hop
// exists, and a rejection allocates no error. It returns the carried edge
// and the hop count the reference would have decoded when it failed: 0
// until the framing is known to be sound.
func (sc *msgScratch) checkRaw(v sig.Verifier, data []byte, n int, from ids.NodeID, round int) (graph.Edge, int, error) {
	if len(data) < proofWireSize(v.SigSize()) { // the reference reads the whole proof before its endpoints
		return graph.Edge{}, 0, wire.ErrTruncated
	}
	e, err := DecodeEdgeHeader(data, n)
	if err != nil {
		return e, 0, err
	}
	hops, err := sc.checkBody(v, e, data, n, from, round)
	return e, hops, err
}

// checkBody is checkRaw past the edge header, for a caller that has decoded
// it already: e is DecodeEdgeHeader(data, n). Under a scheme that does not
// bind the message it makes no Verify call: such a Verify accepts exactly a
// signer below the scheme's n with a signature of its width
// (sig.Verifier.BindsMessage), the framing fixes every width, the header
// bounds both proof endpoints, and the signer walk bounds the chain's — to
// the node's n, so a signer no node of the system has is chain_sig even
// under a scheme built for more.
func (sc *msgScratch) checkBody(v sig.Verifier, e graph.Edge, data []byte, n int, from ids.NodeID, round int) (int, error) {
	sigSize := v.SigSize()
	ps, hop := proofWireSize(sigSize), sig.HopWireSize(sigSize)
	if len(data) < ps+2 {
		return 0, wire.ErrTruncated
	}
	count, rawHops := int(binary.BigEndian.Uint16(data[ps:])), data[ps+2:]
	if len(rawHops) < count*hop {
		return 0, wire.ErrTruncated
	}
	if len(rawHops) > count*hop {
		return 0, wire.ErrTrailing
	}
	if count != round {
		return count, errChainLength
	}
	distinct, inRange := sc.cs.DistinctRawSigners(rawHops, sigSize, n)
	if !distinct {
		return count, errChainSigners
	}
	if init := ids.NodeID(binary.BigEndian.Uint32(rawHops)); init != e.U && init != e.V {
		return count, errChainInitiator
	}
	if last := ids.NodeID(binary.BigEndian.Uint32(rawHops[len(rawHops)-hop:])); last != from {
		return count, errChainSender
	}
	if v.BindsMessage() {
		return count, sc.checkSigs(v, e, data[:ps], rawHops, round)
	}
	if !inRange {
		return count, errChainSig
	}
	return count, nil
}

// checkSigs runs checkMsg's signature checks — the proof's two, then the
// chain's in order — on a message's wire bytes proof ‖ hops, delivered in
// round (0 for NewNode's bare proofs). A node with a cache (DESIGN.md §9)
// asks it first: a delivery, the board of its outermost signer, whom
// checkBody has found to be the sender — if it posted these bytes this
// round, they are valid (a relay the sender left unsigned is signed there
// first, into the very bytes delivered); a bare proof, the proof ledger,
// where the edge's other endpoint may have recorded its verdict on these
// bytes. Otherwise
// every signature is verified, and a bare proof's verdict recorded.
// Deliver enters it only under a scheme that binds the message
// (checkBody); NewNode checks every scheme's proofs here.
func (sc *msgScratch) checkSigs(v sig.Verifier, e graph.Edge, proof, rawHops []byte, round int) error {
	sigSize := v.SigSize()
	edge := uint64(e.U)<<32 | uint64(e.V)
	valid, found := false, false
	if sc.cache != nil {
		if len(rawHops) == 0 {
			valid, found = sc.cache.Proven(edge, proof)
		} else if sc.cache.Vouched(lastSigner(rawHops, sigSize), round, proof, rawHops, &sc.cs) {
			return nil
		}
	}
	stmt := proofStatementInto(&sc.stmt, e)
	if !found {
		valid = v.Verify(e.U, stmt, proof[8:8+sigSize]) && v.Verify(e.V, stmt, proof[8+sigSize:])
		if sc.cache != nil && len(rawHops) == 0 {
			sc.cache.Prove(edge, proof, valid)
		}
	}
	if !valid {
		return errProofSig
	}
	if !sc.cs.VerifyRawChain(v, stmt, rawHops, 0) {
		return errChainSig
	}
	return nil
}

// lastSigner returns the signer of a chain's last hop, whose board a
// delivery check asks. rawHops is not empty.
func lastSigner(rawHops []byte, sigSize int) ids.NodeID {
	return ids.NodeID(binary.BigEndian.Uint32(rawHops[len(rawHops)-sig.HopWireSize(sigSize):]))
}
