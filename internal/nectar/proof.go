// Package nectar implements NECTAR (Neighbors Exploring Connections
// Toward Adversary Resilience), the paper's core contribution (§IV,
// Alg. 1): a t-Byzantine-resilient, 2t-sensitive network partition
// detection algorithm for arbitrary graphs under a synchronous model with
// signatures.
//
// Each node starts from its own neighborhood (with cryptographic proofs of
// neighborhood), disseminates edges in signed messages over n-1
// synchronous rounds — extending a signature chain by one hop per round —
// and finally decides from the reachability and vertex connectivity of the
// graph it discovered.
package nectar

import (
	"errors"
	"fmt"

	"github.com/nectar-repro/nectar/internal/graph"
	"github.com/nectar-repro/nectar/internal/ids"
	"github.com/nectar-repro/nectar/internal/sig"
	"github.com/nectar-repro/nectar/internal/wire"
)

// Proof is a proof of neighborhood (§II): a cryptographic object declaring
// the edge {U, V} that cannot be forged as long as at least one endpoint
// is correct — it carries one signature per endpoint over a canonical edge
// statement. Two colluding Byzantine endpoints *can* forge a proof for a
// fictitious edge between themselves, exactly as the model allows.
type Proof struct {
	Edge graph.Edge
	SigU []byte // Edge.U's signature over the statement
	SigV []byte // Edge.V's signature over the statement
}

// proofTag is the domain-separation prefix of every proof statement.
var proofTag = []byte("nbr-proof-v1")

// proofStatement returns the canonical byte statement both endpoints sign.
func proofStatement(e graph.Edge) []byte {
	w := statementWriter()
	return proofStatementInto(&w, e)
}

// statementWriter returns a writer with room for a proof statement. A build
// or a node keeps one for every statement it builds.
func statementWriter() wire.Writer { return wire.MakeWriter(24) }

// proofStatementInto rebuilds the canonical statement for e in w (reset
// first) and returns the encoded bytes — the allocation-free variant for
// per-message hot paths, which hold one statement writer per node. The
// returned slice is valid until the writer's next reset.
func proofStatementInto(w *wire.Writer, e graph.Edge) []byte {
	w.Reset()
	w.Raw(proofTag)
	w.NodeID(e.U)
	w.NodeID(e.V)
	return w.Bytes()
}

// MakeProof builds the proof of neighborhood for the edge between the two
// signers. Setup code uses it for real edges; Byzantine pairs may use it
// to forge fictitious edges between themselves (both signatures are
// theirs to give).
func MakeProof(a, b sig.Signer) Proof {
	// Room for two signatures of any built-in scheme; wider ones grow it.
	w := statementWriter()
	p, _ := appendProof(make([]byte, 0, 2*sig.Ed25519SigSize), &w, a, b)
	return p
}

// appendProof is MakeProof with both signatures appended to slab, which it
// returns extended, and the statement built in w — one slab and one writer
// can serve the proofs of a whole build.
func appendProof(slab []byte, w *wire.Writer, a, b sig.Signer) (Proof, []byte) {
	e := graph.NewEdge(a.ID(), b.ID())
	stmt := proofStatementInto(w, e)
	start := len(slab)
	slab = appendSigner(a).AppendSign(slab, stmt)
	mid := len(slab)
	slab = appendSigner(b).AppendSign(slab, stmt)
	// Capped, so that appending to one signature cannot write into the next.
	p := Proof{Edge: e, SigU: slab[start:mid:mid], SigV: slab[mid:len(slab):len(slab)]}
	if e.U != a.ID() {
		p.SigU, p.SigV = p.SigV, p.SigU
	}
	return p, slab
}

// signCopy is the append form of a Signer that has none of its own: Sign and
// a copy, so a wrapper that overrides Sign goes on seeing every signature.
type signCopy struct{ sig.Signer }

func (s signCopy) AppendSign(dst, msg []byte) []byte { return append(dst, s.Sign(msg)...) }

// appendSigner returns s's append form (sig.AppendSigner).
func appendSigner(s sig.Signer) sig.AppendSigner {
	if as, ok := s.(sig.AppendSigner); ok {
		return as
	}
	return signCopy{s}
}

// Verify reports whether both endpoint signatures are valid.
func (p Proof) Verify(v sig.Verifier) bool {
	return p.verifyStmt(v, proofStatement(p.Edge))
}

// verifyStmt is Verify with the statement precomputed by the caller.
func (p Proof) verifyStmt(v sig.Verifier, stmt []byte) bool {
	return v.Verify(p.Edge.U, stmt, p.SigU) && v.Verify(p.Edge.V, stmt, p.SigV)
}

// proofWireSize is the encoded size of a proof for a given signature size:
// two node IDs plus two raw signatures.
func proofWireSize(sigSize int) int { return 8 + 2*sigSize }

// encode appends the proof to w using fixed-width signatures.
func (p Proof) encode(w *wire.Writer, sigSize int) {
	w.NodeID(p.Edge.U)
	w.NodeID(p.Edge.V)
	w.Raw(fixWidth(p.SigU, sigSize))
	w.Raw(fixWidth(p.SigV, sigSize))
}

// errBadProof reports structurally invalid proofs (range, canonical order).
var errBadProof = errors.New("nectar: structurally invalid proof")

// decodeProofNoCopy reads a proof written by encode, validating structure:
// both endpoints in [0, n), distinct, and in canonical U < V order. The
// signature slices alias the reader's input — callers that retain the
// proof past the input's lifetime must copy (EdgeMsg.Copy).
func decodeProofNoCopy(r *wire.Reader, sigSize, n int) (Proof, error) {
	u, v := r.NodeID(), r.NodeID()
	sigU := r.Raw(sigSize)
	sigV := r.Raw(sigSize)
	if r.Err() != nil {
		return Proof{}, r.Err()
	}
	if u >= v || int(v) >= n {
		return Proof{}, fmt.Errorf("%w: endpoints %v,%v (n=%d)", errBadProof, u, v, n)
	}
	return Proof{
		Edge: graph.Edge{U: u, V: v},
		SigU: sigU,
		SigV: sigV,
	}, nil
}

// fixWidth pads or truncates b to exactly size bytes. Honest signatures
// already have the right width; this only normalizes adversarial input so
// that framing stays well-defined (the signature then simply fails to
// verify).
func fixWidth(b []byte, size int) []byte {
	if len(b) == size {
		return b
	}
	fixed := make([]byte, size)
	copy(fixed, b)
	return fixed
}

// BuildProofs constructs the setup-time proofs of neighborhood for every
// edge of g under the given scheme, keyed by normalized edge. This models
// §II's assumption that each node has a proof for each of its neighbors at
// startup.
func BuildProofs(scheme sig.Scheme, g *graph.Graph) map[graph.Edge]Proof {
	out := make(map[graph.Edge]Proof, g.M())
	slab := make([]byte, 0, 2*scheme.Verifier().SigSize()*g.M())
	stmt := statementWriter()
	for _, e := range g.Edges() {
		out[e], slab = appendProof(slab, &stmt, scheme.SignerFor(e.U), scheme.SignerFor(e.V))
	}
	return out
}

// NeighborProofs extracts from all (as built by BuildProofs) the proofs
// for the edges incident to node me in g, in the order of g's neighbor
// list — the shape NECTAR's Config expects.
func NeighborProofs(all map[graph.Edge]Proof, g *graph.Graph, me ids.NodeID) []Proof {
	out := make([]Proof, g.Degree(me))
	for k, nb := range g.Neighbors(me) {
		out[k] = all[graph.NewEdge(me, nb)]
	}
	return out
}
