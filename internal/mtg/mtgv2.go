package mtg

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/nectar-repro/nectar/internal/ids"
	"github.com/nectar-repro/nectar/internal/rounds"
	"github.com/nectar-repro/nectar/internal/sig"
	"github.com/nectar-repro/nectar/internal/wire"
)

// MtGv2: MtG hardened with signatures. Nodes flood signed process IDs
// instead of Bloom filters, so Byzantine nodes can no longer claim
// reachability of nodes they never heard from; they can still withhold
// relays (the §V-D split-brain attack measures exactly that).

// idTag is the domain-separation prefix of every credential statement.
var idTag = []byte("mtg-id-v1")

// appendIDStatement appends the canonical statement a node signs to prove
// liveness to dst.
func appendIDStatement(dst []byte, id ids.NodeID) []byte {
	return binary.BigEndian.AppendUint32(append(dst, idTag...), uint32(id))
}

// SignID returns the signer's signed-ID credential.
func SignID(s sig.Signer) []byte { return s.Sign(appendIDStatement(nil, s.ID())) }

// VerifyID reports whether sg is id's valid signed-ID credential.
func VerifyID(v sig.Verifier, id ids.NodeID, sg []byte) bool {
	return v.Verify(id, appendIDStatement(nil, id), sg)
}

// SignedID is one flooded credential.
type SignedID struct {
	ID  ids.NodeID
	Sig []byte
}

// EncodeBatch serializes a batch of signed IDs: u16 count, then fixed
// (id, signature) entries. With DecodeBatch it is the reference codec that
// NodeV2's in-place Emit and Deliver are tested against.
func EncodeBatch(batch []SignedID, sigSize int) []byte {
	w := wire.NewWriter(2 + len(batch)*(4+sigSize))
	w.U16(uint16(len(batch)))
	for _, e := range batch {
		w.NodeID(e.ID)
		if len(e.Sig) != sigSize {
			fixed := make([]byte, sigSize)
			copy(fixed, e.Sig)
			w.Raw(fixed)
			continue
		}
		w.Raw(e.Sig)
	}
	return w.Bytes()
}

// DecodeBatch parses an EncodeBatch payload.
func DecodeBatch(data []byte, sigSize int) ([]SignedID, error) {
	r := wire.NewReader(data)
	count := int(r.U16())
	if r.Err() != nil {
		return nil, r.Err()
	}
	if count*(4+sigSize) > r.Remaining() {
		return nil, wire.ErrTruncated
	}
	out := make([]SignedID, 0, count)
	for i := 0; i < count; i++ {
		e := SignedID{ID: r.NodeID()}
		raw := r.Raw(sigSize)
		if r.Err() != nil {
			return nil, r.Err()
		}
		e.Sig = append([]byte(nil), raw...)
		out = append(out, e)
	}
	if err := r.Close(); err != nil {
		return nil, err
	}
	return out, nil
}

// BatchWireSize returns the encoded size of a batch with the given number
// of entries.
func BatchWireSize(entries, sigSize int) int { return 2 + entries*(4+sigSize) }

// ConfigV2 parameterizes an MtGv2 node.
type ConfigV2 struct {
	// N is the total number of processes.
	N int
	// Me is the local identity.
	Me ids.NodeID
	// Neighbors is the local neighborhood.
	Neighbors []ids.NodeID
	// Signer signs the local ID credential.
	Signer sig.Signer
	// Verifier validates received credentials.
	Verifier sig.Verifier
	// Seed drives gossip partner selection.
	Seed int64
}

// NodeV2 is a correct MtGv2 process.
type NodeV2 struct {
	cfg   ConfigV2
	entry int // wire size of one credential: a node ID and a signature
	// known[id] records that id's credential is held; creds holds the held
	// credentials in discovery order (own first) and in wire form, so a
	// batch is a count and a suffix of creds. Sized for all N, it never grows.
	known    []bool
	creds    []byte
	sent     []int // credentials sent so far, by neighbor position
	partners partners
	// Round scratch: the batch, the send, a checked credential's
	// statement.
	enc     wire.Writer
	sendBuf []rounds.Send
	stmt    []byte
}

var _ rounds.Protocol = (*NodeV2)(nil)

// NewNodeV2 validates cfg and builds an MtGv2 node knowing only its own
// credential.
func NewNodeV2(cfg ConfigV2) (*NodeV2, error) {
	if err := validateBase(cfg.N, cfg.Me, cfg.Neighbors); err != nil {
		return nil, err
	}
	// A batch counts its credentials in a u16: a node holding more would
	// send a wrapped count, and every receiver drop the whole batch.
	if cfg.N > math.MaxUint16 {
		return nil, fmt.Errorf("mtg: N=%d exceeds the %d credentials a batch can count", cfg.N, math.MaxUint16)
	}
	if cfg.Signer == nil || cfg.Verifier == nil {
		return nil, fmt.Errorf("mtg: Signer and Verifier are required for MtGv2")
	}
	if cfg.Signer.ID() != cfg.Me {
		return nil, fmt.Errorf("mtg: signer bound to %v, node is %v", cfg.Signer.ID(), cfg.Me)
	}
	entry := 4 + cfg.Verifier.SigSize()
	n := &NodeV2{
		cfg:      cfg,
		entry:    entry,
		known:    make([]bool, cfg.N),
		creds:    make([]byte, 0, cfg.N*entry),
		sent:     make([]int, len(cfg.Neighbors)),
		partners: newPartners(cfg.Seed, cfg.Me, len(cfg.Neighbors)),
		// Room for one partner's batch of every credential; more grow it.
		enc: wire.MakeWriter(BatchWireSize(cfg.N, entry-4)),
	}
	n.accept(cfg.Me, SignID(cfg.Signer))
	return n, nil
}

// accept records id's credential, copying sg cut or zero-padded to the
// signature size, as EncodeBatch puts it on the wire.
func (n *NodeV2) accept(id ids.NodeID, sg []byte) {
	n.known[id] = true
	e := n.creds[len(n.creds) : len(n.creds)+n.entry]
	binary.BigEndian.PutUint32(e, uint32(id))
	w := copy(e[4:], sg)
	clear(e[4+w:])
	n.creds = n.creds[:len(n.creds)+n.entry]
}

// held returns the number of credentials the node holds.
func (n *NodeV2) held() int { return len(n.creds) / n.entry }

// Emit implements rounds.Protocol: send the round's gossip partner every
// credential not yet sent to it (at most once per neighbor per epoch —
// the paper's cost containment for MtGv2). The batch is byte for byte
// EncodeBatch of those credentials.
func (n *NodeV2) Emit(round int) []rounds.Send {
	k, held := n.partners.pick(), n.held()
	if k < 0 || n.sent[k] >= held {
		return nil
	}
	n.enc.Reset()
	n.enc.U16(uint16(held - n.sent[k]))
	n.enc.Raw(n.creds[n.sent[k]*n.entry:])
	n.sent[k] = held
	n.sendBuf = append(n.sendBuf[:0], rounds.Send{To: n.cfg.Neighbors[k : k+1 : k+1], Data: n.enc.Bytes()})
	return n.sendBuf
}

// Quiescent implements rounds.Quiescer: a node with no credential left
// unsent to any neighbor emits nothing in future rounds regardless of
// which gossip partners its RNG would pick (send-at-most-once per
// neighbor), so it is quiescent until a new credential arrives.
func (n *NodeV2) Quiescent() bool {
	held := n.held()
	for _, s := range n.sent {
		if s < held {
			return false
		}
	}
	return true
}

// Deliver implements rounds.Protocol: record every new, valid credential,
// reading the batch in place. Framing is DecodeBatch's: a batch whose
// length is not exactly what its count says is dropped whole. Past that,
// invalid entries are ignored individually (one bad entry does not poison
// the batch).
func (n *NodeV2) Deliver(round int, from ids.NodeID, data []byte) {
	if len(data) < 2 || len(data)-2 != int(binary.BigEndian.Uint16(data))*n.entry {
		return
	}
	for e := data[2:]; len(e) > 0; e = e[n.entry:] {
		id := ids.NodeID(binary.BigEndian.Uint32(e))
		if int(id) >= n.cfg.N || n.known[id] {
			continue
		}
		sg := e[4:n.entry]
		n.stmt = appendIDStatement(n.stmt[:0], id)
		if n.cfg.Verifier.Verify(id, n.stmt, sg) {
			n.accept(id, sg)
		}
	}
}

// Decide returns the epoch-end conclusion: partitioned iff some node's
// credential never arrived.
func (n *NodeV2) Decide() Outcome {
	held := n.held()
	return Outcome{Partitioned: held < n.cfg.N, Known: held}
}

// Known returns the set of IDs whose credentials the node holds.
func (n *NodeV2) Known() ids.Set {
	out := make(ids.Set, n.held())
	for e := n.creds; len(e) > 0; e = e[n.entry:] {
		out.Add(ids.NodeID(binary.BigEndian.Uint32(e)))
	}
	return out
}
