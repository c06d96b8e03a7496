package mtg

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/nectar-repro/nectar/internal/ids"
	"github.com/nectar-repro/nectar/internal/rounds"
	"github.com/nectar-repro/nectar/internal/sig"
)

// MtGv2: MtG hardened with signatures. Nodes flood signed process IDs
// instead of Bloom filters, so Byzantine nodes can no longer claim
// reachability of nodes they never heard from; they can still withhold
// relays (the §V-D split-brain attack measures exactly that).

// idTag is the domain-separation prefix of every credential statement.
const idTag = "mtg-id-v1"

// appendIDStatement appends the canonical statement a node signs to prove
// liveness to dst.
func appendIDStatement(dst []byte, id ids.NodeID) []byte {
	return binary.BigEndian.AppendUint32(append(dst, idTag...), uint32(id))
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
	// Seed keys gossip partner selection.
	Seed int64
}

// NodeV2 is a correct MtGv2 process.
type NodeV2 struct {
	cfg   ConfigV2
	entry int // wire size of one credential: a node ID and a signature
	// known[id] records that id's credential is held; creds holds the held
	// credentials in discovery order (own first) and in wire form, so a
	// batch is a count and a suffix of creds. Sized for all N, it never grows.
	known []bool
	creds []byte
	sent  []int // credentials sent so far, by neighbor position
	// Round scratch: the batch (room for every credential), the send, a
	// checked credential's statement.
	batch   []byte
	sendBuf []rounds.Send
	stmt    [len(idTag) + 4]byte
}

var _ rounds.Protocol = (*NodeV2)(nil)

// NewNodeV2 validates cfg and builds an MtGv2 node knowing only its own
// credential.
func NewNodeV2(cfg ConfigV2) (*NodeV2, error) {
	n := new(NodeV2)
	if err := n.init(cfg, new(slabs)); err != nil {
		return nil, err
	}
	return n, nil
}

// BuildNodesV2 builds the MtGv2 node of every vertex of g, keyed by scheme
// and gossiping by seed, in one array as BuildNodes builds MtG's: lists,
// credentials and their flags, counts, batches and sends are slab windows.
func BuildNodesV2(g Neighborhoods, scheme sig.Scheme, seed int64) ([]NodeV2, error) {
	n, v := g.N(), scheme.Verifier()
	entry, st := 4+v.SigSize(), newSlabs(g)
	if n <= math.MaxUint16 { // past it, init refuses node 0 before taking a window
		st.known, st.sent = make([]bool, n*n), make([]int, len(st.lists))
		st.bytes = make([]byte, n*(n*entry+BatchWireSize(n, entry-4)))
	}
	nodes := make([]NodeV2, n)
	for i := range nodes {
		me := ids.NodeID(i)
		cfg := ConfigV2{N: n, Me: me, Neighbors: st.list(g, me), Signer: scheme.SignerFor(me), Verifier: v, Seed: seed}
		if err := nodes[i].init(cfg, st); err != nil {
			return nil, err
		}
	}
	return nodes, nil
}

// init is NewNodeV2 on a node the caller has allocated, its buffers taken
// from st. The own credential is signed straight into its reserved entry.
func (n *NodeV2) init(cfg ConfigV2, st *slabs) error {
	if err := validateBase(cfg.N, cfg.Me, cfg.Neighbors); err != nil {
		return err
	}
	// A batch counts its credentials in a u16: a node holding more would
	// send a wrapped count, and every receiver drop the whole batch.
	if cfg.N > math.MaxUint16 {
		return fmt.Errorf("mtg: N=%d exceeds the %d credentials a batch can count", cfg.N, math.MaxUint16)
	}
	if cfg.Signer == nil || cfg.Verifier == nil {
		return fmt.Errorf("mtg: Signer and Verifier are required for MtGv2")
	}
	if cfg.Signer.ID() != cfg.Me {
		return fmt.Errorf("mtg: signer bound to %v, node is %v", cfg.Signer.ID(), cfg.Me)
	}
	entry := 4 + cfg.Verifier.SigSize()
	*n = NodeV2{
		cfg:     cfg,
		entry:   entry,
		known:   take(&st.known, cfg.N),
		creds:   take(&st.bytes, cfg.N*entry)[:0],
		sent:    take(&st.sent, len(cfg.Neighbors)),
		batch:   take(&st.bytes, BatchWireSize(cfg.N, entry-4))[:0],
		sendBuf: take(&st.sends, 1)[:0],
	}
	stmt := appendIDStatement(n.stmt[:0], cfg.Me)
	if as, ok := cfg.Signer.(sig.AppendSigner); ok {
		n.accept(cfg.Me, as.AppendSign(n.creds[4:4:entry], stmt))
	} else {
		n.accept(cfg.Me, cfg.Signer.Sign(stmt))
	}
	return nil
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
	k, held := partner(n.cfg.Seed, n.cfg.Me, round, len(n.sent)), n.held()
	if k < 0 || n.sent[k] >= held {
		return nil
	}
	n.batch = binary.BigEndian.AppendUint16(n.batch[:0], uint16(held-n.sent[k]))
	n.batch = append(n.batch, n.creds[n.sent[k]*n.entry:]...)
	n.sent[k] = held
	n.sendBuf = append(n.sendBuf[:0], rounds.Send{To: n.cfg.Neighbors[k : k+1 : k+1], Data: n.batch})
	return n.sendBuf
}

// Quiescent implements rounds.Quiescer: a node with no credential left
// unsent to any neighbor emits nothing in future rounds regardless of
// which gossip partners it would draw (send-at-most-once per
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
		if n.cfg.Verifier.Verify(id, appendIDStatement(n.stmt[:0], id), sg) {
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
