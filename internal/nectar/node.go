package nectar

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"github.com/nectar-repro/nectar/internal/graph"
	"github.com/nectar-repro/nectar/internal/ids"
	"github.com/nectar-repro/nectar/internal/obs"
	"github.com/nectar-repro/nectar/internal/rounds"
	"github.com/nectar-repro/nectar/internal/sig"
	"github.com/nectar-repro/nectar/internal/wire"
)

// Decision is NECTAR's output (§III-D).
type Decision int

const (
	// Undecided means the decision phase has not run yet.
	Undecided Decision = iota
	// NotPartitionable: no placement of t Byzantine nodes can disconnect
	// the correct nodes.
	NotPartitionable
	// Partitionable: Byzantine nodes might be able to disconnect correct
	// nodes (not necessarily certain).
	Partitionable
)

// String implements fmt.Stringer.
func (d Decision) String() string {
	switch d {
	case Undecided:
		return "UNDECIDED"
	case NotPartitionable:
		return "NOT_PARTITIONABLE"
	case Partitionable:
		return "PARTITIONABLE"
	}
	return fmt.Sprintf("Decision(%d)", int(d))
}

// Outcome is the result of the decision phase: the decision plus the
// indicative `confirmed` output (true means an actual partition was
// detected — some nodes are unreachable — which by the Validity property
// implies the Byzantine nodes form a vertex cut of G).
type Outcome struct {
	Decision  Decision
	Confirmed bool
	// Reachable is r = DetectReachableNode(Gi): how many of the n nodes
	// the local node discovered as reachable (itself included).
	Reachable int
	// ConnectivityOverT reports whether κ(Gi) > t held in the decision.
	ConnectivityOverT bool
}

// Config carries NECTAR's inputs (Alg. 1): n, t, the local neighborhood
// Γ(i), and a proof of neighborhood for each neighbor — plus the local
// signing capability and the shared verifier.
type Config struct {
	// N is the total number of processes in the system (card(Π) = n).
	N int
	// T is the assumed maximum number of Byzantine processes.
	T int
	// Me is the local node's identity.
	Me ids.NodeID
	// Neighbors is Γ(Me).
	Neighbors []ids.NodeID
	// Proofs holds one proof per neighbor, in Neighbors' order: Proofs[k]
	// is the proof of the edge {Me, Neighbors[k]}.
	Proofs []Proof
	// Signer is the local signing capability.
	Signer sig.Signer
	// Verifier checks signatures of all processes. It must come from the
	// sig.Scheme Signer comes from: the node reads the signature width and
	// BindsMessage off it, and skips building what either would be handed
	// when the scheme does not bind the message.
	Verifier sig.Verifier
	// Rounds overrides the number of edge-propagation rounds; 0 means the
	// default n-1 (the safe lower bound when the topology is unknown,
	// §IV-B). Values below the correct-subgraph diameter lose liveness.
	Rounds int
	// VerifyCache, when non-nil, lets the nodes of a trial skip
	// verifications they share (DESIGN.md §9). A node whose own signature
	// verifies posts what it emits on its board in the cache, and a
	// neighbour that checks a post takes it without a Verify call; the
	// first endpoint of an edge records its check of the edge's proof, and
	// the second takes the verdict for the same bytes. Verification is
	// deterministic for every provided scheme, so decisions are the same
	// either way. Nil disables both, and a Verifier whose signatures do not
	// bind the message never consults the cache.
	//
	// Lockstep contract: the nodes sharing a cache are built before any of
	// them runs, and a post vouches only within the round it was emitted
	// in, which the engine's barrier between a round's Emit and Deliver
	// phases spans. Nodes driven out of lockstep (one engine each, as over
	// TCP) stay correct — a delivery the poster has moved past is simply
	// verified. A node granted signOnRead goes further: it emits its relays
	// unsigned, and the first neighbour to check one signs it off the
	// board. That is sound only while every recipient either reads the
	// relay through the same cache in the round it was sent, in the same
	// engine, or keeps and sends nothing of it unchecked — so only
	// harness.BuildNectar grants it, to every correct, present node, whose
	// Byzantine neighbours hand what they receive to a node of the cache or
	// drop it; a split run (rounds.SplitAware) takes it back. Release the
	// cache last, once every node sharing it is released or done with.
	VerifyCache *sig.VerifyCache

	// index numbers the edges of the graph the node runs on, shared by every
	// node BuildNodes makes: its view keeps those edges as bits over it
	// (graph.EdgeSet.ResetOn). Nil — a node built without the graph, or n ≤
	// 192, where the view is a bit matrix — keeps every edge in the view's
	// table. Decisions and wire bytes are the same either way.
	index *graph.EdgeIndex

	// signOnRead defers each relay's signature to the first neighbour that
	// checks the relay (sig.Board.Defer), under the lockstep contract
	// above; set by WithSignOnRead. Decisions and wire bytes are the same
	// either way: only the signatures no neighbour reads are never made.
	signOnRead bool

	// paranoidVerify verifies signatures even for already-known edges,
	// matching the literal check order of Alg. 1 l. 14. The default
	// (false) discards duplicates before any signature work — safe, since
	// duplicates cause no state change — cutting verification cost from
	// O(m·deg) to O(m) chains per node (DESIGN.md §2). A test-only
	// reference with identical decisions, set by WithParanoidVerify.
	paranoidVerify bool
}

// Stats counts a node's message-handling outcomes; useful to tests and
// robustness experiments.
type Stats struct {
	// Accepted counts first-reception edges stored in the view — scheduled
	// for relay when a neighbor other than the sender exists to receive it.
	Accepted int
	// Duplicates counts messages discarded because the edge was already
	// known (no verification spent, see DESIGN.md §2). In the default
	// (non-paranoid) mode duplicates are classified from the edge header
	// alone, so a duplicate with a malformed tail still counts here, not
	// under Rejected — honest senders never produce such messages.
	Duplicates int
	// Rejected counts structurally invalid or signature-failing messages.
	Rejected int
	// LazyDiscards counts duplicates discarded by the header-first lazy
	// decode before the chain was parsed or any hop allocated (DESIGN.md
	// §9). Always 0 in paranoid mode, which fully decodes first.
	LazyDiscards int
}

// relayItem is a first-received edge message queued for relay in the next
// round, remembering the neighbor it came from (Alg. 1 l. 11: relay to
// Γ(i) \ {k}); a message for which that set is empty is never queued. The
// message is retained as its canonical wire bytes (owned by the accept
// arena), not as a decoded EdgeMsg: a flood queues Θ(m) messages per node
// at the wave peak, and hop structs cost ~4× the wire bytes plus a pointer
// per signature for the GC to chase (DESIGN.md §14).
type relayItem struct {
	raw  []byte     // canonical encoding: proof ‖ hop count ‖ hops
	edge graph.Edge // the proof's edge, for the relay statement
	skip int        // the relay's rounds.Send.Skip: 1 + the sender's index in Neighbors
}

// Node is a correct NECTAR process. It implements rounds.Protocol: drive
// it with the rounds engine for Rounds() rounds, then call Decide.
//
// Node is not safe for concurrent use; the engine calls it from one
// goroutine at a time.
type Node struct {
	cfg     Config
	nRounds int
	signer  sig.AppendSigner // cfg.Signer's append form, resolved once (appendSigner)
	started bool             // round-1 neighborhood announcement has been emitted
	// board is where Emit posts the round's messages for the neighbours'
	// checks (sig.Board), nil without a cache, after a failed self-check and
	// once released; unproven holds until the first post has checked the
	// node's own signature under cfg.Verifier.
	board    *sig.Board
	unproven bool
	// undrained: an edge was accepted since the last relay round drained the
	// queue. Quiescent reads it, not the queue, so an accept with no one to
	// relay to still keeps the node active for the round its relay would take.
	undrained bool
	stats     Stats
	// The propagation phase's buffers and the view they fill, borrowed from
	// a package free list by NewNode and handed back by Release — at the
	// latest implicitly, at the first Decide. box is the free-list entry
	// they came from, nil once returned; from then on snapshot, a copy of
	// the view (a decision memo's, shared read-only), is the result (see
	// edges).
	nodeScratch
	box      *nodeScratch
	snapshot *graph.EdgeSet
	// Evidence tracing (DESIGN.md §13): off by default and enabled only by
	// the engine's TraceEvidence call when a run has a Tracer, so the
	// untraced hot path buffers nothing. evbuf fills during Deliver (one
	// goroutine per node) and is drained by the engine's scheduler
	// goroutine between rounds; traced is the view as a graph, grown by
	// every accept, and lastReach tracks its reachable-set size so growth
	// events fire only when an accepted edge actually extends it.
	tracing   bool
	evbuf     []obs.Event
	traced    *graph.Graph
	lastReach int
}

// nodeScratch is a node's propagation-phase scratch (DESIGN.md §9, §14).
type nodeScratch struct {
	// view is Gi's edge set, all the propagation phase asks of Gi; a
	// recycled one keeps its log, its table and its bit matrix
	// (graph.EdgeSet.Reset).
	view  *graph.EdgeSet
	queue []relayItem // filled in Deliver(r), drained by Emit(r+1)
	// Emit-side allocation reuse (DESIGN.md §9): every message of a round
	// is encoded into one scratch arena and the send headers into one
	// reusable slice. Both are reset at the next Emit — safe because the
	// engine contract bounds Data lifetime to the round, and the Deliver
	// side copies what it retains. A mid-round arena growth leaves earlier
	// sub-slices on the old backing array, intact.
	enc     wire.Writer
	sendBuf []rounds.Send
	// queueUsed and sendUsed are the most slots queue and sendBuf have held
	// since the borrow: all Release zeroes, as no slot beyond holds anything.
	queueUsed, sendUsed int
	// Deliver-side allocation reuse (DESIGN.md §14): the verification
	// scratch (statement writer + chain signing-input buffer), and the
	// accept arena that owns the queued messages' wire bytes. The scratch
	// contents are transient per Deliver call; the arena lives until the
	// queue is drained and is truncated at the end of the draining Emit.
	scr      msgScratch
	arenaRaw []byte
}

// scratchPools recycle nodeScratch values across the nodes of successive
// runs (DESIGN.md §9): a sweep or a dynamic run rebuilds every node per
// trial or epoch, and each used to grow these buffers from nil. The free
// lists only supply capacity — Release truncates every buffer and zeroes
// every slot that holds a slice, and NewNode resets the view to its own n —
// so a recycled scratch is indistinguishable from the zero value except in
// what it need not allocate. They are split by degree: a node of degree at
// most one relays nothing a correct neighbor sends it, so its queue, accept
// arena and send headers stay near empty, and one shared list would hand
// those small scratches to relaying nodes to regrow.
var scratchPools = [2]sync.Pool{{New: newScratch}, {New: newScratch}}

func newScratch() any { return new(nodeScratch) }

// scratchPool is the free list of a node with deg neighbors.
func scratchPool(deg int) *sync.Pool {
	if deg <= 1 {
		return &scratchPools[0]
	}
	return &scratchPools[1]
}

// Release hands the node's propagation scratch back to the free list once
// the propagation phase is over. The first Decide does it implicitly, so a
// driver only calls Release for the nodes it never decides — the inner
// nodes of Byzantine wrappers, nodes churned out of an epoch — and on its
// error paths. It is idempotent, and optional: the node stays as usable as
// before (from here on it works on zero-value scratch and, via edges, on a
// view of its own), and one that is never released merely recycles
// nothing. A relay queue cut short by the horizon is live state, not
// scratch: it stays on the node together with the arena its items point
// into.
func (nd *Node) Release() {
	if nd.box != nil {
		nd.release(nd.view.Clone())
	}
}

// release is Release keeping snapshot as the node's result. The node only
// reads it, so a decision memo hands one set to every node of a view.
func (nd *Node) release(snapshot *graph.EdgeSet) {
	s := nd.box
	if s == nil {
		return
	}
	nd.box = nil
	nd.board.Retract() // its posts alias the emit arena handed back below
	nd.board = nil
	nd.snapshot = snapshot
	*s, nd.nodeScratch = nd.nodeScratch, nodeScratch{}
	nd.scr.cache, s.scr.cache = s.scr.cache, nil // the node keeps its cache; the free list holds none
	if len(s.queue) > 0 {
		nd.queue, nd.arenaRaw = s.queue, s.arenaRaw
		s.queue, s.arenaRaw, s.queueUsed = nil, nil, 0
	}
	clear(s.queue[:s.queueUsed])
	s.queue = s.queue[:0]
	s.enc.Reset()
	clear(s.sendBuf[:s.sendUsed])
	s.sendBuf = s.sendBuf[:0]
	s.queueUsed, s.sendUsed = 0, 0
	s.scr.stmt.Reset()
	s.scr.cs.Reset()
	s.arenaRaw = s.arenaRaw[:0]
	scratchPool(len(nd.cfg.Neighbors)).Put(s)
}

// edges returns the view's edge set. A released node rebuilds one of its
// own from the snapshot first — on a second Decide or a delivery after the
// first — which the drivers never do, so a run pays for no set it does not
// pool.
func (nd *Node) edges() *graph.EdgeSet {
	if nd.view == nil {
		nd.view, nd.snapshot = nd.snapshot.Clone(), nil
	}
	return nd.view
}

// viewGraph builds Gi as a graph of its own: for View, the reference Decide
// and tracing, never on a driver's untraced path.
func (nd *Node) viewGraph() *graph.Graph {
	s := nd.view
	if s == nil {
		s = nd.snapshot
	}
	g := new(graph.Graph)
	g.Load(s)
	return g
}

var _ rounds.Protocol = (*Node)(nil)
var _ rounds.EvidenceSource = (*Node)(nil)
var _ rounds.SplitAware = (*Node)(nil)

// NewNode validates cfg and initializes Gi with the local neighborhood
// (Alg. 1 ll. 1-4).
func NewNode(cfg Config) (*Node, error) {
	nd := new(Node)
	if err := nd.init(cfg); err != nil {
		return nil, err
	}
	return nd, nil
}

// init is NewNode on a Node the caller has allocated: BuildNodes builds a
// run's nodes in one array. On error nd holds nothing borrowed.
func (nd *Node) init(cfg Config) error {
	if cfg.N <= 0 {
		return fmt.Errorf("nectar: N must be positive, got %d", cfg.N)
	}
	if cfg.T < 0 {
		return fmt.Errorf("nectar: negative T %d", cfg.T)
	}
	if int(cfg.Me) >= cfg.N {
		return fmt.Errorf("nectar: Me=%v out of range [0,%d)", cfg.Me, cfg.N)
	}
	if cfg.Signer == nil || cfg.Verifier == nil {
		return fmt.Errorf("nectar: Signer and Verifier are required")
	}
	if cfg.Signer.ID() != cfg.Me {
		return fmt.Errorf("nectar: signer bound to %v, node is %v", cfg.Signer.ID(), cfg.Me)
	}
	if err := CheckRounds(cfg.N, cfg.Rounds); err != nil {
		return err
	}
	if len(cfg.Proofs) != len(cfg.Neighbors) {
		return fmt.Errorf("nectar: %d proofs for %d neighbors", len(cfg.Proofs), len(cfg.Neighbors))
	}
	*nd = Node{cfg: cfg, nRounds: cfg.Rounds}
	if nd.nRounds == 0 {
		nd.nRounds = cfg.N - 1
	}
	nd.signer = appendSigner(cfg.Signer)
	// Borrowed before the neighbours are checked, so that the view tells a
	// repeated one; every error returns it, keeping no snapshot of a node
	// nobody gets.
	nd.box = scratchPool(len(cfg.Neighbors)).Get().(*nodeScratch)
	nd.nodeScratch, *nd.box = *nd.box, nodeScratch{}
	if nd.view == nil {
		nd.view = new(graph.EdgeSet)
	}
	nd.view.ResetOn(cfg.N, cfg.index)
	for k, nb := range cfg.Neighbors {
		var err error
		if nb == cfg.Me || int(nb) >= cfg.N {
			err = fmt.Errorf("nectar: invalid neighbor %v", nb)
		} else if !nd.view.Add(cfg.Me, nb) {
			err = fmt.Errorf("nectar: duplicate neighbor %v", nb)
		} else if e := cfg.Proofs[k].Edge; e != graph.NewEdge(cfg.Me, nb) {
			err = fmt.Errorf("nectar: proof %d, for neighbor %v, has edge %v", k, nb, e)
		}
		if err != nil {
			nd.release(nil)
			return err
		}
	}
	if cfg.Verifier.BindsMessage() && cfg.VerifyCache != nil { // an unbound scheme's Verify costs less than asking the cache
		nd.scr.cache = cfg.VerifyCache
		nd.board, nd.unproven = cfg.VerifyCache.Board(cfg.Me), true
	}
	// Proofs are checked in wire form (in the emit arena, which Emit
	// resets), the form the proof ledger compares.
	sigSize := cfg.Verifier.SigSize()
	for k, p := range cfg.Proofs {
		nd.enc.Reset()
		p.encode(&nd.enc, sigSize) // a signature of another width is invalid, not to be cut to size
		if len(p.SigU) != sigSize || len(p.SigV) != sigSize || nd.scr.checkSigs(cfg.Verifier, p.Edge, nd.enc.Bytes(), nil, 0) != nil {
			nd.release(nil)
			return fmt.Errorf("nectar: proof for neighbor %v does not verify", cfg.Neighbors[k])
		}
	}
	return nil
}

// CheckRounds validates an n-node system and its round horizon (0 = the
// default n-1). A chain's hop count travels as a uint16 (sig.EncodeHops)
// and grows by one per round: past 65 535 it would wrap and every peer
// discard the relay on chain length, a silent liveness loss. A view packs
// an edge's endpoints into 16 bits each, so n itself stops at 65 536, where
// the default horizon does. Drivers call it before generating any key.
func CheckRounds(n, rounds int) error {
	if rounds < 0 {
		return fmt.Errorf("nectar: negative Rounds %d", rounds)
	}
	if rounds == 0 {
		rounds = n - 1
	}
	if rounds > math.MaxUint16 {
		return fmt.Errorf("nectar: %d rounds exceed the %d hops a chain's wire encoding can count", rounds, math.MaxUint16)
	}
	if n > graph.MaxSetVertices {
		return fmt.Errorf("nectar: n = %d exceeds the %d nodes a view's packed edge keys can name", n, graph.MaxSetVertices)
	}
	return nil
}

// Rounds returns the number of edge-propagation rounds this node runs
// (n-1 unless overridden).
func (nd *Node) Rounds() int { return nd.nRounds }

// Emit implements rounds.Protocol. In round 1 the node sends its signed
// neighborhood to every neighbor (Alg. 1 ll. 6-8); in later rounds it
// relays — with its own signature appended — every edge first received in
// the previous round, to all neighbors except the one it came from
// (ll. 9-12). Each announcement and relay is one multicast Send to the
// node's own neighbor list, a relay skipping its sender's place in it. An
// edge that came from the only neighbor was never queued (accept): nothing
// is encoded or signed for a relay nobody receives. Under signOnRead a
// relay leaves unsigned, and its first reader signs it (sig.Board.Defer).
func (nd *Node) Emit(round int) []rounds.Send {
	nd.started = true
	// Reset the per-round scratch: the previous round's sends have been
	// delivered (and copied by any retainer), so arena and send headers
	// are free for reuse — zero steady-state allocation on the emit path.
	// The board's posts alias the arena, so they are withdrawn first.
	nd.board.Retract()
	nd.enc.Reset()
	out := nd.sendBuf[:0]
	v := nd.cfg.Verifier
	sigSize := v.SigSize()
	ps := proofWireSize(sigSize)
	if round == 1 {
		for _, p := range nd.cfg.Proofs {
			start := nd.enc.Len()
			EdgeMsg{
				Proof: p,
				Chain: nd.scr.cs.AppendInto(nd.cfg.Signer, proofStatementInto(&nd.scr.stmt, p.Edge), nil),
			}.encodeTo(&nd.enc, sigSize)
			data := nd.enc.Bytes()[start:]
			nd.post(data, p.Edge, ps, sigSize)
			out = append(out, rounds.Send{To: nd.cfg.Neighbors, Data: data})
		}
		nd.board.Publish(round)
		nd.sendBuf, nd.sendUsed = out, max(nd.sendUsed, len(out))
		return out
	}
	// A relay's signature waits for its first reader once the node's board
	// has taken the self-check of round 1.
	onRead := nd.cfg.signOnRead && nd.board != nil && !nd.unproven
	for _, item := range nd.queue {
		data := nd.encodeRelay(item, ps, sigSize)
		stmt, rawHops := nd.scr.statement(v, item.edge), data[ps+2:]
		if !onRead || !nd.board.Defer(nd.signer, v, stmt, data[:ps], rawHops) {
			nd.scr.cs.SignLastHop(nd.signer, v, stmt, rawHops)
			nd.post(data, item.edge, ps, sigSize)
		}
		out = append(out, rounds.Send{To: nd.cfg.Neighbors, Skip: item.skip, Data: data})
	}
	// The queue is drained, so nothing references the accept arena any
	// more: recycle it for the deliveries of this round.
	nd.queue, nd.queueUsed = nd.queue[:0], max(nd.queueUsed, len(nd.queue))
	nd.arenaRaw = nd.arenaRaw[:0]
	nd.undrained = false
	nd.board.Publish(round)
	nd.sendBuf, nd.sendUsed = out, max(nd.sendUsed, len(out))
	return out
}

// post puts an emitted message of edge e on the node's board (sig.Board).
// Everything a correct node emits is valid: a round-1 message extends a
// proof NewNode checked, a relay a message Deliver accepted, and each adds
// one signature of the node's own — so the first post checks that
// signature under cfg.Verifier, once a run, and a node whose signer fails
// it (a key the Verifier does not hold) never posts.
func (nd *Node) post(data []byte, e graph.Edge, ps, sigSize int) {
	if nd.board == nil {
		return
	}
	rawHops := data[ps+2:]
	if nd.unproven {
		last := len(rawHops)/sig.HopWireSize(sigSize) - 1
		if !nd.scr.cs.VerifyRawChain(nd.cfg.Verifier, proofStatementInto(&nd.scr.stmt, e), rawHops, last) {
			nd.board = nil
			return
		}
		nd.unproven = false
	}
	nd.board.Post(data[:ps], rawHops)
}

// encodeRelay appends the relay of a retained message to the encode arena,
// all but its signature: the wire bytes copied verbatim into a region sized
// for one more hop, the hop count bumped in place, and the node's own hop
// after it with its signature slot zeroed — the arena hands back stale
// bytes. The caller signs the slot (sig.ChainScratch.SignLastHop, over the
// raw hop region: bit-for-bit the input AppendInto would build from decoded
// hops) or leaves it to the first reader (sig.Board.Defer) — no []Hop and
// no signature is ever materialized on the relay path. Every retained
// field is fixed-width, so the signed relay is byte-for-byte what
// re-encoding the decoded message would produce, down to a signature of
// the wrong width, cut or zero-padded to the hop's as EncodeHops does.
func (nd *Node) encodeRelay(item relayItem, ps, sigSize int) []byte {
	raw := item.raw
	out := nd.enc.Extend(len(raw) + sig.HopWireSize(sigSize))
	hop := out[copy(out, raw):]
	binary.BigEndian.PutUint16(out[ps:], binary.BigEndian.Uint16(raw[ps:])+1)
	binary.BigEndian.PutUint32(hop, uint32(nd.cfg.Me))
	clear(hop[4:])
	return out
}

// SplitRun implements rounds.SplitAware: in a split run a transport copies
// the node's sends before any reader could sign them, so every relay is
// signed when it is emitted.
func (nd *Node) SplitRun() { nd.cfg.signOnRead = false }

// Deliver implements rounds.Protocol (Alg. 1 ll. 13-15). Invalid messages
// are ignored; an edge already in Gi is discarded before any signature
// work; a first-seen valid edge is recorded and, if some neighbor other
// than from can receive it, queued for relay in the next round.
//
// The default mode reads the header first (DESIGN.md §9): the edge
// endpoints live in the first 8 bytes, and duplicates — the dominant case
// in a flood — are discarded from them alone, before the chain is looked
// at. Messages that survive the duplicate check get the rest of the
// one-pass check over their wire bytes (checkBody, handed the decoded
// edge), which aliases data and retains none of it; only accepted messages
// are copied into owned memory for relay. Paranoid mode is the literal
// Alg. 1 order: the full check (checkRaw) first, then the duplicate check.
func (nd *Node) Deliver(round int, from ids.NodeID, data []byte) {
	var e graph.Edge
	var hops int
	var err error
	if nd.cfg.paranoidVerify {
		e, hops, err = nd.scr.checkRaw(nd.cfg.Verifier, data, nd.cfg.N, from, round)
	} else if e, err = DecodeEdgeHeader(data, nd.cfg.N); err != nil {
		// A bad header is a reject either way; checkRaw labels it as the
		// reference does, which finds a message shorter than its proof
		// truncated before it reads the endpoints.
		e, hops, err = nd.scr.checkRaw(nd.cfg.Verifier, data, nd.cfg.N, from, round)
	} else {
		if nd.edges().Has(e.U, e.V) {
			nd.stats.Duplicates++
			nd.stats.LazyDiscards++
			return
		}
		hops, err = nd.scr.checkBody(nd.cfg.Verifier, e, data, nd.cfg.N, from, round)
	}
	if err != nil {
		nd.stats.Rejected++
		nd.traceReject(round, from, hops, err)
		return
	}
	if nd.cfg.paranoidVerify && nd.edges().Has(e.U, e.V) {
		nd.stats.Duplicates++
		return
	}
	nd.accept(round, e, hops, from, data)
}

// accept records a first-seen valid edge e (carried by a message whose
// validated chain has hops links) and queues the message for relay when
// Γ(i) \ {from} is not empty (Alg. 1 l. 11). data aliases the delivered
// buffer, whose lifetime ends with the round, so a queued message — the
// check has made sure data is its canonical encoding and nothing more — is
// copied into the accept arena here: one contiguous copy per relayed edge,
// the only copy on the deliver path, with no per-hop structures retained
// (DESIGN.md §14). At a leaf, whose one neighbor sent everything it learns,
// acceptance is the view insert alone.
func (nd *Node) accept(round int, e graph.Edge, hops int, from ids.NodeID, data []byte) {
	if nb := nd.cfg.Neighbors; len(nb) > 1 || len(nb) == 1 && nb[0] != from {
		nd.queue = append(nd.queue, relayItem{
			raw:  nd.copyToArena(data),
			edge: e,
			skip: slices.Index(nb, from) + 1,
		})
	}
	nd.undrained = true
	nd.edges().Add(e.U, e.V)
	nd.stats.Accepted++
	if nd.tracing {
		nd.evbuf = append(nd.evbuf, obs.Event{
			Type: obs.EvChainAccept, Round: round, Node: int(nd.cfg.Me),
			N: int64(hops),
			Attrs: []obs.Attr{
				{K: "u", V: int64(e.U)},
				{K: "v", V: int64(e.V)},
				{K: "from", V: int64(from)},
			},
		})
		// Reachable-set growth: a BFS over the view's graph, kept beside
		// the set only under tracing. Most accepted edges close triangles
		// and grow nothing; the ones that do are exactly the evidence
		// behind DetectReachableNode's final count.
		nd.traced.AddEdge(e.U, e.V)
		if r := nd.traced.CountReachable(nd.cfg.Me); r > nd.lastReach {
			nd.evbuf = append(nd.evbuf, obs.Event{
				Type: obs.EvReachGrow, Round: round, Node: int(nd.cfg.Me),
				N:     int64(r),
				Attrs: []obs.Attr{{K: "prev", V: int64(nd.lastReach)}},
			})
			nd.lastReach = r
		}
	}
}

// copyToArena copies b into the accept arena and returns the owned, capped
// sub-slice, so later appends can never write through it. Arena growth
// reallocates the backing and leaves earlier sub-slices on the old array —
// intact, exactly like the encode arena (DESIGN.md §9). The arena is
// truncated when the queue drains at the end of Emit.
func (nd *Node) copyToArena(b []byte) []byte {
	start := len(nd.arenaRaw)
	nd.arenaRaw = append(nd.arenaRaw, b...)
	n := len(nd.arenaRaw)
	return nd.arenaRaw[start:n:n]
}

// traceReject buffers a chain_reject evidence event (no-op unless the
// engine enabled tracing). hops is the decoded chain length, 0 when the
// message never decoded that far.
func (nd *Node) traceReject(round int, from ids.NodeID, hops int, err error) {
	if !nd.tracing {
		return
	}
	nd.evbuf = append(nd.evbuf, obs.Event{
		Type: obs.EvChainReject, Round: round, Node: int(nd.cfg.Me),
		Key: rejectReason(err), N: int64(hops),
		Attrs: []obs.Attr{{K: "from", V: int64(from)}},
	})
}

// rejectReason maps a Deliver rejection to a stable trace label, so
// offline lint rules can dispatch on it without parsing error prose.
func rejectReason(err error) string {
	switch {
	case errors.Is(err, errChainLength):
		return "chain_length"
	case errors.Is(err, errChainSigners):
		return "chain_signers"
	case errors.Is(err, errChainInitiator):
		return "chain_initiator"
	case errors.Is(err, errChainSender):
		return "chain_sender"
	case errors.Is(err, errChainSig):
		return "chain_sig"
	case errors.Is(err, errProofSig):
		return "proof_sig"
	case errors.Is(err, errBadProof):
		return "bad_proof"
	}
	return "malformed"
}

// TraceEvidence implements rounds.EvidenceSource: the engine enables
// buffering before round 1 of a traced run. Enabling builds the view's
// graph and (re)baselines the reachable-set tracker to it, so growth
// events measure discovery from here on.
func (nd *Node) TraceEvidence(on bool) {
	nd.tracing, nd.traced = on, nil
	if on {
		nd.traced = nd.viewGraph()
		nd.lastReach = nd.traced.CountReachable(nd.cfg.Me)
	}
}

// DrainEvidence implements rounds.EvidenceSource: emit every buffered
// event in emission order, then clear the buffer.
func (nd *Node) DrainEvidence(emit func(obs.Event)) {
	for i := range nd.evbuf {
		emit(nd.evbuf[i])
	}
	nd.evbuf = nd.evbuf[:0]
}

// Quiescent implements rounds.Quiescer: once the initial announcement is
// out and every accepted edge has had its relay round, the node sends
// nothing more until another first-seen edge arrives (§IV-E silence after
// discovery). An accept with no recipient holds the node active for its
// relay round as well, though that round sends nothing for it: reporting
// quiescence a round early would end some runs a silent round sooner and
// change their ActiveRounds.
func (nd *Node) Quiescent() bool { return nd.started && !nd.undrained }

// Decide runs the decision phase (Alg. 1 ll. 16-24) on the discovered
// graph: NOT_PARTITIONABLE iff κ(Gi) > t and all n nodes are reachable;
// otherwise PARTITIONABLE, with confirmed = true exactly when some node
// is unreachable.
func (nd *Node) Decide() Outcome { return nd.DecideShared(nil) }

// DecideShared is Decide through the decision memo c (nil decides directly,
// the reference path). By Lemma 2 correct nodes converge to identical views,
// so the κ(Gi) > t max-flow, the reachable counts and the kept edge list are
// computed once per distinct view, not per node (DESIGN.md §9); outcomes are
// bit-identical either way.
//
// Deciding marks the end of the propagation phase, so the first call also
// Releases the node's scratch — once it has decided, on the pooled view.
func (nd *Node) DecideShared(c *DecideCache) Outcome {
	var out Outcome
	if c == nil {
		g := nd.viewGraph()
		out.Reachable = g.CountReachable(nd.cfg.Me)
		out.ConnectivityOverT = g.ConnectivityAtLeast(nd.cfg.T + 1)
		nd.Release()
	} else {
		s := nd.edges()
		e, over := c.decide(viewKey{n: s.N(), m: s.M(), sum: s.Sum()}, s, nd.cfg.T+1)
		out.Reachable, out.ConnectivityOverT = int(e.reach[nd.cfg.Me]), over
		nd.release(e.set)
	}
	if out.ConnectivityOverT && out.Reachable == nd.cfg.N {
		out.Decision = NotPartitionable
		return out
	}
	out.Decision = Partitionable
	out.Confirmed = out.Reachable != nd.cfg.N
	return out
}

// DecideTraced is DecideShared plus verdict provenance: it emits one
// kappa_eval event to tr recording exactly what the decision tested —
// the connectivity bound κ(Gi) ≥ T+1 against the threshold T, the
// reachable count, and the resulting verdict — under the epoch the
// caller is deciding in (0 for static runs). Callers decide nodes in
// ascending ID order from one goroutine (Simulate, the dynamic Finish),
// so the events are deterministic. A nil tr just runs DecideShared.
func (nd *Node) DecideTraced(c *DecideCache, tr obs.Tracer, epoch int) Outcome {
	out := nd.DecideShared(c)
	if tr != nil {
		tr.Emit(obs.Event{
			Type: obs.EvKappaEval, Epoch: epoch, Node: int(nd.cfg.Me),
			Key: out.Decision.String(), N: int64(out.Reachable),
			Attrs: []obs.Attr{
				{K: "bound", V: int64(nd.cfg.T + 1)},
				{K: "t", V: int64(nd.cfg.T)},
				{K: "over", V: b2i(out.ConnectivityOverT)},
				{K: "confirmed", V: b2i(out.Confirmed)},
			},
		})
	}
	return out
}

// b2i renders a bool as a trace attr value.
func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// View returns a copy of Gi, the node's discovered graph.
func (nd *Node) View() *graph.Graph { return nd.viewGraph() }

// Stats returns the node's message-handling counters.
func (nd *Node) Stats() Stats { return nd.stats }

// ID returns the node's identity.
func (nd *Node) ID() ids.NodeID { return nd.cfg.Me }
