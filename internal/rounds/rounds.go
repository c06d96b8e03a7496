// Package rounds implements the synchronous communication model of §II:
// computation proceeds in rounds, messages sent in round r over an edge of
// the communication graph are delivered within round r (the ΔT bound), and
// local processing time is negligible.
//
// The engine is a lockstep scheduler over per-node Protocol state
// machines. It enforces the *network* assumptions that even Byzantine
// nodes cannot violate (§II): messages travel only on edges of G, and a
// node cannot send to itself. Everything above that — message content,
// timing of protocol steps, selective silence — is up to each Protocol
// implementation, which is where Byzantine behaviours plug in.
//
// Per-sender byte and message counts are metered exactly (payload bytes
// plus a fixed per-message overhead), producing the "data sent per node"
// measurements of the paper's evaluation.
//
// Engine v2 (DESIGN.md §6) adds quiescence-aware early exit: protocols may
// implement the optional Quiescer extension, and once every node reports
// quiescence at a round boundary (all inboxes drained, so nothing is in
// flight) the engine fast-forwards the remaining horizon — the §IV-E
// observation that NECTAR nodes go silent once every edge is known, turned
// into wall-clock savings. Routing is parallelized across contiguous
// sender stripes with per-worker metric shards merged in sender-major
// order, so results are byte-identical to a sequential run.
package rounds

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/nectar-repro/nectar/internal/graph"
	"github.com/nectar-repro/nectar/internal/ids"
	"github.com/nectar-repro/nectar/internal/obs"
)

// Send is a message a node hands to the engine for delivery in the current
// round.
type Send struct {
	To   ids.NodeID
	Data []byte
}

// Protocol is the per-node state machine driven by the engine. For every
// round r = 1..R the engine first calls Emit(r) on every node, then
// delivers each emitted message to its recipient via Deliver(r, ...).
// Implementations need not be safe for concurrent use; the engine never
// calls a single node concurrently.
//
// Buffer ownership (DESIGN.md §9): Send.Data and the slice returned by
// Emit stay owned by the emitting node and must remain unmodified only
// until the end of the round's delivery phase — the engine retains
// neither, so nodes may encode into per-round scratch arenas. Conversely,
// the data handed to Deliver is only valid for the duration of the call;
// a protocol (or wrapper) that retains messages across rounds — to relay,
// delay, or replay them — must copy them.
//
// Multicast (DESIGN.md §5): consecutive sends of one outbox that share one
// Data slice are one multicast, charged to BytesBroadcast once. Anything
// else is charged per send: equal bytes in another buffer, a buffer sent
// again after another one, an empty payload.
type Protocol interface {
	// Emit returns the messages the node sends in round r.
	Emit(round int) []Send
	// Deliver hands the node one message received in round r.
	Deliver(round int, from ids.NodeID, data []byte)
}

// TopologyProvider supplies a time-varying communication graph (DESIGN.md
// §7): messages sent in round r travel only on edges of GraphFor(r). The
// engine queries it at round boundaries only, from the scheduler
// goroutine, with non-decreasing round numbers — a provider may therefore
// mutate and return a single graph instance in place. The vertex count
// must never change (the system model fixes n; node churn is modelled as
// edge removal, see internal/dynamic).
type TopologyProvider interface {
	// GraphFor returns the graph in effect during round r.
	GraphFor(round int) *graph.Graph
	// NextChange returns the first round > after at which the topology
	// differs from the graph in effect during round `after`, or 0 if the
	// topology never changes again. The engine uses it to re-arm the
	// quiescence early exit: an all-quiescent network fast-forwards to
	// the next change instead of to the end of the horizon.
	NextChange(after int) int
}

// TopologyAware is an optional Protocol extension for runs with a
// TopologyProvider: the engine calls OnTopology before Emit of every
// round at which it swapped adjacency, passing the node's new neighbor
// list (shared with the graph — copy before retaining). A node may use it
// to wake from quiescence, e.g. to re-announce on link change; protocols
// that ignore topology changes simply don't implement it.
type TopologyAware interface {
	OnTopology(round int, neighbors []ids.NodeID)
}

// Quiescer is an optional Protocol extension. Quiescent reports that the
// node will emit nothing in any future round unless it receives another
// message: its relay queues are empty and it holds no delayed output. The
// engine checks quiescence at round boundaries, when every inbox has been
// drained; if every node implements Quiescer and reports true, no message
// is in flight anywhere, so the remaining rounds are provably silent and
// the engine fast-forwards them (Metrics.ActiveRounds < Metrics.Rounds).
//
// Protocols that emit unconditionally every round (MtG's gossip, garbage
// flooders) implement Quiescent() == false — runs containing one never
// exit early, which is exactly their cost profile.
type Quiescer interface {
	Quiescent() bool
}

// EvidenceSource is an optional Protocol extension for evidence-level
// tracing (DESIGN.md §13). When a run has a Tracer, the engine calls
// TraceEvidence(true) once before round 1 on every node that implements
// the interface; the node then buffers evidence events (chain
// accept/reject, reachable-set growth) during its Deliver calls — which
// run on worker goroutines — and the engine drains each node's buffer
// from the scheduler goroutine after the round's delivery barrier, in
// ascending node order, so the emitted stream is deterministic for any
// worker count. Without a Tracer the method is never called and
// implementations must buffer nothing (the nil-Tracer contract: tracing
// off costs nothing on the hot path).
type EvidenceSource interface {
	// TraceEvidence turns evidence buffering on (or off).
	TraceEvidence(on bool)
	// DrainEvidence calls emit for every buffered event in emission order
	// and clears the buffer.
	DrainEvidence(emit func(obs.Event))
}

// Transport joins engines that each run a share of one network's nodes —
// the processes of a TCP deployment (internal/tcpnet), or engines side by
// side in a test. Each engine holds all n slots, a placeholder that emits
// nothing in those of remote nodes, and calls the transport from the
// scheduler goroutine only (DESIGN.md §6, "one loop, two transports").
type Transport interface {
	// Remote reports whether node id runs in another engine; asked once
	// per node before round 1.
	Remote(id ids.NodeID) bool
	// Exchange runs between route and deliver. out holds the round's
	// admitted sends to remote nodes, by recipient and then sender-major;
	// Exchange returns the round's sends from remote nodes to this
	// engine's, each sender's in send order. Both need stay valid only
	// until the round's delivery ends. An error ends the run.
	Exchange(round int, out []Envelope) ([]Envelope, error)
}

// Envelope is one message crossing a Transport.
type Envelope struct {
	From, To ids.NodeID
	Data     []byte
}

// DefaultMsgOverhead is the per-message byte overhead added to the sender's
// byte count: a 4-byte sender ID and a 4-byte length prefix, matching the
// TCP framing in internal/tcpnet.
const DefaultMsgOverhead = 8

// Config parameterizes a run.
type Config struct {
	// Graph is the communication network; messages travel only on its
	// edges. Required unless Topology is set.
	Graph *graph.Graph
	// Topology, when non-nil, supplies a time-varying communication graph
	// and takes precedence over Graph: the engine routes round r over
	// Topology.GraphFor(r), swapping adjacency at round boundaries. A
	// provider whose graph never changes behaves identically to passing
	// Graph. See DESIGN.md §7.
	Topology TopologyProvider
	// Rounds is the number of synchronous rounds R. Required (>= 0).
	Rounds int
	// Seed drives the per-recipient delivery-order shuffle, making runs
	// reproducible while avoiding sender-ID-ordered delivery artifacts.
	Seed int64
	// Workers caps the engine's intra-run parallelism (emit and deliver
	// blocks, route stripes): 0 means GOMAXPROCS, 1 runs every phase inline
	// on the caller's goroutine, negative is invalid. Worker count never
	// changes results — routing is sender-striped and merged in
	// sender-major order, emit and deliver touch each node from exactly one
	// goroutine — so schedulers (internal/exp, internal/dynamic) are free
	// to split one machine budget between concurrent trials or epochs and
	// each one's engine.
	Workers int
	// FullHorizon disables quiescence early exit: all Rounds rounds run
	// even when every node is quiescent. Results are identical either
	// way (the skipped rounds are provably silent); the knob exists for
	// the equivalence tests.
	FullHorizon bool
	// LossRate drops each routed message independently with the given
	// probability (0 = reliable channels, the paper's model). Message
	// loss violates NECTAR's channel assumption and exists to reproduce
	// the baselines' robustness claims (MindTheGap tolerates 40% loss,
	// §VI-A1) and to study NECTAR's degradation. Lost messages are still
	// metered as sent.
	LossRate float64
	// Tracer, when non-nil, receives per-round engine events (round
	// start/end, per-recipient delivery counts, discard totals,
	// quiescence fast-forwards, topology swaps) — DESIGN.md §12. All
	// events leave the scheduler goroutine in program order, and tracing
	// never changes results: delivery counts are observed, not altered,
	// and the equivalence property test pins tracer-on/off outputs
	// byte-identical. Nil (the default) costs nothing on the hot path.
	Tracer obs.Tracer
	// Transport, when non-nil, splits the network across engines; a split
	// run delivers and meters what one engine would. Nil (the default) is
	// the single in-memory engine.
	Transport Transport
}

// Metrics records per-node traffic for one run.
type Metrics struct {
	// BytesSent[i] is the total bytes sent by node i (payload + overhead),
	// counted once per destination (true unicast bytes on the wire).
	BytesSent []int64
	// BytesBroadcast[i] charges each multicast of node i once — consecutive
	// sends of one buffer (Protocol) — however many neighbors receive it:
	// the multicast accounting of the paper's salticidae-based prototype,
	// which its "data sent per node" figures reflect (see DESIGN.md §5).
	BytesBroadcast []int64
	// MsgsSent[i] is the number of messages sent by node i.
	MsgsSent []int64
	// MsgsDelivered[i] is the number of messages delivered to node i.
	MsgsDelivered []int64
	// DroppedNonEdge counts sends discarded because no channel exists
	// (self-sends or non-neighbor destinations) — only Byzantine nodes
	// can attempt these.
	DroppedNonEdge int64
	// DroppedLoss counts messages lost to Config.LossRate.
	DroppedLoss int64
	// BytesByRound[r-1] is the total bytes sent by all nodes in round r —
	// the §IV-E effect of nodes going silent once every edge is known
	// shows up as trailing zeros.
	BytesByRound []int64
	// Rounds is the configured horizon R. Rounds beyond ActiveRounds were
	// fast-forwarded (provably silent), but still count toward the
	// synchronous-time complexity the horizon models.
	Rounds int
	// ActiveRounds is the number of rounds the engine actually executed:
	// equal to Rounds unless every node reported quiescence earlier. With
	// a TopologyProvider, quiescent stretches between topology changes
	// are fast-forwarded too, so ActiveRounds counts only rounds in which
	// traffic was possible.
	ActiveRounds int
}

// delivery is a queued message awaiting Deliver.
type delivery struct {
	from ids.NodeID
	data []byte
}

// routeShard is one worker's staged deliveries for every recipient.
// Shards persist across rounds (buffers are truncated, not reallocated) to
// keep GC pressure flat on large graphs, and across runs as part of the
// recycled staging (pool.go).
type routeShard struct {
	inbox [][]delivery // per-recipient staged messages, sender-major
}

// meter is one worker's private metering state: the current sender's
// multicast run and the scalar counters that would otherwise contend.
// Per-sender metric arrays need no shard — sender stripes are disjoint.
type meter struct {
	// last is the payload of the current sender's previous metered send
	// this round: a send of the same buffer continues its multicast and is
	// not charged to BytesBroadcast again (Protocol).
	last []byte
	// sent, msgs and bcast are the current sender's BytesSent, MsgsSent
	// and BytesBroadcast, added to its metric rows once it is routed.
	sent, msgs, bcast int64
	bytesThisRound    int64
	droppedNonEdge    int64
	droppedLoss       int64
}

// engine holds one run's state. The embedded staging — buffers and worker
// count — is borrowed from the package free list for the duration of the
// run (pool.go).
type engine struct {
	*staging
	cfg       Config
	g         *graph.Graph
	n         int
	nodes     []Protocol
	quiescers []Quiescer // non-nil only when every node implements Quiescer
	m         *Metrics
	// traceDelivered[i] is recipient i's delivery count for the current
	// round, written by deliver (each recipient is handled by exactly one
	// worker per round, so writes never contend) and drained into
	// msg_deliver events by the scheduler goroutine. Nil when cfg.Tracer
	// is nil.
	traceDelivered []int64
	// evidence[i] is node i's evidence buffer when it implements
	// EvidenceSource, drained after each round's delivery barrier in
	// ascending node order. Nil when cfg.Tracer is nil.
	evidence []EvidenceSource
	// remote[i] marks the nodes cfg.Transport runs elsewhere; sent is the
	// round's sends to them. Both nil without a transport.
	remote []bool
	sent   []Envelope
}

// Run drives nodes through cfg.Rounds synchronous rounds and returns the
// traffic metrics. nodes[i] is the protocol state machine of node i; its
// length must equal cfg.Graph.N().
func Run(cfg Config, nodes []Protocol) (*Metrics, error) {
	g := cfg.Graph
	if cfg.Topology != nil {
		// Round-1 events are part of the initial topology.
		g = cfg.Topology.GraphFor(1)
	}
	if g == nil {
		return nil, fmt.Errorf("rounds: Config.Graph or Config.Topology is required")
	}
	if len(nodes) != g.N() {
		return nil, fmt.Errorf("rounds: %d nodes for a %d-vertex graph", len(nodes), g.N())
	}
	if cfg.Rounds < 0 {
		return nil, fmt.Errorf("rounds: negative round count %d", cfg.Rounds)
	}
	if !(cfg.LossRate >= 0 && cfg.LossRate < 1) { // NaN fails too
		return nil, fmt.Errorf("rounds: LossRate must be in [0,1), got %v", cfg.LossRate)
	}
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("rounds: negative Workers %d", cfg.Workers)
	}
	n := g.N()
	workers := runtime.GOMAXPROCS(0)
	if cfg.Workers > 0 {
		workers = cfg.Workers
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	st := acquireStaging(n, workers)
	defer st.release()
	e := &engine{
		staging: st,
		cfg:     cfg,
		g:       g,
		n:       n,
		nodes:   nodes,
		m: &Metrics{
			BytesSent:      make([]int64, n),
			BytesBroadcast: make([]int64, n),
			MsgsSent:       make([]int64, n),
			MsgsDelivered:  make([]int64, n),
			BytesByRound:   make([]int64, cfg.Rounds),
			Rounds:         cfg.Rounds,
		},
	}
	if cfg.Tracer != nil {
		e.traceDelivered = make([]int64, n)
		e.evidence = make([]EvidenceSource, n)
		for i, nd := range nodes {
			if src, ok := nd.(EvidenceSource); ok {
				e.evidence[i] = src
				src.TraceEvidence(true)
			}
		}
	}
	// Early exit is sound only when every node can attest quiescence;
	// one opaque protocol forces the full horizon.
	quiescers := make([]Quiescer, n)
	for i, nd := range nodes {
		q, ok := nd.(Quiescer)
		if !ok {
			quiescers = nil
			break
		}
		quiescers[i] = q
	}
	e.quiescers = quiescers
	if cfg.Transport != nil {
		e.remote = make([]bool, n)
		for i := range e.remote {
			e.remote[i] = cfg.Transport.Remote(ids.NodeID(i))
		}
	}
	if err := e.run(); err != nil {
		return nil, err
	}
	return e.m, nil
}

func (e *engine) run() error {
	// nextChange is the first upcoming round with a different topology
	// (0 = none). It both triggers adjacency swaps and re-arms the
	// quiescence early exit: an all-quiescent network fast-forwards to
	// the next change instead of to the end of the horizon.
	nextChange := 0
	if e.cfg.Topology != nil {
		nextChange = e.cfg.Topology.NextChange(1)
	}
	for r := 1; r <= e.cfg.Rounds; r++ {
		if nextChange > 0 && r >= nextChange {
			e.g = e.cfg.Topology.GraphFor(r)
			nextChange = e.cfg.Topology.NextChange(r)
			if e.cfg.Tracer != nil {
				e.cfg.Tracer.Emit(obs.Event{Type: obs.EvTopoSwap, Round: r})
			}
			// Link-layer notification: nodes observing the change may
			// wake from quiescence before this round's Emit.
			for i, nd := range e.nodes {
				if ta, ok := nd.(TopologyAware); ok {
					ta.OnTopology(r, e.g.Neighbors(ids.NodeID(i)))
				}
			}
		}
		e.m.ActiveRounds++
		if e.cfg.Tracer != nil {
			e.cfg.Tracer.Emit(obs.Event{Type: obs.EvRoundStart, Round: r})
		}
		// Phase 1: every node emits its round-r messages (in parallel —
		// nodes are independent state machines; workers claim blocks, so a
		// run of busy relays does not land on one of them).
		parallelBlocks(e.n, e.workers, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				//nectar:allow-bufretain the engine is the consuming side of the contract; outboxes are read only until this round's delivery phase ends
				e.outboxes[i] = e.nodes[i].Emit(r)
			}
		})

		// Phase 2: route. Each worker owns a contiguous sender stripe, so
		// per-sender metric rows are contention-free and staged inboxes
		// concatenate back to sender-major order — the one phase whose
		// result is defined by who handles which index, so it stays striped.
		var dropNonEdge, dropLoss int64
		parallelChunks(e.n, e.workers, func(w, lo, hi int) {
			e.route(e.shards[w], e.meters[w], r, lo, hi)
		})
		for _, mt := range e.meters[:e.workers] {
			e.m.BytesByRound[r-1] += mt.bytesThisRound
			dropNonEdge += mt.droppedNonEdge
			dropLoss += mt.droppedLoss
			mt.bytesThisRound, mt.droppedNonEdge, mt.droppedLoss = 0, 0, 0
		}
		e.m.DroppedNonEdge += dropNonEdge
		e.m.DroppedLoss += dropLoss
		if e.remote != nil {
			if err := e.exchange(r); err != nil {
				return err
			}
		}

		// Phase 3: merge + deliver. Each recipient's inbox is assembled
		// from the worker shards in stripe order (restoring sender-major
		// order), then shuffled with a round/recipient-specific seed so
		// protocols cannot accidentally rely on sender-ordered delivery,
		// yet runs stay reproducible. Recipients are claimed in blocks like
		// emitters: the merge reads every shard whoever runs it, and the
		// shuffle is seeded per recipient, so nothing depends on the claim.
		parallelBlocks(e.n, e.workers, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				e.deliver(i, r)
			}
		})

		// Trace drain, scheduler goroutine only: per-recipient delivery
		// counts in ascending node order, then discard and round-end
		// aggregates — a deterministic event sequence regardless of the
		// worker count that produced the round.
		if e.cfg.Tracer != nil {
			for i, cnt := range e.traceDelivered {
				if cnt > 0 {
					e.cfg.Tracer.Emit(obs.Event{Type: obs.EvMsgDeliver, Round: r, Node: i, N: cnt})
					e.traceDelivered[i] = 0
				}
				// Evidence drained right after the node's delivery count, so
				// a reader sees each node's deliveries and their outcomes
				// adjacently; the buffers were filled on worker goroutines
				// but are drained only here, in ascending node order.
				if src := e.evidence[i]; src != nil {
					src.DrainEvidence(e.cfg.Tracer.Emit)
				}
			}
			if dropNonEdge+dropLoss > 0 {
				e.cfg.Tracer.Emit(obs.Event{Type: obs.EvMsgDiscard, Round: r, N: dropNonEdge + dropLoss,
					Attrs: []obs.Attr{{K: "nonedge", V: dropNonEdge}, {K: "loss", V: dropLoss}}})
			}
			e.cfg.Tracer.Emit(obs.Event{Type: obs.EvRoundEnd, Round: r, N: e.m.BytesByRound[r-1]})
		}

		// Quiescence check: inboxes are drained, so if every node attests
		// it has nothing left to say, rounds up to the next topology
		// change (or the horizon, if none) are provably silent. A pending
		// change re-arms the run: the engine fast-forwards to the change
		// round, whose swap may wake TopologyAware nodes, rather than
		// exiting the horizon.
		if e.quiescers != nil && !e.cfg.FullHorizon && r < e.cfg.Rounds {
			if e.allQuiescent() {
				if nextChange == 0 || nextChange > e.cfg.Rounds {
					if e.cfg.Tracer != nil {
						e.cfg.Tracer.Emit(obs.Event{Type: obs.EvQuiesce, Round: r, N: int64(e.cfg.Rounds)})
					}
					return nil
				}
				if e.cfg.Tracer != nil {
					e.cfg.Tracer.Emit(obs.Event{Type: obs.EvQuiesce, Round: r, N: int64(nextChange)})
				}
				r = nextChange - 1 // resume at the swap round
			}
		}
	}
	return nil
}

// route meters and stages the outboxes of senders [lo, hi) into sh.
func (e *engine) route(sh *routeShard, mt *meter, round, lo, hi int) {
	for i := lo; i < hi; i++ {
		if len(e.outboxes[i]) == 0 {
			// Quiescent sender (most nodes are silent on most rounds once
			// discovery finishes).
			e.outboxes[i] = nil
			continue
		}
		mt.last = nil
		for k, s := range e.outboxes[i] {
			if e.admit(mt, round, i, k, s) {
				sh.inbox[s.To] = append(sh.inbox[s.To], delivery{from: ids.NodeID(i), data: s.Data})
			}
		}
		e.outboxes[i] = nil
		e.m.BytesSent[i] += mt.sent
		e.m.MsgsSent[i] += mt.msgs
		e.m.BytesBroadcast[i] += mt.bcast
		mt.bytesThisRound += mt.sent
		mt.sent, mt.msgs, mt.bcast = 0, 0, 0
	}
}

// exchange moves the staged sends to remote recipients out through the
// transport and stages what it returns in shard 0, from where deliver
// sorts it into sender-major order.
func (e *engine) exchange(round int) error {
	out := e.sent[:0]
	for j, remote := range e.remote {
		if !remote {
			continue
		}
		for _, sh := range e.shards[:e.workers] {
			for _, d := range sh.inbox[j] {
				out = append(out, Envelope{From: d.from, To: ids.NodeID(j), Data: d.data})
			}
			e.marks[j] = max(e.marks[j], len(sh.inbox[j]))
			sh.inbox[j] = sh.inbox[j][:0]
		}
	}
	e.sent = out
	in, err := e.cfg.Transport.Exchange(round, out)
	if err != nil {
		return err
	}
	for _, env := range in {
		e.shards[0].inbox[env.To] = append(e.shards[0].inbox[env.To], delivery{from: env.From, data: env.Data})
	}
	return nil
}

// admit applies the network's rules and the sender-side accounting to send
// k of sender i's round outbox, and reports whether the message is to be
// staged for delivery: not when no channel exists (self-send, unknown or
// non-neighbor destination — unmetered), and not when it is lost to
// Config.LossRate (metered as sent).
func (e *engine) admit(mt *meter, round, i, k int, s Send) bool {
	from := ids.NodeID(i)
	if s.To == from || int(s.To) >= e.n || !e.g.HasEdge(from, s.To) {
		mt.droppedNonEdge++
		return false
	}
	size := int64(len(s.Data) + DefaultMsgOverhead)
	mt.sent += size
	mt.msgs++
	// A send of the previous metered send's buffer — the same length and
	// first byte address — continues its multicast (Protocol); an empty
	// payload never does.
	if len(s.Data) == 0 || len(mt.last) != len(s.Data) || &mt.last[0] != &s.Data[0] {
		mt.bcast += size
		mt.last = s.Data
	}
	if e.cfg.LossRate > 0 && lossDraw(e.cfg.Seed, round, i, k) < e.cfg.LossRate {
		mt.droppedLoss++
		return false
	}
	return true
}

// deliver merges recipient i's staged messages, shuffles, and delivers.
// Only this call touches shard entry i and mark i, so truncating and
// raising them here is safe. With one shard the merge is a swap: the
// shard's buffer becomes the inbox and the last inbox's buffer takes the
// next round's staging. If that buffer is too small for this inbox it is
// replaced by one of the shard buffer's capacity, so the pair that trades
// places grows together, in one step, rather than each by doubling in
// the shard's role.
func (e *engine) deliver(i, round int) {
	var inbox []delivery
	if e.workers == 1 {
		sh := e.shards[0]
		inbox = sh.inbox[i]
		next := e.inboxes[i][:0]
		if cap(next) < len(inbox) {
			next = make([]delivery, 0, cap(inbox))
		}
		sh.inbox[i] = next
	} else {
		inbox = e.inboxes[i][:0]
		for _, sh := range e.shards[:e.workers] {
			inbox = append(inbox, sh.inbox[i]...)
			sh.inbox[i] = sh.inbox[i][:0]
		}
	}
	if e.remote != nil { // stable: each sender's own order stays
		slices.SortStableFunc(inbox, func(a, b delivery) int { return cmp.Compare(a.from, b.from) })
	}
	e.inboxes[i] = inbox
	if len(inbox) == 0 {
		return
	}
	e.marks[i] = max(e.marks[i], len(inbox))
	if len(inbox) > 1 { // shuffling one message draws nothing
		shuffleInbox(e.cfg.Seed^int64(round)<<20^int64(i), inbox)
	}
	e.m.MsgsDelivered[i] += int64(len(inbox))
	if e.traceDelivered != nil {
		e.traceDelivered[i] = int64(len(inbox))
	}
	for _, d := range inbox {
		e.nodes[i].Deliver(round, d.from, d.data)
	}
}

// allQuiescent reports whether every node attests quiescence.
func (e *engine) allQuiescent() bool {
	for _, q := range e.quiescers {
		if !q.Quiescent() {
			return false
		}
	}
	return true
}

// lossDraw returns a deterministic uniform [0,1) draw for message k of
// sender `from` in `round`. Hashing instead of a shared RNG stream keeps
// loss decisions independent of routing parallelism and worker count.
// Each input is mixed through the finalizer separately — packing them
// into bit fields would alias once an outbox exceeds the field width.
func lossDraw(seed int64, round, from, k int) float64 {
	h := splitmix64(uint64(seed) ^ 0x1055105510551055)
	h = splitmix64(h ^ uint64(round))
	h = splitmix64(h ^ uint64(from))
	h = splitmix64(h ^ uint64(k))
	return float64(h>>11) / (1 << 53)
}

// splitmix64 is the SplitMix64 finalizer (Steele et al.).
func splitmix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// parallelBlocks covers [0, n) with fn(worker, lo, hi) calls over disjoint
// blocks that the workers claim from one counter as they finish their
// last, so a phase whose cost is skewed over the indices — a tree's
// relaying internal nodes are its lowest — ends when the work does, not
// when the unluckiest stripe does (DESIGN.md §6). Each index goes to
// exactly one call and every w is below workers, but which worker gets
// which block is the scheduler's choice: fn's effect must not depend on
// it. With one worker it runs inline (no goroutines).
func parallelBlocks(n, workers int, fn func(w, lo, hi int)) {
	if workers <= 1 || n <= 1 {
		fn(0, 0, n)
		return
	}
	workers = min(workers, n)
	block := max(1, n/(8*workers))
	var next atomic.Int64
	fanOut(workers, func(w int) {
		for {
			hi := int(next.Add(int64(block)))
			if hi-block >= n {
				return
			}
			fn(w, hi-block, min(hi, n))
		}
	})
}

// parallelChunks splits [0, n) into one contiguous chunk per worker and
// runs fn(worker, lo, hi) concurrently. With one worker it runs inline
// (no goroutines).
func parallelChunks(n, workers int, fn func(w, lo, hi int)) {
	if workers <= 1 || n <= 1 {
		fn(0, 0, n)
		return
	}
	workers = min(workers, n)
	fanOut(workers, func(w int) {
		fn(w, w*n/workers, (w+1)*n/workers)
	})
}

// fanOut runs fn(0) … fn(workers-1) on a goroutine each and waits for all.
func fanOut(workers int, fn func(w int)) {
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			fn(w)
		}(w)
	}
	wg.Wait()
}
