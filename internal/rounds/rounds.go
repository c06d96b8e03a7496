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
// A round has two parallel phases (DESIGN.md §6): every node emits and is
// metered as a sender, then every recipient pulls its inbox from its
// neighbours' outboxes — in ascending sender order, each outbox in send
// order — shuffles it and has it delivered. Nothing is staged per
// recipient, and no result depends on which worker handles which node.
// Protocols may implement the optional Quiescer extension: once every node
// reports quiescence at a round boundary (all inboxes drained, so nothing
// is in flight) the engine fast-forwards the remaining horizon — the §IV-E
// observation that NECTAR nodes go silent once every edge is known, turned
// into wall-clock savings.
package rounds

import (
	"cmp"
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/nectar-repro/nectar/internal/graph"
	"github.com/nectar-repro/nectar/internal/ids"
	"github.com/nectar-repro/nectar/internal/obs"
)

// Send is one payload for a list of recipients: a multicast (DESIGN.md
// §5). Data goes to every listing of To but the one Skip names — Skip is 1
// + its index, and 0 (or any value outside 1..len(To)) leaves none out, so
// the zero value sends nothing. Each listing is one message: a recipient
// listed twice gets Data twice, metered and delivered like two Sends.
type Send struct {
	To   []ids.NodeID
	Skip int
	Data []byte
}

// Recipients appends the recipients of s to dst in send order, one per
// message, and returns the extended slice: s's per-recipient expansion.
func (s Send) Recipients(dst []ids.NodeID) []ids.NodeID {
	for p, to := range s.To {
		if p != s.Skip-1 {
			dst = append(dst, to)
		}
	}
	return dst
}

// Protocol is the per-node state machine driven by the engine. For every
// round r = 1..R the engine first calls Emit(r) on every node, then
// delivers each emitted message to its recipient via Deliver(r, ...).
// Implementations need not be safe for concurrent use; the engine never
// calls a single node concurrently.
//
// Buffer ownership (DESIGN.md §9): the slice returned by Emit and each
// Send's To and Data stay owned by the emitting node and must remain
// unmodified only until the end of the round's delivery phase — the engine
// retains none of them, so nodes may encode into per-round scratch arenas
// and send their own neighbour lists. Conversely, the data handed to
// Deliver is only valid for the duration of the call; a protocol (or
// wrapper) that retains messages across rounds — to relay, delay, or
// replay them — must copy them, recipient lists included.
//
// Multicast (DESIGN.md §5): a Send is one multicast, charged to
// BytesBroadcast once if any of its listings has a channel. Two Sends are
// two multicasts, whatever their bytes.
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
// edge removal, see internal/dynamic): Run fails on a nil graph or one of
// another size.
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

// SplitAware is an optional Protocol extension for split runs: before round
// 1 of a run with a Transport the engine calls SplitRun on every node that
// implements it. A split run hands remote recipients copies of a round's
// Data taken between its emit and deliver phases, so a node that would
// otherwise complete its sends during delivery — a NECTAR relay signed by
// its first reader (DESIGN.md §9) — must complete them in Emit.
type SplitAware interface {
	SplitRun()
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
	// Exchange runs between emit and deliver. out holds the round's
	// admitted messages to remote nodes, one per recipient, by recipient
	// and then sender-major; Exchange returns the round's messages from
	// remote nodes to this engine's, each sender's in send order. Both need stay valid only
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
	// Workers caps the engine's intra-run parallelism (the blocks of
	// senders the emit phase meters, and of recipients the deliver phase
	// pulls inboxes for): 0 means GOMAXPROCS, 1 runs every phase inline on
	// the caller's goroutine, negative is invalid. Worker count never
	// changes results — each phase touches each node from exactly one
	// goroutine, and an inbox is pulled in sender order whoever pulls it —
	// so schedulers (internal/exp, internal/dynamic) are free to split one
	// machine budget between concurrent trials or epochs and each one's
	// engine.
	Workers int
	// FullHorizon disables quiescence early exit: all Rounds rounds run
	// even when every node is quiescent. Results are identical either
	// way (the skipped rounds are provably silent); the knob exists for
	// the equivalence tests.
	FullHorizon bool
	// LossRate drops each admitted message independently with the given
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
	// BytesBroadcast[i] charges each multicast of node i once — one Send
	// (Protocol) — however many neighbors receive it:
	// the multicast accounting of the paper's salticidae-based prototype,
	// which its "data sent per node" figures reflect (see DESIGN.md §5).
	BytesBroadcast []int64
	// MsgsSent[i] is the number of messages sent by node i: one per
	// admitted listing of each Send.
	MsgsSent []int64
	// MsgsDelivered[i] is the number of messages delivered to node i.
	MsgsDelivered []int64
	// DroppedNonEdge counts sends discarded because no channel exists
	// (self-sends or non-neighbor destinations) — only Byzantine nodes
	// can attempt these.
	DroppedNonEdge int64
	// DroppedLoss counts messages lost to Config.LossRate.
	DroppedLoss int64
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

// delivery is a message in a recipient's inbox awaiting Deliver.
type delivery struct {
	from ids.NodeID
	data []byte
}

// worker is one worker's private state: the counters that would otherwise
// contend, the inbox it pulls each recipient's messages into, and the
// positions of that recipient in the sender's current list. Per-sender
// metric rows need no worker — each sender is metered by one.
type worker struct {
	inbox                []delivery
	at                   []int
	bytes, nonEdge, lost int64
}

// engine holds one run's state. The embedded staging — outboxes and
// workers — is borrowed from the package free list for the duration of
// the run (pool.go).
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
	// round's messages to them, and recv what the transport returned,
	// sorted by recipient. All nil without a transport.
	remote     []bool
	sent, recv []Envelope
	// round is the round the phases below run; emitBlock and deliverBlock
	// are its emit and pull + deliver phases over one block of nodes,
	// bound once per run so a round allocates no closure.
	round                   int
	emitBlock, deliverBlock func(w, lo, hi int)
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
	workers = max(1, min(workers, n))
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
			if sa, ok := nodes[i].(SplitAware); ok {
				sa.SplitRun()
			}
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
	e.emitBlock, e.deliverBlock = e.emitPhase, e.deliverPhase
	for r := 1; r <= e.cfg.Rounds; r++ {
		e.round = r
		if nextChange > 0 && r >= nextChange {
			// The pull walks the new graph's lists: it must be one over
			// the run's n vertices.
			if e.g = e.cfg.Topology.GraphFor(r); e.g == nil || e.g.N() != e.n {
				return fmt.Errorf("rounds: round %d topology is not a %d-vertex graph", r, e.n)
			}
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
		// Phase 1: every node emits its round-r messages and is metered
		// as their sender (in parallel — nodes are independent state
		// machines and each sender's metric row is its own; workers claim
		// blocks, so a run of busy relays does not land on one of them).
		parallelBlocks(e.n, e.used, e.emitBlock)
		var roundBytes, dropNonEdge int64
		for _, wk := range e.workers[:e.used] {
			roundBytes += wk.bytes
			dropNonEdge += wk.nonEdge
			wk.bytes, wk.nonEdge = 0, 0
		}
		if e.remote != nil {
			if err := e.exchange(r); err != nil {
				return err
			}
		}

		// Phase 2: pull + deliver. Each recipient's inbox is pulled from
		// its neighbours' outboxes in sender-major order, then shuffled
		// with a round/recipient-specific seed so protocols cannot
		// accidentally rely on sender-ordered delivery, yet runs stay
		// reproducible. Recipients are claimed in blocks like emitters: the
		// pull reads only outboxes, and the shuffle is seeded per
		// recipient, so nothing depends on the claim.
		parallelBlocks(e.n, e.used, e.deliverBlock)
		var dropLoss int64
		for _, wk := range e.workers[:e.used] {
			dropLoss += wk.lost
			wk.lost = 0
		}
		e.m.DroppedNonEdge += dropNonEdge
		e.m.DroppedLoss += dropLoss

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
			e.cfg.Tracer.Emit(obs.Event{Type: obs.EvRoundEnd, Round: r, N: roundBytes})
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

// emitPhase has nodes lo..hi-1 emit their messages for e.round and meters
// each as their sender on worker w.
func (e *engine) emitPhase(w, lo, hi int) {
	for i := lo; i < hi; i++ {
		//nectar:allow-bufretain the engine is the consuming side of the contract; outboxes are read only until this round's delivery phase ends
		e.outboxes[i] = e.nodes[i].Emit(e.round)
		e.meter(e.workers[w], i)
	}
}

// deliverPhase pulls and delivers the inboxes of recipients lo..hi-1 for
// e.round on worker w.
func (e *engine) deliverPhase(w, lo, hi int) {
	for i := lo; i < hi; i++ {
		e.deliver(e.workers[w], i, e.round)
	}
}

// meter charges sender i's outbox to its metric rows: each Send once per
// listing with a channel to BytesSent and MsgsSent, and once to
// BytesBroadcast if it has any such listing. A listing without a channel —
// a self-send, an unknown or non-neighbor recipient — is counted in
// wk.nonEdge and nowhere else. The channel count is taken once per list:
// the Sends of one outbox mostly share one.
func (e *engine) meter(wk *worker, i int) {
	from := ids.NodeID(i)
	var list []ids.NodeID
	admitted := 0
	for _, s := range e.outboxes[i] {
		if !sameList(s.To, list) {
			list, admitted = s.To, 0
			for _, to := range list {
				if e.channel(from, to) {
					admitted++
				}
			}
		}
		listed, a := len(s.To), admitted
		if k := s.Skip - 1; k >= 0 && k < listed {
			if admitted == listed || e.channel(from, s.To[k]) { // every listing of a fully admitted list has a channel
				a--
			}
			listed--
		}
		wk.nonEdge += int64(listed - a)
		if a == 0 {
			continue
		}
		size := int64(len(s.Data) + DefaultMsgOverhead)
		e.m.BytesSent[i] += int64(a) * size
		e.m.MsgsSent[i] += int64(a)
		e.m.BytesBroadcast[i] += size
		wk.bytes += int64(a) * size
	}
}

// channel reports whether a message from `from` to `to` has an edge to
// travel on this round.
func (e *engine) channel(from, to ids.NodeID) bool {
	return to != from && int(to) < e.n && e.g.HasEdge(from, to)
}

// sameList reports whether a and b are one list: the same length and, when
// not empty, the same first element.
func sameList(a, b []ids.NodeID) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// pull appends to inbox what sender i sends recipient j this round, in
// send order: every listing of j in each of i's Sends but the one the
// Send skips, less what Config.LossRate drops. Message k of i's
// per-recipient expansion draws loss as k, whoever pulls it. The caller
// has checked that i and j share an edge.
func (e *engine) pull(inbox []delivery, wk *worker, round, i, j int) []delivery {
	from, to := ids.NodeID(i), ids.NodeID(j)
	var list []ids.NodeID
	at := wk.at[:0]
	k := 0 // the first listing of the current Send in i's expansion
	for _, s := range e.outboxes[i] {
		if !sameList(s.To, list) {
			list, at = s.To, at[:0]
			for p, x := range list {
				if x == to {
					at = append(at, p)
				}
			}
		}
		skip := s.Skip - 1
		for _, p := range at {
			if p == skip {
				continue
			}
			if e.cfg.LossRate > 0 {
				kp := k + p
				if skip >= 0 && p > skip {
					kp--
				}
				if lossDraw(e.cfg.Seed, round, i, kp) < e.cfg.LossRate {
					wk.lost++
					continue
				}
			}
			inbox = append(inbox, delivery{from: from, data: s.Data})
		}
		k += len(s.To)
		if skip >= 0 && skip < len(s.To) {
			k--
		}
	}
	if cap(at) != cap(wk.at) { // grown: keep it (a store per call costs a write barrier)
		wk.at = at
	}
	return inbox
}

// exchange pulls the round's messages to remote recipients, hands them to
// the transport, and keeps what it returns in e.recv, sorted by recipient
// (stably: each sender's own order stays) for deliver.
func (e *engine) exchange(round int) error {
	out, wk := e.sent[:0], e.workers[0]
	for j, remote := range e.remote {
		if !remote {
			continue
		}
		buf := wk.inbox[:0]
		for _, i := range e.g.Neighbors(ids.NodeID(j)) {
			buf = e.pull(buf, wk, round, int(i), j)
		}
		for _, d := range buf {
			out = append(out, Envelope{From: d.from, To: ids.NodeID(j), Data: d.data})
		}
		wk.inbox = buf
	}
	e.sent = out
	in, err := e.cfg.Transport.Exchange(round, out)
	if err != nil {
		return err
	}
	e.recv = append(e.recv[:0], in...)
	slices.SortStableFunc(e.recv, func(a, b Envelope) int { return cmp.Compare(a.To, b.To) })
	return nil
}

// deliver pulls recipient j's inbox into wk's buffer, shuffles it, and
// delivers it. In a split run the pull skips remote recipients (their
// inboxes went out in exchange), and a local one's envelopes are merged
// in by sender, each after the local pull from its sender.
func (e *engine) deliver(wk *worker, j, round int) {
	if e.remote != nil && e.remote[j] {
		return
	}
	inbox := wk.inbox[:0]
	for _, i := range e.g.Neighbors(ids.NodeID(j)) {
		if len(e.outboxes[i]) > 0 {
			inbox = e.pull(inbox, wk, round, int(i), j)
		}
	}
	if e.remote != nil {
		in := e.recv[sort.Search(len(e.recv), func(k int) bool { return e.recv[k].To >= ids.NodeID(j) }):]
		for k := 0; k < len(in) && in[k].To == ids.NodeID(j); k++ {
			inbox = append(inbox, delivery{from: in[k].From, data: in[k].Data})
		}
		slices.SortStableFunc(inbox, func(a, b delivery) int { return cmp.Compare(a.from, b.from) })
	}
	if cap(inbox) != cap(wk.inbox) {
		wk.inbox = inbox
	}
	if len(inbox) == 0 {
		return
	}
	shuffleInbox(e.cfg.Seed^int64(round)<<20^int64(j), inbox)
	e.m.MsgsDelivered[j] += int64(len(inbox))
	if e.traceDelivered != nil {
		e.traceDelivered[j] = int64(len(inbox))
	}
	for _, d := range inbox {
		e.nodes[j].Deliver(round, d.from, d.data)
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
// sender `from`'s per-recipient expansion in `round`. Hashing instead of a
// shared RNG stream keeps loss decisions independent of who pulls which
// inbox and of the worker count.
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

// shuffleInbox permutes d by a Fisher–Yates pass over the SplitMix64
// stream keyed by key (DESIGN.md §6). Each index is drawn without bias:
// Lemire's multiply-shift, redrawn while the low half of the product falls
// below 2⁶⁴ mod n, which is below n, so most draws skip the division. One
// message draws nothing.
func shuffleInbox(key int64, d []delivery) {
	x := uint64(key)
	for i := len(d) - 1; i > 0; i-- {
		n := uint64(i + 1)
		for {
			x += 0x9e3779b97f4a7c15
			j, low := bits.Mul64(splitmix64(x), n)
			if low >= n || low >= -n%n {
				d[i], d[j] = d[j], d[i]
				break
			}
		}
	}
}

// parallelBlocks covers [0, n) with fn(worker, lo, hi) calls over disjoint
// blocks that the workers claim from one counter as they finish their
// last, so a phase whose cost is skewed over the indices — a tree's
// relaying internal nodes are its lowest — ends when the work does, not
// when the unluckiest stripe does (DESIGN.md §6). Each index goes to
// exactly one call and every w is below workers, but which worker gets
// which block is the scheduler's choice: fn's effect must not depend on
// it. With one worker it runs inline (no goroutines). Otherwise it starts
// one goroutine a worker, each on the same closure and each taking its w
// from a counter, so a phase allocates the same whatever the worker count.
func parallelBlocks(n, workers int, fn func(w, lo, hi int)) {
	if workers <= 1 || n <= 1 {
		fn(0, 0, n)
		return
	}
	workers = min(workers, n)
	block := max(1, n/(8*workers))
	var claims struct {
		next    atomic.Int64 // the end of the next block to claim
		started atomic.Int64 // workers started so far
		wg      sync.WaitGroup
	}
	claims.wg.Add(workers)
	work := func() {
		defer claims.wg.Done()
		w := int(claims.started.Add(1)) - 1
		for {
			hi := int(claims.next.Add(int64(block)))
			if hi-block >= n {
				return
			}
			fn(w, hi-block, min(hi, n))
		}
	}
	for range workers {
		go work()
	}
	claims.wg.Wait()
}
