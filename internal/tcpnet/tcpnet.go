// Package tcpnet runs rounds.Protocol state machines over real TCP
// sockets, mirroring the paper's prototype, which executed on a real
// network stack (salticidae) rather than in a simulator.
//
// The synchronous model of §II is realized with wall-clock rounds: all
// processes agree on a start instant and a round duration ΔT chosen so
// that messages sent at the beginning of a round are delivered before it
// ends. Each process runs rounds.Run over its one node with the peer table
// as transport, so it shares the simulator's edge rules, metering and
// delivery shuffle (DESIGN.md §6). One TCP connection exists per edge; the
// lower-ID endpoint listens, the higher-ID endpoint dials and sends a
// 4-byte hello naming itself. Frames are length-prefixed, matching the
// engine's byte accounting (rounds.DefaultMsgOverhead).
//
// The hello is not authenticated: any process that reaches a listener can
// claim to be a higher-ID neighbor, take its slot by connecting first at
// startup, and under Config.Reconnect replace its live connection mid-run.
// Deployments must trust the network between their processes (DESIGN.md
// §12).
//
// With Config.Reconnect the node survives peer connection failures
// instead of aborting: sends to a downed neighbor are dropped and
// counted, lower-ID neighbors are redialed in the background, and the
// listener keeps adopting re-handshakes from higher-ID neighbors — the
// long-running-service posture of cmd/nectar-node, surfaced through the
// nectar_node_* metrics (DESIGN.md §12).
package tcpnet

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"time"

	"github.com/nectar-repro/nectar/internal/graph"
	"github.com/nectar-repro/nectar/internal/ids"
	"github.com/nectar-repro/nectar/internal/obs"
	"github.com/nectar-repro/nectar/internal/rounds"
)

// maxFrame bounds incoming frame sizes (1 MiB is far above any NECTAR
// message at the paper's scales).
const maxFrame = 1 << 20

// Config describes one process of a TCP deployment.
type Config struct {
	// Me is the local node's identity.
	Me ids.NodeID
	// Addrs maps every node ID to its "host:port" listen address. Only
	// neighbors are contacted.
	Addrs map[ids.NodeID]string
	// Neighbors is the local neighborhood Γ(Me).
	Neighbors []ids.NodeID
	// Listener optionally supplies a pre-bound listener for Addrs[Me]
	// (tests use this to allocate ephemeral ports race-free).
	Listener net.Listener
	// StartAt is the agreed instant of round 1's beginning. All processes
	// must use the same value; it must be far enough in the future for
	// connection establishment to finish.
	StartAt time.Time
	// RoundDuration is ΔT. It must cover the network round trip plus one
	// round's processing, since a round's messages are delivered when its
	// window closes; 200ms is generous on localhost.
	RoundDuration time.Duration
	// Rounds is the number of synchronous rounds to execute.
	Rounds int
	// DialRetry is the backoff between connection attempts (default
	// 50ms).
	DialRetry time.Duration
	// Reconnect keeps the node alive through mid-run peer failures:
	// sends to a downed neighbor are dropped and counted
	// (Stats.SendsDropped) instead of aborting the run, lower-ID
	// neighbors are redialed in the background, and the listener keeps
	// adopting re-handshakes from higher-ID neighbors for the whole run.
	// Off by default — a batch deployment's fail-fast abort is the
	// legacy behavior.
	Reconnect bool
	// Metrics, when non-nil, receives live nectar_node_* counters and
	// gauges (rounds completed, traffic, peer downs/reconnects) — the
	// scrape surface behind cmd/nectar-node's /metrics endpoint.
	Metrics *obs.Registry
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

// Stats meters the local node's traffic. The traffic fields are the
// engine's rounds.Metrics entries for the local node: a send to a downed
// neighbor is metered as sent, like a message lost to rounds.Config.LossRate,
// and a send that is not to a neighbor counts in DroppedNonEdge.
// BytesBroadcast charges each multicast (one rounds.Send) once (DESIGN.md §5).
type Stats struct {
	BytesSent      int64
	BytesBroadcast int64
	MsgsSent       int64
	MsgsDelivered  int64
	DroppedNonEdge int64
	// LateMsgs counts frames that arrived after their round window closed
	// and were delivered in a later round (the protocol layer discards
	// them if stale).
	LateMsgs int64
	// PeerDowns / PeerReconnects / SendsDropped count connection losses,
	// successful re-establishments, and sends dropped for lack of a live
	// connection. Always 0 without Config.Reconnect (the first failure
	// aborts the run instead).
	PeerDowns      int64
	PeerReconnects int64
	SendsDropped   int64
}

// frame is one received message, stamped with its arrival instant so the
// peer table can map it onto the shared round grid.
type frame struct {
	from ids.NodeID
	data []byte
	at   time.Time
}

// remote stands in for every node this process does not run: it emits
// nothing and, by not implementing rounds.Quiescer, keeps the engine on
// the full horizon — a process cannot see whether its peers are quiet.
type remote struct{}

func (remote) Emit(int) []rounds.Send          { return nil }
func (remote) Deliver(int, ids.NodeID, []byte) {}

// Run executes proto over TCP for cfg.Rounds wall-clock rounds and
// returns the traffic stats. It blocks until the run completes.
func Run(cfg Config, proto rounds.Protocol) (*Stats, error) {
	if err := validate(&cfg); err != nil {
		return nil, err
	}
	// The round loop is one rounds.Run over the local node's edges: proto
	// in slot Me, placeholders in the others, the peer table as transport.
	n := int(cfg.Me) + 1
	for _, nb := range cfg.Neighbors {
		n = max(n, int(nb)+1)
	}
	g := graph.New(n)
	nodes := make([]rounds.Protocol, n)
	for i := range nodes {
		nodes[i] = remote{}
	}
	nodes[cfg.Me] = proto
	ln := cfg.Listener
	for _, nb := range cfg.Neighbors {
		g.AddEdge(cfg.Me, nb)
		if nb > cfg.Me && ln == nil {
			var err error
			if ln, err = net.Listen("tcp", cfg.Addrs[cfg.Me]); err != nil {
				return nil, fmt.Errorf("tcpnet: listen %s: %w", cfg.Addrs[cfg.Me], err)
			}
		}
	}
	stats := &Stats{}
	pt := newPeerTable(&cfg, stats)
	err := pt.start(ln)
	if err == nil {
		time.Sleep(time.Until(cfg.StartAt))
		var m *rounds.Metrics
		if m, err = rounds.Run(rounds.Config{Graph: g, Rounds: cfg.Rounds, Workers: 1, Transport: pt}, nodes); err == nil {
			stats.BytesSent, stats.BytesBroadcast = m.BytesSent[cfg.Me], m.BytesBroadcast[cfg.Me]
			stats.MsgsSent, stats.MsgsDelivered = m.MsgsSent[cfg.Me], m.MsgsDelivered[cfg.Me]
			stats.DroppedNonEdge = m.DroppedNonEdge
		}
	}

	// Unblock every reader, dialer, and the accept loop, then wait for
	// them before reading the final stats.
	pt.shutdown()
	if ln != nil {
		ln.Close()
	}
	pt.aux.Wait()
	pt.readers.Wait()
	return stats, err
}

func validate(cfg *Config) error {
	if cfg.Rounds <= 0 {
		return fmt.Errorf("tcpnet: Rounds must be positive, got %d", cfg.Rounds)
	}
	if cfg.RoundDuration <= 0 {
		return fmt.Errorf("tcpnet: RoundDuration must be positive")
	}
	if cfg.DialRetry <= 0 {
		cfg.DialRetry = 50 * time.Millisecond
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	for _, nb := range cfg.Neighbors {
		if nb == cfg.Me {
			return fmt.Errorf("tcpnet: node %v lists itself as neighbor", cfg.Me)
		}
		if _, ok := cfg.Addrs[nb]; !ok {
			return fmt.Errorf("tcpnet: no address for neighbor %v", nb)
		}
		if _, ok := cfg.Addrs[cfg.Me]; !ok && nb > cfg.Me && cfg.Listener == nil {
			return fmt.Errorf("tcpnet: no listen address for %v", cfg.Me)
		}
	}
	return nil
}

// peerTable tracks the live connection per neighbor across failures and
// reconnects, publishing transitions to the Stats and (when configured)
// the metrics registry. It is the engine's rounds.Transport.
type peerTable struct {
	cfg      *Config
	stats    *Stats
	incoming chan frame
	// carry holds frames read during an earlier round's window but
	// stamped after it: they wait for their own round.
	carry []frame

	mu      sync.Mutex
	conns   map[ids.NodeID]net.Conn
	closed  bool
	running bool // startup is over: every adopt now is a re-establishment

	done    chan struct{}
	readers sync.WaitGroup // one readLoop per live connection
	aux     sync.WaitGroup // accept loop + dialers

	// Live instruments; all nil without Config.Metrics.
	connected                *obs.Gauge
	downC, reconnC, droppedC *obs.Counter
	roundsC, bytesC, sentC   *obs.Counter
	deliveredC, lateC        *obs.Counter
}

// Registry instrument names the peer table publishes. Registration is
// idempotent, so PeerHealth can resolve the same counters from the
// admin side regardless of whether the peer table exists yet.
const (
	metricPeersConnected = "nectar_node_peers_connected"
	metricPeerDown       = "nectar_node_peer_down_total"
	metricPeerReconnect  = "nectar_node_peer_reconnect_total"
	metricSendsDropped   = "nectar_node_sends_dropped_total"
	metricLateMsgs       = "nectar_node_late_msgs_total"

	helpPeersConnected = "Neighbor connections currently live."
	helpPeerDown       = "Neighbor connections lost mid-run."
	helpPeerReconnect  = "Neighbor connections re-established after a loss."
	helpSendsDropped   = "Sends dropped for lack of a live neighbor connection."
	helpLateMsgs       = "Frames that arrived after their round window closed."
)

func newPeerTable(cfg *Config, stats *Stats) *peerTable {
	pt := &peerTable{
		cfg:      cfg,
		stats:    stats,
		incoming: make(chan frame, 1024),
		conns:    make(map[ids.NodeID]net.Conn, len(cfg.Neighbors)),
		done:     make(chan struct{}),
	}
	if reg := cfg.Metrics; reg != nil {
		pt.connected = reg.Gauge(metricPeersConnected, helpPeersConnected)
		pt.downC = reg.Counter(metricPeerDown, helpPeerDown)
		pt.reconnC = reg.Counter(metricPeerReconnect, helpPeerReconnect)
		pt.droppedC = reg.Counter(metricSendsDropped, helpSendsDropped)
		pt.lateC = reg.Counter(metricLateMsgs, helpLateMsgs)
		pt.roundsC = reg.Counter("nectar_node_rounds_completed_total", "Wall-clock rounds completed.")
		pt.bytesC = reg.Counter("nectar_node_bytes_sent_total", "Bytes sent to neighbors, payload plus framing.")
		pt.sentC = reg.Counter("nectar_node_msgs_sent_total", "Messages sent to neighbors.")
		pt.deliveredC = reg.Counter("nectar_node_msgs_delivered_total", "Messages delivered to the local protocol.")
	}
	return pt
}

// PeerHealth reads the peer-table condition out of the registry as
// health-detail attrs: live connections, losses, re-establishments,
// dropped sends, and late frames — the state node-smoke asserts on to
// check partition handling. Counter registration is idempotent, so the
// admin health endpoint can call this before, during, or after the run
// and observe the same instruments the peer table updates.
func PeerHealth(reg *obs.Registry) []obs.Attr {
	return []obs.Attr{
		{K: "peers_connected", V: reg.Gauge(metricPeersConnected, helpPeersConnected).Value()},
		{K: "peer_downs", V: reg.Counter(metricPeerDown, helpPeerDown).Value()},
		{K: "peer_reconnects", V: reg.Counter(metricPeerReconnect, helpPeerReconnect).Value()},
		{K: "sends_dropped", V: reg.Counter(metricSendsDropped, helpSendsDropped).Value()},
		{K: "late_msgs", V: reg.Counter(metricLateMsgs, helpLateMsgs).Value()},
	}
}

// start brings the connections up — the accept loop when this node
// listens, a dialer per lower-ID neighbor — and waits until the table
// holds every neighbor or StartAt passes. The accept loop runs for the
// whole run; without Reconnect it only ever fills empty slots.
func (pt *peerTable) start(ln net.Listener) error {
	if ln != nil {
		pt.aux.Add(1)
		go pt.acceptLoop(ln)
	}
	for _, nb := range pt.cfg.Neighbors {
		if nb < pt.cfg.Me {
			pt.aux.Add(1)
			go pt.dial(nb, pt.cfg.StartAt)
		}
	}
	for {
		pt.mu.Lock()
		got := len(pt.conns)
		pt.running = got == len(pt.cfg.Neighbors)
		pt.mu.Unlock()
		if pt.running {
			pt.cfg.Logf("node %v connected to %d neighbors", pt.cfg.Me, got)
			return nil
		}
		if time.Now().After(pt.cfg.StartAt) {
			return fmt.Errorf("tcpnet: %d of %d neighbor connections established by the start instant",
				got, len(pt.cfg.Neighbors))
		}
		time.Sleep(pt.cfg.DialRetry)
	}
}

// adopt installs a connection for peer and starts its read loop. A live
// connection is kept without Reconnect and replaced with it; after
// shutdown c is closed.
func (pt *peerTable) adopt(peer ids.NodeID, c net.Conn) {
	pt.mu.Lock()
	old, live := pt.conns[peer]
	if pt.closed || live && !pt.cfg.Reconnect {
		pt.mu.Unlock()
		c.Close()
		return
	}
	if live {
		old.Close()
	} else if pt.connected != nil {
		pt.connected.Inc()
	}
	pt.conns[peer] = c
	if pt.running {
		pt.stats.PeerReconnects++
		if pt.reconnC != nil {
			pt.reconnC.Inc()
		}
		pt.cfg.Logf("node %v reconnected to %v", pt.cfg.Me, peer)
	}
	pt.mu.Unlock()
	pt.readers.Add(1)
	go func() {
		defer pt.readers.Done()
		readLoop(peer, c, pt.incoming, pt.done)
		pt.lost(peer, c)
	}()
}

// lost records that peer's connection c died. Idempotent per connection:
// only the current table entry counts, so a write failure and the read
// loop noticing the same broken socket produce one transition. Under
// Reconnect, lower-ID peers (which this node dials) get a background
// redialer; higher-ID peers redial us through the accept loop.
func (pt *peerTable) lost(peer ids.NodeID, c net.Conn) {
	if !pt.cfg.Reconnect {
		// Fail-fast: leave the dead connection in the table so the next
		// write to it fails and aborts the run.
		return
	}
	c.Close()
	pt.mu.Lock()
	if pt.closed || pt.conns[peer] != c {
		pt.mu.Unlock()
		return
	}
	delete(pt.conns, peer)
	pt.stats.PeerDowns++
	if pt.connected != nil {
		pt.connected.Dec()
		pt.downC.Inc()
	}
	redial := peer < pt.cfg.Me
	if redial {
		pt.aux.Add(1) // under mu, so before shutdown and Run's aux.Wait
	}
	pt.mu.Unlock()
	pt.cfg.Logf("node %v lost connection to %v", pt.cfg.Me, peer)
	if redial {
		go pt.dial(peer, time.Time{})
	}
}

// dial connects to lower-ID neighbor peer with the hello, retrying until
// deadline (zero: until shutdown), and adopts the connection.
func (pt *peerTable) dial(peer ids.NodeID, deadline time.Time) {
	defer pt.aux.Done()
	var hello [4]byte
	binary.BigEndian.PutUint32(hello[:], uint32(pt.cfg.Me))
	c, err := dialRetry(pt.cfg.Addrs[peer], hello[:], pt.cfg.DialRetry, deadline, pt.done)
	if err != nil {
		pt.cfg.Logf("node %v: neighbor %v: %v", pt.cfg.Me, peer, err)
		return
	}
	pt.adopt(peer, c)
}

// acceptLoop reads the hello of every connection to the listener and
// adopts those naming a higher-ID neighbor. It exits when the listener
// closes.
func (pt *peerTable) acceptLoop(ln net.Listener) {
	defer pt.aux.Done()
	for {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		var hello [4]byte
		if _, err := io.ReadFull(c, hello[:]); err != nil {
			c.Close()
			continue
		}
		peer := ids.NodeID(binary.BigEndian.Uint32(hello[:]))
		if !slices.Contains(pt.cfg.Neighbors, peer) || peer <= pt.cfg.Me {
			pt.cfg.Logf("rejecting connection claiming to be %v", peer)
			c.Close()
			continue
		}
		pt.adopt(peer, c)
	}
}

// shutdown closes every live connection and stops dialers; subsequent
// adopts are rejected.
func (pt *peerTable) shutdown() {
	pt.mu.Lock()
	pt.closed = true
	close(pt.done)
	for _, c := range pt.conns {
		c.Close()
	}
	pt.mu.Unlock()
}

// Remote implements rounds.Transport: the process runs only Me.
func (pt *peerTable) Remote(id ids.NodeID) bool { return id != pt.cfg.Me }

// Exchange implements rounds.Transport: it writes the round's sends (all
// from Me to neighbors — the engine has already dropped the rest) and
// returns the frames of the round's window. Without Reconnect a failed
// write ends the run.
func (pt *peerTable) Exchange(round int, out []rounds.Envelope) ([]rounds.Envelope, error) {
	for _, s := range out {
		if pt.bytesC != nil {
			pt.bytesC.Add(int64(len(s.Data) + rounds.DefaultMsgOverhead))
			pt.sentC.Inc()
		}
		pt.mu.Lock()
		c := pt.conns[s.To]
		pt.mu.Unlock()
		if c != nil {
			err := writeFrame(c, s.From, s.Data)
			if err == nil {
				continue
			}
			if !pt.cfg.Reconnect {
				return nil, fmt.Errorf("tcpnet: round %d send to %v: %w", round, s.To, err)
			}
			pt.lost(s.To, c)
		}
		// The neighbor is down (only ever under Reconnect): the send is lost.
		pt.stats.SendsDropped++
		if pt.droppedC != nil {
			pt.droppedC.Inc()
		}
	}
	in := pt.collect(round)
	if pt.roundsC != nil {
		pt.roundsC.Inc()
		pt.deliveredC.Add(int64(len(in)))
	}
	pt.cfg.Logf("node %v finished round %d/%d", pt.cfg.Me, round, pt.cfg.Rounds)
	return in, nil
}

// collect gathers round r's frames: those carried over, then everything
// read until r's window on the StartAt grid — which all processes share,
// unlike their loops — closes. A frame stamped after the window waits for
// its round (signature chains are length-checked per round); one stamped
// before it is delivered now and counted in LateMsgs.
func (pt *peerTable) collect(r int) []rounds.Envelope {
	var in []rounds.Envelope
	take := func(f frame) {
		fr := 1
		if f.at.After(pt.cfg.StartAt) {
			fr = int(f.at.Sub(pt.cfg.StartAt)/pt.cfg.RoundDuration) + 1
		}
		if fr > r {
			pt.carry = append(pt.carry, f)
			return
		}
		if fr < r {
			pt.stats.LateMsgs++
			if pt.lateC != nil {
				pt.lateC.Inc()
			}
		}
		in = append(in, rounds.Envelope{From: f.from, To: pt.cfg.Me, Data: f.data})
	}
	held := pt.carry
	pt.carry = nil
	for _, f := range held {
		take(f)
	}
	timer := time.NewTimer(time.Until(pt.cfg.StartAt.Add(time.Duration(r) * pt.cfg.RoundDuration)))
	defer timer.Stop()
	for {
		select {
		case f := <-pt.incoming:
			take(f)
		case <-timer.C:
			// Frames queued when the window closes are sorted by their
			// stamps too, not left to look late next round.
			for len(pt.incoming) > 0 {
				take(<-pt.incoming)
			}
			return in
		}
	}
}

// writeFrame sends [from:4][len:4][payload].
func writeFrame(c net.Conn, from ids.NodeID, data []byte) error {
	hdr := make([]byte, 8, 8+len(data))
	binary.BigEndian.PutUint32(hdr[:4], uint32(from))
	binary.BigEndian.PutUint32(hdr[4:8], uint32(len(data)))
	_, err := c.Write(append(hdr, data...))
	return err
}

// readLoop parses frames from one connection into the shared channel. The
// sender ID in the frame header is ignored in favor of the peer the
// connection's hello named: a neighbor cannot label its frames as another
// node's. The hello itself is unauthenticated (see the package comment).
// It returns once done closes: a flooding peer cannot stall Run's shutdown.
func readLoop(peer ids.NodeID, c net.Conn, out chan<- frame, done <-chan struct{}) {
	for {
		var hdr [8]byte
		if _, err := io.ReadFull(c, hdr[:]); err != nil {
			return
		}
		size := binary.BigEndian.Uint32(hdr[4:8])
		if size > maxFrame {
			return // protocol violation: drop the connection
		}
		data := make([]byte, size)
		if _, err := io.ReadFull(c, data); err != nil {
			return
		}
		select {
		case out <- frame{from: peer, data: data, at: time.Now()}:
		case <-done:
			return
		}
	}
}
