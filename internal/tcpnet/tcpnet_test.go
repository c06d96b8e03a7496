package tcpnet

import (
	"encoding/binary"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/nectar-repro/nectar/internal/graph"
	"github.com/nectar-repro/nectar/internal/ids"
	"github.com/nectar-repro/nectar/internal/nectar"
	"github.com/nectar-repro/nectar/internal/obs"
	"github.com/nectar-repro/nectar/internal/rounds"
	"github.com/nectar-repro/nectar/internal/sig"
	"github.com/nectar-repro/nectar/internal/topology"
)

// launchCluster runs one NECTAR node per vertex of g over localhost TCP
// and returns their outcomes.
func launchCluster(t *testing.T, g *graph.Graph, tByz int, roundDur time.Duration) []nectar.Outcome {
	t.Helper()
	n := g.N()
	scheme := sig.NewEd25519(n, 99)
	nodes, err := nectar.BuildNodes(g, tByz, scheme, 0)
	if err != nil {
		t.Fatal(err)
	}
	protos := make([]rounds.Protocol, n)
	for i, nd := range nodes {
		protos[i] = nd
	}
	runCluster(t, g, protos, n-1, roundDur)
	outcomes := make([]nectar.Outcome, n)
	for i, nd := range nodes {
		outcomes[i] = nd.Decide()
	}
	return outcomes
}

// runCluster runs protos[i] as node i of g, one Run per node over
// localhost TCP, and returns each node's stats.
func runCluster(t *testing.T, g *graph.Graph, protos []rounds.Protocol, nRounds int, roundDur time.Duration) []*Stats {
	t.Helper()
	n := g.N()
	// Pre-bind ephemeral listeners so every process knows every address.
	listeners := make([]net.Listener, n)
	addrs := make(map[ids.NodeID]string, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		addrs[ids.NodeID(i)] = ln.Addr().String()
	}
	start := time.Now().Add(300 * time.Millisecond)
	stats := make([]*Stats, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			me := ids.NodeID(i)
			stats[i], errs[i] = Run(Config{
				Me:            me,
				Addrs:         addrs,
				Neighbors:     g.Neighbors(me),
				Listener:      listeners[i],
				StartAt:       start,
				RoundDuration: roundDur,
				Rounds:        nRounds,
			}, protos[i])
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}
	return stats
}

func TestNectarOverRealTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock TCP run skipped in -short mode")
	}
	// Ring of 6, t=1: κ=2 > 1, so every node must decide
	// NOT_PARTITIONABLE — over real sockets with Ed25519 signatures.
	g := topology.Ring(6)
	outs := launchCluster(t, g, 1, 150*time.Millisecond)
	for i, o := range outs {
		if o.Decision != nectar.NotPartitionable {
			t.Errorf("node %d decided %v over TCP", i, o.Decision)
		}
		if o.Reachable != 6 {
			t.Errorf("node %d reached %d/6", i, o.Reachable)
		}
	}
}

func TestNectarOverTCPDetectsLowConnectivity(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock TCP run skipped in -short mode")
	}
	// Star of 5, t=1: κ=1 ≤ t — PARTITIONABLE everywhere.
	g := topology.Star(5)
	outs := launchCluster(t, g, 1, 150*time.Millisecond)
	for i, o := range outs {
		if o.Decision != nectar.Partitionable {
			t.Errorf("node %d decided %v over TCP, want PARTITIONABLE", i, o.Decision)
		}
	}
}

func TestValidation(t *testing.T) {
	base := Config{
		Me:            0,
		Addrs:         map[ids.NodeID]string{1: "127.0.0.1:1"},
		Neighbors:     []ids.NodeID{1},
		RoundDuration: time.Millisecond,
		Rounds:        1,
	}
	bad := base
	bad.Rounds = 0
	if err := validate(&bad); err == nil {
		t.Error("zero rounds accepted")
	}
	bad = base
	bad.RoundDuration = 0
	if err := validate(&bad); err == nil {
		t.Error("zero round duration accepted")
	}
	bad = base
	bad.Neighbors = []ids.NodeID{0}
	if err := validate(&bad); err == nil {
		t.Error("self neighbor accepted")
	}
	bad = base
	bad.Neighbors = []ids.NodeID{2}
	if err := validate(&bad); err == nil {
		t.Error("address-less neighbor accepted")
	}
}

func TestDialFailureSurfacesError(t *testing.T) {
	// Neighbor 0 does not exist: the dial must give up at StartAt and
	// return an error rather than hang.
	cfg := Config{
		Me:            1,
		Addrs:         map[ids.NodeID]string{0: "127.0.0.1:1", 1: "127.0.0.1:0"},
		Neighbors:     []ids.NodeID{0},
		StartAt:       time.Now().Add(200 * time.Millisecond),
		RoundDuration: 50 * time.Millisecond,
		Rounds:        1,
		DialRetry:     20 * time.Millisecond,
	}
	done := make(chan error, 1)
	go func() {
		_, err := Run(cfg, remote{})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Error("expected a connection error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run hung on unreachable neighbor")
	}
}

// chatty sends one ping to a fixed peer every round.
type chatty struct{ to ids.NodeID }

func (c chatty) Emit(int) []rounds.Send {
	return []rounds.Send{{To: []ids.NodeID{c.to}, Data: []byte("ping")}}
}
func (chatty) Deliver(int, ids.NodeID, []byte) {}

// handshake writes the 4-byte big-endian ID hello a dialing peer sends.
func handshake(t *testing.T, c net.Conn, me ids.NodeID) {
	t.Helper()
	var hello [4]byte
	hello[3] = byte(me)
	if _, err := c.Write(hello[:]); err != nil {
		t.Fatalf("handshake as %v: %v", me, err)
	}
}

// TestReconnectAcceptsRedialedPeer drops the connection from a higher-ID
// peer mid-run: the node must survive (dropping sends, counting the
// transition) and accept the peer's re-handshake instead of dying.
func TestReconnectAcceptsRedialedPeer(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock TCP run skipped in -short mode")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	reg := obs.NewRegistry()
	cfg := Config{
		Me:            0,
		Addrs:         map[ids.NodeID]string{0: addr, 1: "unused"},
		Neighbors:     []ids.NodeID{1},
		Listener:      ln,
		StartAt:       time.Now().Add(250 * time.Millisecond),
		RoundDuration: 100 * time.Millisecond,
		Rounds:        8,
		Reconnect:     true,
		Metrics:       reg,
	}
	done := make(chan struct{})
	var stats *Stats
	var runErr error
	go func() {
		defer close(done)
		stats, runErr = Run(cfg, chatty{to: 1})
	}()

	// Act as peer 1: connect, handshake, then drop mid-run.
	c1, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	handshake(t, c1, 1)
	time.Sleep(500 * time.Millisecond) // a few rounds in
	c1.Close()
	time.Sleep(150 * time.Millisecond) // let the loss register + a send drop

	// Redial and re-handshake; hold the connection until the run ends.
	c2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	handshake(t, c2, 1)

	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run hung after peer drop")
	}
	if runErr != nil {
		t.Fatalf("Run died on peer drop: %v", runErr)
	}
	if stats.PeerDowns < 1 {
		t.Errorf("PeerDowns = %d, want >= 1", stats.PeerDowns)
	}
	if stats.PeerReconnects < 1 {
		t.Errorf("PeerReconnects = %d, want >= 1", stats.PeerReconnects)
	}
	snap := reg.Snapshot()
	counters := map[string]float64{}
	for _, m := range snap {
		counters[m.Name] = m.Value
	}
	if counters["nectar_node_peer_down_total"] < 1 {
		t.Errorf("nectar_node_peer_down_total = %v, want >= 1", counters["nectar_node_peer_down_total"])
	}
	if counters["nectar_node_peer_reconnect_total"] < 1 {
		t.Errorf("nectar_node_peer_reconnect_total = %v, want >= 1", counters["nectar_node_peer_reconnect_total"])
	}
	if counters["nectar_node_rounds_completed_total"] != float64(cfg.Rounds) {
		t.Errorf("nectar_node_rounds_completed_total = %v, want %d", counters["nectar_node_rounds_completed_total"], cfg.Rounds)
	}
}

// TestReconnectRedialsLowerPeer drops the connection at the listening
// (lower-ID) end: the higher-ID node must background-redial it and keep
// running, counting dropped sends in between.
func TestReconnectRedialsLowerPeer(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock TCP run skipped in -short mode")
	}
	// Act as peer 0: listen, accept node 1's dial, kill it, accept the
	// redial.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	cfg := Config{
		Me:            1,
		Addrs:         map[ids.NodeID]string{0: ln.Addr().String(), 1: "unused"},
		Neighbors:     []ids.NodeID{0},
		StartAt:       time.Now().Add(250 * time.Millisecond),
		RoundDuration: 100 * time.Millisecond,
		Rounds:        8,
		DialRetry:     20 * time.Millisecond,
		Reconnect:     true,
	}
	done := make(chan struct{})
	var stats *Stats
	var runErr error
	go func() {
		defer close(done)
		stats, runErr = Run(cfg, chatty{to: 0})
	}()

	accept := func() net.Conn {
		t.Helper()
		if err := ln.(*net.TCPListener).SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
			t.Fatal(err)
		}
		c, err := ln.Accept()
		if err != nil {
			t.Fatalf("accept: %v", err)
		}
		var hello [4]byte
		if _, err := io.ReadFull(c, hello[:]); err != nil {
			t.Fatalf("reading hello: %v", err)
		}
		if got := ids.NodeID(binary.BigEndian.Uint32(hello[:])); got != 1 {
			t.Fatalf("hello claims node %v, want 1", got)
		}
		return c
	}
	c1 := accept()
	time.Sleep(500 * time.Millisecond) // a few rounds in
	c1.Close()
	c2 := accept() // node 1's background redial
	defer c2.Close()

	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run hung after peer drop")
	}
	if runErr != nil {
		t.Fatalf("Run died on peer drop: %v", runErr)
	}
	if stats.PeerDowns < 1 {
		t.Errorf("PeerDowns = %d, want >= 1", stats.PeerDowns)
	}
	if stats.PeerReconnects < 1 {
		t.Errorf("PeerReconnects = %d, want >= 1", stats.PeerReconnects)
	}
}

// TestWriteFailureAbortsWithoutReconnect pins the legacy contract: with
// Reconnect off, a peer drop mid-run fails the run.
func TestWriteFailureAbortsWithoutReconnect(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock TCP run skipped in -short mode")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Me:            0,
		Addrs:         map[ids.NodeID]string{0: ln.Addr().String(), 1: "unused"},
		Neighbors:     []ids.NodeID{1},
		Listener:      ln,
		StartAt:       time.Now().Add(250 * time.Millisecond),
		RoundDuration: 50 * time.Millisecond,
		Rounds:        20,
	}
	done := make(chan error, 1)
	go func() {
		_, err := Run(cfg, chatty{to: 1})
		done <- err
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	handshake(t, c, 1)
	time.Sleep(400 * time.Millisecond)
	c.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Error("Run survived a peer drop without Reconnect; want the legacy abort")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run hung after peer drop")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	out := make(chan frame, 1)
	go readLoop(7, b, out, nil)
	if err := writeFrame(a, 3, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	select {
	case f := <-out:
		// The connection identity (7), not the header claim (3), is
		// authoritative.
		if f.from != 7 || string(f.data) != "payload" {
			t.Errorf("frame = %v %q", f.from, f.data)
		}
	case <-time.After(time.Second):
		t.Fatal("frame not delivered")
	}
}

func TestReadLoopDropsOversizedFrames(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	out := make(chan frame, 1)
	done := make(chan struct{})
	go func() {
		readLoop(1, b, out, nil)
		close(done)
	}()
	hdr := make([]byte, 8)
	hdr[4] = 0xFF // 4 GB-ish claimed size
	if _, err := a.Write(hdr); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("readLoop did not drop the connection")
	}
}

// TestReadLoopStopsOnShutdown blocks readLoop on a channel nobody drains
// — a peer still sending after the last round — and closes the stop
// channel: the loop must return, or Run's shutdown would wait forever.
func TestReadLoopStopsOnShutdown(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	stop, exited := make(chan struct{}), make(chan struct{})
	go func() {
		readLoop(1, b, make(chan frame), stop)
		close(exited)
	}()
	if err := writeFrame(a, 1, []byte("flood")); err != nil {
		t.Fatal(err)
	}
	close(stop)
	select {
	case <-exited:
	case <-time.After(time.Second):
		t.Fatal("readLoop blocked on a full channel after shutdown")
	}
}
