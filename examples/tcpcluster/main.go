// TCP cluster: run a NECTAR deployment over real sockets.
//
//	go run ./examples/tcpcluster
//
// Launches eight NECTAR processes (as goroutines, one listener each) that
// talk exclusively over 127.0.0.1 TCP connections with Ed25519
// signatures and wall-clock synchronous rounds — the same code path as
// cmd/nectar-node, self-contained in one binary for convenience. Each
// process runs Simulate's round engine over its one node, so "sent" is
// metered as there: a send to a downed peer (with Reconnect) counts as
// sent, like a LossRate loss; one to a non-neighbor, in DroppedNonEdge.
package main

import (
	"fmt"
	"log"
	"net"
	"sync"
	"time"

	nectar "github.com/nectar-repro/nectar"
)

func main() {
	const (
		n    = 8
		tByz = 1
	)
	// Overlay: ring + two chords, κ = 2... with chords κ is higher;
	// either way 2-connected, so t=1 is certified.
	g := nectar.Ring(n)
	g.AddEdge(0, 4)
	g.AddEdge(2, 6)

	scheme := nectar.NewEd25519Scheme(n, 2024)
	nodes, err := nectar.BuildNodes(g, tByz, scheme, 0)
	if err != nil {
		log.Fatal(err)
	}

	// Every process pre-binds an ephemeral listener so all addresses are
	// known before the protocol starts (a real deployment would use a
	// static address book; see cmd/nectar-node).
	listeners := make([]net.Listener, n)
	addrs := make(map[nectar.NodeID]string, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		listeners[i] = ln
		addrs[nectar.NodeID(i)] = ln.Addr().String()
	}
	fmt.Printf("launching %d TCP processes (rounds: %d × 150ms)...\n", n, n-1)

	start := time.Now().Add(400 * time.Millisecond)
	var wg sync.WaitGroup
	stats := make([]*nectar.TCPStats, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			me := nectar.NodeID(i)
			st, err := nectar.RunTCP(nectar.TCPConfig{
				Me:            me,
				Addrs:         addrs,
				Neighbors:     g.Neighbors(me),
				Listener:      listeners[i],
				StartAt:       start,
				RoundDuration: 150 * time.Millisecond,
				Rounds:        n - 1,
			}, nodes[i])
			if err != nil {
				log.Fatalf("node %v: %v", me, err)
			}
			stats[i] = st
		}(i)
	}
	wg.Wait()

	fmt.Printf("\n%-6s %-20s %-10s %-12s %s\n", "node", "decision", "confirmed", "reachable", "sent")
	for i, nd := range nodes {
		o := nd.Decide()
		fmt.Printf("p%-5d %-20v %-10v %-12s %.1f KB / %d msgs\n",
			i, o.Decision, o.Confirmed,
			fmt.Sprintf("%d/%d", o.Reachable, n),
			float64(stats[i].BytesSent)/1000, stats[i].MsgsSent)
	}
}
