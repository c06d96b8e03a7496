// nectar-node is a standalone NECTAR process communicating over real TCP
// sockets — the reproduction of the paper's "real code on a real network
// stack" deployment (one process per node instead of one Docker container
// per process).
//
// All processes share a JSON deployment file describing the cluster and
// must be started with the same -start-at instant (or a common -start-in
// delay when launched together by a script):
//
//	{
//	  "n": 4, "t": 1, "key_seed": 99, "scheme": "ed25519", "round_ms": 200,
//	  "nodes": [{"id": 0, "addr": "127.0.0.1:7100"}, ...],
//	  "edges": [[0,1],[1,2],[2,3],[3,0]]
//	}
//
//	nectar-node -config cluster.json -id 0 -start-in 2s
//
// Keys are derived deterministically from key_seed — a demo-deployment
// convenience standing in for the paper's pre-distributed PKI; production
// deployments would load per-node keys and exchange neighborhood proofs
// at setup.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	nectar "github.com/nectar-repro/nectar"
	inectar "github.com/nectar-repro/nectar/internal/nectar"
	"github.com/nectar-repro/nectar/internal/obs"
	"github.com/nectar-repro/nectar/internal/tcpnet"
)

type deployment struct {
	N       int    `json:"n"`
	T       int    `json:"t"`
	KeySeed int64  `json:"key_seed"`
	Scheme  string `json:"scheme"`
	RoundMS int    `json:"round_ms"`
	Nodes   []struct {
		ID   uint32 `json:"id"`
		Addr string `json:"addr"`
	} `json:"nodes"`
	Edges [][2]uint32 `json:"edges"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "nectar-node:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("nectar-node", flag.ContinueOnError)
	cfgPath := fs.String("config", "", "deployment JSON file (required)")
	id := fs.Uint("id", 0, "this process's node ID")
	startAt := fs.String("start-at", "", "agreed start instant (RFC3339); overrides -start-in")
	startIn := fs.Duration("start-in", 2*time.Second, "start delay from now")
	adminAddr := fs.String("admin", "",
		"serve /healthz, /metrics and /debug/pprof/* on this address (empty = no admin server)")
	reconnect := fs.Bool("reconnect", false,
		"survive peer connection drops: drop and count failed sends, re-establish in the background")
	linger := fs.Duration("linger", 0,
		"keep serving the admin endpoints this long after the run completes (so scrapers catch final state)")
	verbose := fs.Bool("v", false, "log per-round progress")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cfgPath == "" {
		return fmt.Errorf("-config is required")
	}
	raw, err := os.ReadFile(*cfgPath)
	if err != nil {
		return err
	}
	var dep deployment
	if err := json.Unmarshal(raw, &dep); err != nil {
		return fmt.Errorf("parsing %s: %w", *cfgPath, err)
	}
	if dep.Scheme == "" {
		dep.Scheme = "ed25519"
	}
	if dep.RoundMS <= 0 {
		dep.RoundMS = 200
	}

	if dep.N <= 0 {
		return fmt.Errorf("deployment: n must be positive, got %d", dep.N)
	}
	if *id >= uint(dep.N) {
		return fmt.Errorf("-id %d out of range for n=%d", *id, dep.N)
	}
	me := nectar.NodeID(*id)
	g := nectar.NewGraph(dep.N)
	for _, e := range dep.Edges {
		if e[0] >= uint32(dep.N) || e[1] >= uint32(dep.N) || e[0] == e[1] {
			return fmt.Errorf("deployment: edge %v needs two distinct endpoints below n=%d", e, dep.N)
		}
		g.AddEdge(nectar.NodeID(e[0]), nectar.NodeID(e[1]))
	}
	addrs := make(map[nectar.NodeID]string, len(dep.Nodes))
	for _, nd := range dep.Nodes {
		addrs[nectar.NodeID(nd.ID)] = nd.Addr
	}
	scheme := nectar.SchemeByName(dep.Scheme, dep.N, dep.KeySeed)
	if scheme == nil {
		return fmt.Errorf("unknown scheme %q", dep.Scheme)
	}
	node, err := nectar.NewNode(inectar.NodeConfig(g, dep.T, scheme, nectar.BuildProofs(scheme, g), me, 0))
	if err != nil {
		return err
	}

	when := time.Now().Add(*startIn)
	if *startAt != "" {
		when, err = time.Parse(time.RFC3339, *startAt)
		if err != nil {
			return fmt.Errorf("parsing -start-at: %w", err)
		}
	}
	logf := func(string, ...any) {}
	if *verbose {
		logf = func(format string, a ...any) { fmt.Fprintf(os.Stderr, format+"\n", a...) }
	}
	tcpCfg := nectar.TCPConfig{
		Me:            me,
		Addrs:         addrs,
		Neighbors:     g.Neighbors(me),
		StartAt:       when,
		RoundDuration: time.Duration(dep.RoundMS) * time.Millisecond,
		Rounds:        node.Rounds(),
		Reconnect:     *reconnect,
		Logf:          logf,
	}

	// Admin surface (DESIGN.md §12): the TCP runner feeds live
	// nectar_node_* metrics into the registry; the decision gauges are
	// set once the run finishes (gate on nectar_node_done).
	var gDone, gDecision, gConfirmed, gReachable *obs.Gauge
	var runDone atomic.Bool
	if *adminAddr != "" {
		reg := obs.NewRegistry()
		tcpCfg.Metrics = reg
		gDone = reg.Gauge("nectar_node_done",
			"1 once the run has completed and the decision gauges are final.")
		gDecision = reg.Gauge("nectar_node_decision_partitionable",
			"Final verdict: 1 = PARTITIONABLE, 0 = NOT_PARTITIONABLE (valid once nectar_node_done is 1).")
		gConfirmed = reg.Gauge("nectar_node_decision_confirmed",
			"1 when the final verdict is confirmed (valid once nectar_node_done is 1).")
		gReachable = reg.Gauge("nectar_node_reachable",
			"Nodes reachable in the local detection graph (valid once nectar_node_done is 1).")
		health := func() obs.Health {
			phase := int64(0)
			if runDone.Load() {
				phase = 1
			}
			detail := []obs.Attr{
				{K: "node", V: int64(me)},
				{K: "done", V: phase},
			}
			// Peer-table condition (downs, reconnects, dropped sends, late
			// frames) rides along so smoke tests can assert on partition
			// handling from /healthz alone.
			detail = append(detail, tcpnet.PeerHealth(reg)...)
			return obs.Health{Status: "ok", Detail: detail}
		}
		ln, err := net.Listen("tcp", *adminAddr)
		if err != nil {
			return fmt.Errorf("admin listen %s: %w", *adminAddr, err)
		}
		defer ln.Close()
		fmt.Printf("node %v: admin on http://%s/ (healthz, metrics, debug/pprof)\n", me, ln.Addr())
		srv := &http.Server{Handler: obs.NewAdminMux(reg, health)}
		go srv.Serve(ln)
		defer srv.Close()
	}

	stats, err := nectar.RunTCP(tcpCfg, node)
	if err != nil {
		return err
	}
	out := node.Decide()
	if gDone != nil {
		gDecision.Set(b2i(out.Decision == nectar.Partitionable))
		gConfirmed.Set(b2i(out.Confirmed))
		gReachable.Set(int64(out.Reachable))
		gDone.Set(1)
	}
	runDone.Store(true)
	fmt.Printf("node %v: decision=%v confirmed=%v reachable=%d/%d sent=%.1fKB msgs=%d downs=%d reconnects=%d dropped=%d\n",
		me, out.Decision, out.Confirmed, out.Reachable, dep.N,
		float64(stats.BytesSent)/1000, stats.MsgsSent,
		stats.PeerDowns, stats.PeerReconnects, stats.SendsDropped)
	if *adminAddr != "" && *linger > 0 {
		time.Sleep(*linger)
	}
	return nil
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
