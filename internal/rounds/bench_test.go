package rounds

import (
	"testing"

	"github.com/nectar-repro/nectar/internal/graph"
	"github.com/nectar-repro/nectar/internal/ids"
	"github.com/nectar-repro/nectar/internal/topology"
)

// benchFlooders returns scriptedNodes that send the same outbox every
// round and ignore what they receive, so a run over them costs what the
// engine itself costs: the edge check and metering of each Send, the
// inbox pull, and the delivery shuffle. Every node gets `payloads`
// distinct payloads of `size` bytes, each one Send to all neighbors — the
// shape of a NECTAR node's round-1 output.
func benchFlooders(g *graph.Graph, payloads, size int) ([]Protocol, int) {
	nodes := make([]Protocol, g.N())
	msgs := 0
	for i := range nodes {
		f := new(scriptedNode)
		for p := 0; p < payloads; p++ {
			data := make([]byte, size)
			for k := range data {
				data[k] = byte(i + 31*p + 7*k)
			}
			nbrs := g.Neighbors(ids.NodeID(i))
			f.sends = append(f.sends, Send{To: nbrs, Data: data})
			msgs += len(nbrs)
		}
		nodes[i] = f
	}
	return nodes, msgs
}

// BenchmarkEngineSelf is the engine's line in the layer budget (ROADMAP
// aim 1): ns per delivered message and allocations per run with protocols
// that do nothing. harary6-35 is the paper-scale dense case (inboxes of
// 24, every one shuffled); tree3-500 the sparse one (two thirds of the
// nodes are leaves whose inbox is a single message); complete33-640 has
// inboxes of 640, where the shuffle's draws dominate.
func BenchmarkEngineSelf(b *testing.B) {
	harary, err := topology.Harary(6, 35)
	if err != nil {
		b.Fatal(err)
	}
	tree, err := topology.KaryTree(3, 500)
	if err != nil {
		b.Fatal(err)
	}
	complete := topology.Complete(33)
	const rounds = 10
	for _, bc := range []struct {
		name           string
		g              *graph.Graph
		payloads, size int
	}{
		{"harary6-35", harary, 4, 256},
		{"tree3-500", tree, 1, 64},
		{"complete33-640", complete, 20, 64},
	} {
		b.Run(bc.name, func(b *testing.B) {
			nodes, perRound := benchFlooders(bc.g, bc.payloads, bc.size)
			cfg := Config{Graph: bc.g, Rounds: rounds, Seed: 1, Workers: 1}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Run(cfg, nodes); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rounds*perRound), "ns/msg")
		})
	}
}
