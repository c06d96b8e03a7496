package nectar

// Ablation benchmarks for the design choices called out in DESIGN.md:
//
//   - duplicate-discard-before-verification (the default) versus the
//     literal Alg.-1 order (the test-only inectar.WithParanoidVerify) —
//     identical decisions, very different CPU cost;
//   - the R = n-1 default round horizon, with quiescence early exit or
//     run in full (rounds.Config.FullHorizon), versus an R = diameter+1
//     override — identical traffic (nodes go silent once everything is
//     discovered, §IV-E), fewer engine rounds;
//   - signature schemes: HMAC simulation vs real Ed25519 vs the
//     size-only insecure scheme — identical bytes, different CPU.

import (
	"testing"

	inectar "github.com/nectar-repro/nectar/internal/nectar"
	"github.com/nectar-repro/nectar/internal/rounds"
)

// runCluster drives an all-correct cluster and returns total unicast
// bytes.
func runClusterBench(b *testing.B, g *Graph, scheme Scheme, roundsN int, opts ...BuildOption) int64 {
	return runClusterBenchHorizon(b, g, scheme, roundsN, false, opts...)
}

func runClusterBenchHorizon(b *testing.B, g *Graph, scheme Scheme, roundsN int, fullHorizon bool, opts ...BuildOption) int64 {
	b.Helper()
	nodes, err := BuildNodes(g, 1, scheme, roundsN, opts...)
	if err != nil {
		b.Fatal(err)
	}
	protos := make([]rounds.Protocol, len(nodes))
	for i, nd := range nodes {
		protos[i] = nd
	}
	m, err := rounds.Run(rounds.Config{
		Graph: g, Rounds: nodes[0].Rounds(), Seed: 1, FullHorizon: fullHorizon,
	}, protos)
	if err != nil {
		b.Fatal(err)
	}
	for i, nd := range nodes {
		if o := nd.Decide(); o.Decision != NotPartitionable {
			b.Fatalf("node %d decided %v", i, o.Decision)
		}
	}
	return m.TotalBytes()
}

// BenchmarkAblationDuplicateDiscard quantifies the verification-skipping
// optimization (DESIGN.md §2): "fast" discards known edges before any
// signature work, "paranoid" verifies first as the pseudocode literally
// reads.
func BenchmarkAblationDuplicateDiscard(b *testing.B) {
	g, err := Harary(10, 40)
	if err != nil {
		b.Fatal(err)
	}
	scheme := NewHMACScheme(40, 1)
	b.Run("fast", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runClusterBench(b, g, scheme, 0)
		}
	})
	b.Run("paranoid", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runClusterBench(b, g, scheme, 0, inectar.WithParanoidVerify())
		}
	})
}

// BenchmarkAblationRoundHorizon compares three ways of spending the round
// budget: the default R = n-1 horizon with engine v2's quiescence early
// exit, the same horizon forced to execute fully (the v1 engine's cost),
// and an R = diameter+1 override. Traffic must be identical in all three
// (silence after discovery); the benchmark asserts it and measures the
// time differences.
func BenchmarkAblationRoundHorizon(b *testing.B) {
	g, err := Harary(4, 40)
	if err != nil {
		b.Fatal(err)
	}
	diam, ok := g.Diameter()
	if !ok {
		b.Fatal("disconnected")
	}
	scheme := NewHMACScheme(40, 1)
	full := runClusterBenchHorizon(b, g, scheme, 0, true)
	early := runClusterBench(b, g, scheme, 0)
	short := runClusterBench(b, g, scheme, diam+1)
	if full != short || full != early {
		b.Fatalf("traffic differs across horizons: full=%d early=%d short=%d bytes", full, early, short)
	}
	b.Run("rounds=n-1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runClusterBench(b, g, scheme, 0)
		}
	})
	b.Run("rounds=n-1/full-horizon", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runClusterBenchHorizon(b, g, scheme, 0, true)
		}
	})
	b.Run("rounds=diam+1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runClusterBench(b, g, scheme, diam+1)
		}
	})
}

// BenchmarkAblationSignatureSchemes isolates the cryptography cost on a
// fixed topology: message bytes are identical (64-byte signatures in all
// three schemes), only signing/verification time changes.
func BenchmarkAblationSignatureSchemes(b *testing.B) {
	g, err := Harary(4, 24)
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range []string{"hmac", "ed25519", "insecure"} {
		b.Run(name, func(b *testing.B) {
			scheme := SchemeByName(name, 24, 1)
			for i := 0; i < b.N; i++ {
				runClusterBench(b, g, scheme, 0)
			}
		})
	}
}

// BenchmarkUnsignedVsSigned quantifies the §VII conjecture — partition
// detection without signatures "at a significant cost": the Dolev-style
// path-vouched variant against signed NECTAR on the same 2t+1-connected
// topology, reporting messages and KB per node.
func BenchmarkUnsignedVsSigned(b *testing.B) {
	g, err := Harary(5, 14) // κ = 5 = 2t+1 for t = 2
	if err != nil {
		b.Fatal(err)
	}
	b.Run("signed", func(b *testing.B) {
		scheme := NewHMACScheme(14, 1)
		var msgs, bytes int64
		for i := 0; i < b.N; i++ {
			nodes, err := BuildNodes(g, 2, scheme, 0)
			if err != nil {
				b.Fatal(err)
			}
			protos := make([]rounds.Protocol, len(nodes))
			for j, nd := range nodes {
				protos[j] = nd
			}
			m, err := rounds.Run(rounds.Config{Graph: g, Rounds: g.N() - 1, Seed: 1}, protos)
			if err != nil {
				b.Fatal(err)
			}
			msgs, bytes = m.MsgsSent[0], m.BytesSent[0]
			if o := nodes[0].Decide(); o.Decision != NotPartitionable {
				b.Fatal("wrong decision")
			}
		}
		b.ReportMetric(float64(msgs), "msgs/node")
		b.ReportMetric(float64(bytes)/1000, "KB/node")
	})
	b.Run("unsigned", func(b *testing.B) {
		var msgs, bytes int64
		for i := 0; i < b.N; i++ {
			nodes, err := BuildUnsignedNodes(g, 2, 0)
			if err != nil {
				b.Fatal(err)
			}
			protos := make([]rounds.Protocol, len(nodes))
			for j, nd := range nodes {
				protos[j] = nd
			}
			m, err := rounds.Run(rounds.Config{Graph: g, Rounds: g.N() - 1, Seed: 1}, protos)
			if err != nil {
				b.Fatal(err)
			}
			msgs, bytes = m.MsgsSent[0], m.BytesSent[0]
			if o := nodes[0].Decide(); o.Decision != NotPartitionable {
				b.Fatal("wrong decision")
			}
		}
		b.ReportMetric(float64(msgs), "msgs/node")
		b.ReportMetric(float64(bytes)/1000, "KB/node")
	})
}
