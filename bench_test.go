package nectar

// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation (§V). Each benchmark runs a representative slice of
// the corresponding experiment grid and reports the paper's metric
// (KB/node for cost figures, success rate for resilience experiments) via
// b.ReportMetric. cmd/nectar-bench regenerates the *full* grids with
// confidence intervals; these benchmarks keep `go test -bench=.` quick
// while still exercising every experiment end to end.

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/nectar-repro/nectar/internal/rounds"
)

// runCostBench executes a one-trial cost experiment per iteration and
// reports KB/node in both accounting modes.
func runCostBench(b *testing.B, proto ProtocolKind, scen ScenarioFn) {
	b.Helper()
	var last *ExperimentResult
	for i := 0; i < b.N; i++ {
		res, err := RunExperiment(ExperimentSpec{
			Protocol: proto,
			Attack:   AttackNone,
			Scenario: scen,
			T:        1,
			Trials:   1,
			Seed:     int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.KBPerNodeBroadcast(), "KB/node")
	b.ReportMetric(last.KBPerNode(), "KB/node-unicast")
}

func hararyScenario(b *testing.B, k, n int) ScenarioFn {
	b.Helper()
	return PlainScenario(func(*rand.Rand) (*Graph, error) { return Harary(k, n) })
}

func droneScenario(n int, d, radius float64) ScenarioFn {
	return PlainScenario(func(rng *rand.Rand) (*Graph, error) {
		g, _, err := Drone(n, d, radius, rng)
		return g, err
	})
}

// BenchmarkFig3KRegularCost: data sent per node on k-regular k-connected
// graphs (Fig. 3 grid slice).
func BenchmarkFig3KRegularCost(b *testing.B) {
	for _, tc := range []struct{ k, n int }{
		{2, 20}, {2, 60}, {10, 20}, {10, 60}, {18, 60},
	} {
		b.Run(fmt.Sprintf("k=%d/n=%d", tc.k, tc.n), func(b *testing.B) {
			runCostBench(b, ProtoNectar, hararyScenario(b, tc.k, tc.n))
		})
	}
}

// BenchmarkFig4DroneCost: NECTAR drone-scenario cost vs d (Fig. 4 slice,
// n = 20).
func BenchmarkFig4DroneCost(b *testing.B) {
	for _, d := range []float64{0, 3, 6} {
		b.Run(fmt.Sprintf("radius=1.8/d=%v", d), func(b *testing.B) {
			runCostBench(b, ProtoNectar, droneScenario(20, d, 1.8))
		})
	}
	b.Run("mtg-reference", func(b *testing.B) {
		runCostBench(b, ProtoMtG, droneScenario(20, 3, 1.8))
	})
}

// BenchmarkFig5MtGv2Cost: MtGv2 drone-scenario cost vs d (Fig. 5 slice).
func BenchmarkFig5MtGv2Cost(b *testing.B) {
	for _, d := range []float64{0, 3, 6} {
		b.Run(fmt.Sprintf("radius=1.8/d=%v", d), func(b *testing.B) {
			runCostBench(b, ProtoMtGv2, droneScenario(20, d, 1.8))
		})
	}
}

// BenchmarkFig6DroneScale: NECTAR drone cost vs n (Fig. 6 slice, radius
// 1.2).
func BenchmarkFig6DroneScale(b *testing.B) {
	for _, tc := range []struct {
		n int
		d float64
	}{
		{10, 0}, {30, 0}, {30, 2.5}, {30, 5},
	} {
		b.Run(fmt.Sprintf("n=%d/d=%v", tc.n, tc.d), func(b *testing.B) {
			runCostBench(b, ProtoNectar, droneScenario(tc.n, tc.d, 1.2))
		})
	}
}

// BenchmarkFig7MtGv2Scale: MtGv2 drone cost vs n (Fig. 7 slice).
func BenchmarkFig7MtGv2Scale(b *testing.B) {
	for _, tc := range []struct {
		n int
		d float64
	}{
		{10, 0}, {30, 0}, {30, 5},
	} {
		b.Run(fmt.Sprintf("n=%d/d=%v", tc.n, tc.d), func(b *testing.B) {
			runCostBench(b, ProtoMtGv2, droneScenario(tc.n, tc.d, 1.2))
		})
	}
}

// BenchmarkFig8Resilience: decision success rate under the §V-D attacks
// (Fig. 8 slice: n = 35, t = 2). The success-rate metric is the figure's
// y-axis.
func BenchmarkFig8Resilience(b *testing.B) {
	for _, pr := range []struct {
		name    string
		proto   ProtocolKind
		attack  AttackKind
		bridges int
	}{
		{"nectar", ProtoNectar, AttackSplitBrain, 2},
		{"mtg", ProtoMtG, AttackPoison, 0},
		{"mtgv2", ProtoMtGv2, AttackSplitBrain, 2},
	} {
		b.Run(pr.name+"/t=2", func(b *testing.B) {
			var last *ExperimentResult
			for i := 0; i < b.N; i++ {
				res, err := RunExperiment(ExperimentSpec{
					Protocol: pr.proto,
					Attack:   pr.attack,
					Scenario: BridgeScenario(35, 2, 6, 1.8, pr.bridges),
					T:        2,
					Trials:   1,
					Seed:     int64(i + 1),
				})
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(last.Accuracy.Mean, "success-rate")
			b.ReportMetric(last.Agreement.Mean, "agreement")
		})
	}
}

// BenchmarkTopoCostTable: NECTAR cost across the five topology families at
// equal nominal connectivity (the §V-C comparison), k = 10, n = 60.
func BenchmarkTopoCostTable(b *testing.B) {
	families := []struct {
		name string
		gen  func() (*Graph, error)
	}{
		{"k-regular", func() (*Graph, error) { return Harary(10, 60) }},
		{"k-diamond", func() (*Graph, error) { return KDiamond(10, 60) }},
		{"k-pasted-tree", func() (*Graph, error) { return KPastedTree(10, 60) }},
		{"generalized-wheel", func() (*Graph, error) { return GeneralizedWheel(8, 60) }},
		{"multipartite-wheel", func() (*Graph, error) { return MultipartiteWheel(8, 2, 60) }},
	}
	for _, fam := range families {
		b.Run(fam.name, func(b *testing.B) {
			g, err := fam.gen()
			if err != nil {
				b.Fatal(err)
			}
			runCostBench(b, ProtoNectar, FixedGraphScenario(g))
		})
	}
}

// BenchmarkByzTopoTable: resilience on the connectivity-dependent
// topologies (§V-D table slice): cut placement, t = 2.
func BenchmarkByzTopoTable(b *testing.B) {
	n := 30
	families := []struct {
		name string
		gen  func(rng *rand.Rand) (*Graph, error)
	}{
		{"k-regular(k=2)", func(*rand.Rand) (*Graph, error) { return Harary(2, n) }},
		{"k-diamond(k=4)", func(*rand.Rand) (*Graph, error) { return KDiamond(4, n) }},
		{"generalized-wheel(c=2)", func(*rand.Rand) (*Graph, error) { return GeneralizedWheel(2, n) }},
	}
	for _, fam := range families {
		for _, pr := range []struct {
			pname  string
			proto  ProtocolKind
			attack AttackKind
		}{
			{"nectar", ProtoNectar, AttackSplitBrain},
			{"mtg", ProtoMtG, AttackPoison},
			{"mtgv2", ProtoMtGv2, AttackSplitBrain},
		} {
			b.Run(fam.name+"/"+pr.pname, func(b *testing.B) {
				var last *ExperimentResult
				for i := 0; i < b.N; i++ {
					res, err := RunExperiment(ExperimentSpec{
						Protocol: pr.proto,
						Attack:   pr.attack,
						Scenario: CutPlacementScenario(fam.gen, 2),
						T:        2,
						Trials:   1,
						Seed:     int64(i + 1),
					})
					if err != nil {
						b.Fatal(err)
					}
					last = res
				}
				b.ReportMetric(last.Accuracy.Mean, "success-rate")
			})
		}
	}
}

// BenchmarkSimulateEd25519 measures the fidelity path: a full NECTAR run
// with real Ed25519 signatures on a mid-size graph.
func BenchmarkSimulateEd25519(b *testing.B) {
	g, err := Harary(4, 30)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(SimulationConfig{Graph: g, T: 1, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateEngineV2 measures the quiescence early exit on a
// quiescent-heavy topology: H_{10,60} has diameter ~3, so NECTAR falls
// silent after a handful of rounds while the default horizon is n-1 = 59.
// "early-exit" is engine v2's default; "full-horizon" is the v1-equivalent
// run. Both produce identical decisions and byte counts (see
// TestEngineV2EquivalenceProperty). The wall-clock delta here is bounded
// by NECTAR's own active work (signature chains dominate, see
// BenchmarkSimulateEngineHorizon for the isolated engine effect); the
// active-rounds metric shows the 59 → ~7 round reduction.
func BenchmarkSimulateEngineV2(b *testing.B) {
	g, err := Harary(10, 60)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name string
		full bool
	}{{"early-exit", false}, {"full-horizon", true}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			var last *SimulationResult
			for i := 0; i < b.N; i++ {
				res, err := Simulate(SimulationConfig{
					Graph: g, T: 3, Seed: int64(i + 1), SchemeName: "hmac",
					fullHorizon: mode.full,
				})
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(float64(last.ActiveRounds), "active-rounds")
			b.ReportMetric(float64(last.Rounds), "horizon-rounds")
		})
	}
}

// sparkNode is a minimal Quiescer protocol for engine-overhead isolation:
// node 0 sends one payload to its neighbors in round 1 (receivers do not
// relay), then the network is silent for the rest of the horizon.
type sparkNode struct {
	g       *Graph
	id      NodeID
	pending bool
	started bool
}

func (s *sparkNode) Emit(round int) []rounds.Send {
	s.started = true
	if !s.pending {
		return nil
	}
	s.pending = false
	nbrs := s.g.Neighbors(s.id)
	out := make([]rounds.Send, 0, len(nbrs))
	for _, nb := range nbrs {
		out = append(out, rounds.Send{To: nb, Data: []byte("spark")})
	}
	return out
}

func (s *sparkNode) Deliver(int, NodeID, []byte) {}

func (s *sparkNode) Quiescent() bool { return s.started && !s.pending }

// BenchmarkSimulateEngineHorizon isolates the engine's horizon cost: a
// single payload crosses a 512-node star (diameter 2, horizon n-1 = 511),
// so virtually every round is silent. This is the regime the tentpole
// targets — large-n runs bounded by real traffic instead of the
// worst-case horizon — without protocol work masking the engine.
func BenchmarkSimulateEngineHorizon(b *testing.B) {
	g := Star(512)
	for _, mode := range []struct {
		name string
		full bool
	}{{"early-exit", false}, {"full-horizon", true}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			var last *rounds.Metrics
			for i := 0; i < b.N; i++ {
				protos := make([]rounds.Protocol, g.N())
				for j := range protos {
					protos[j] = &sparkNode{g: g, id: NodeID(j), pending: j == 0}
				}
				m, err := rounds.Run(rounds.Config{
					Graph: g, Rounds: g.N() - 1, Seed: int64(i + 1), FullHorizon: mode.full,
				}, protos)
				if err != nil {
					b.Fatal(err)
				}
				last = m
			}
			b.ReportMetric(float64(last.ActiveRounds), "active-rounds")
			b.ReportMetric(float64(last.Rounds), "horizon-rounds")
		})
	}
}

// BenchmarkDecisionPhase isolates Alg. 1's decision phase (reachability +
// early-exit connectivity) on a discovered 100-node view.
func BenchmarkDecisionPhase(b *testing.B) {
	g, err := Harary(10, 100)
	if err != nil {
		b.Fatal(err)
	}
	scheme := NewHMACScheme(100, 1)
	nodes, err := BuildNodes(g, 3, scheme, 0)
	if err != nil {
		b.Fatal(err)
	}
	// Pre-load node 0's view by feeding it the full proof set directly.
	res, err := Simulate(SimulationConfig{Graph: g, T: 3, Seed: 1, SchemeName: "hmac"})
	if err != nil {
		b.Fatal(err)
	}
	_ = res
	nd := nodes[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nd.Decide()
	}
}
