package harness

import (
	"math/rand"
	"testing"

	"github.com/nectar-repro/nectar/internal/graph"
	"github.com/nectar-repro/nectar/internal/topology"
)

// TestDefinition3PropertiesRandomized is the central correctness sweep of
// the reproduction: it fuzzes NECTAR across random topologies, Byzantine
// counts, placements and every implemented attack, asserting the formal
// properties of Def. 3 and the Validity of `confirmed` on every single
// trial.
//
//	Safety       Byzantine cut (correct subgraph partitioned)
//	             ⟹ every correct node decides PARTITIONABLE.
//	Sensitivity  κ(G) ≥ 2t (t ≥ 1) ⟹ every correct node decides
//	             NOT_PARTITIONABLE.
//	Agreement    correct subgraph connected ⟹ identical decisions
//	             (Lemma 2); correct subgraph partitioned ⟹ identical
//	             decisions too (Lemma 3: all PARTITIONABLE).
//	Validity     any confirmed=true ⟹ the Byzantine placement is a
//	             vertex cut (correct subgraph partitioned) or some
//	             Byzantine node has no correct neighbor.
//
// Termination is structural: every trial finishes in n-1 rounds.
func TestDefinition3PropertiesRandomized(t *testing.T) {
	attacks := []AttackKind{
		AttackNone, AttackCrash, AttackSplitBrain, AttackFakeEdges,
		AttackGarbage, AttackStale, AttackEquivocate, AttackOmitOwn,
	}
	trialsPer := 6
	if testing.Short() {
		trialsPer = 2
	}
	rng := rand.New(rand.NewSource(2024))
	for _, atk := range attacks {
		for rep := 0; rep < trialsPer; rep++ {
			n := 6 + rng.Intn(8)
			tByz := 1 + rng.Intn(3)
			p := 0.2 + 0.6*rng.Float64()
			genSeed := rng.Int63()
			gen := func(r *rand.Rand) (*graph.Graph, error) {
				return topology.ErdosRenyi(n, p, rand.New(rand.NewSource(genSeed)))
			}
			placement := CutPlacement(gen, tByz)
			if rep%2 == 1 {
				placement = RandomPlacement(gen, tByz)
			}
			res, err := Run(Spec{
				Protocol: ProtoNectar,
				Attack:   atk,
				Scenario: placement,
				T:        tByz,
				Trials:   1,
				Seed:     rng.Int63(),
			})
			if err != nil {
				t.Fatalf("attack %s rep %d: %v", atk, rep, err)
			}
			tr := res.Trials[0]
			// Safety.
			if tr.Truth.CorrectPartitioned && tr.DetectRate != 1 {
				t.Errorf("SAFETY violated: attack=%s n=%d t=%d detect=%v",
					atk, n, tByz, tr.DetectRate)
			}
			// 2t-Sensitivity.
			if tr.Truth.TwoTConnected && tr.DetectRate != 0 {
				t.Errorf("SENSITIVITY violated: attack=%s n=%d t=%d detect=%v",
					atk, n, tByz, tr.DetectRate)
			}
			// Agreement (both Lemma 2 and Lemma 3 cases).
			if !tr.Agreement {
				t.Errorf("AGREEMENT violated: attack=%s n=%d t=%d", atk, n, tByz)
			}
			// Validity of confirmed.
			if tr.ConfirmRate > 0 && !tr.Truth.CorrectPartitioned && !tr.Truth.ByzEnclave {
				t.Errorf("VALIDITY violated: attack=%s n=%d t=%d confirm=%v",
					atk, n, tByz, tr.ConfirmRate)
			}
		}
	}
}

// TestLemma2IdenticalViews checks the stronger statement behind Agreement:
// with a connected correct subgraph, all correct nodes end with the same
// discovered graph Gf, under split-brain and fake-edge attacks.
func TestLemma2IdenticalViews(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for rep := 0; rep < 8; rep++ {
		n := 8 + rng.Intn(6)
		gen := func(r *rand.Rand) (*graph.Graph, error) {
			return topology.RandomRegularConnected(4, n+n%2, r)
		}
		for _, atk := range []AttackKind{AttackSplitBrain, AttackFakeEdges} {
			spec := Spec{
				Protocol: ProtoNectar,
				Attack:   atk,
				Scenario: RandomPlacement(gen, 2),
				T:        2,
				Trials:   1,
				Seed:     rng.Int63(),
			}
			sc, protos, nodes, err := buildForInspection(&spec)
			if err != nil {
				t.Fatal(err)
			}
			if !sc.Graph.InducedSubgraphConnected(sc.Byz) {
				continue // Lemma 2's hypothesis
			}
			if err := runEngine(&spec, sc, protos); err != nil {
				t.Fatal(err)
			}
			var ref *graph.Graph
			for i, nd := range nodes {
				if sc.Byz.Has(nd.ID()) {
					continue
				}
				v := nd.View()
				if ref == nil {
					ref = v
					continue
				}
				if !v.Equal(ref) {
					t.Fatalf("attack %s: node %d's view differs (Lemma 2)", atk, i)
				}
			}
		}
	}
}
