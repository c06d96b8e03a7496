package nectar

// Simulate and the experiment harness assemble a NECTAR run through the
// same builder (internal/harness.BuildNectar); these tests pin that the
// adaptors over it agree on every Byzantine behaviour.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/nectar-repro/nectar/internal/ids"
)

// TestSimulateMatchesExperimentTrial runs every (graph, scheme, behaviour)
// with Byzantine nodes {2, 7} through Simulate, as a one-trial experiment
// on the same fixed scenario and as epoch 0 of a one-epoch SimulateDynamic
// on a static schedule, and requires the same scored run: detect and
// confirm rates, mean unicast bytes of the correct nodes, agreement,
// executed rounds and (all but the epoch) every fast-path counter. The
// drivers derive different keys from the seed; nothing scored depends on
// them.
func TestSimulateMatchesExperimentTrial(t *testing.T) {
	harary, err := Harary(4, 12)
	if err != nil {
		t.Fatal(err)
	}
	drone, _, err := Drone(30, 0, 0.7, rand.New(rand.NewSource(4))) // κ = 3, between t and 2t
	if err != nil {
		t.Fatal(err)
	}
	const seed = 17
	byz := []NodeID{2, 7}
	for _, topo := range []struct {
		name string
		g    *Graph
	}{{"harary", harary}, {"drone", drone}, {"ring", Ring(12)}} {
		n := topo.g.N()
		var side []NodeID // the split-brain victims: the upper half, minus the Byzantine nodes
		for v := NodeID(n / 2); int(v) < n; v++ {
			if v != byz[0] && v != byz[1] {
				side = append(side, v)
			}
		}
		sc := &Scenario{Graph: topo.g, Byz: ids.NewSet(byz...), Blocked: map[NodeID]ids.Set{}}
		for _, b := range byz {
			sc.Blocked[b] = ids.NewSet(side...)
		}
		for _, scheme := range []string{"hmac", "ed25519", "slim"} {
			for _, beh := range byzantineAttacks() {
				label := fmt.Sprintf("%s/%s/%s", topo.name, scheme, beh)
				cfg := SimulationConfig{Graph: topo.g, T: len(byz), Seed: seed, SchemeName: scheme,
					Byzantine: map[NodeID]AttackKind{}, Workers: 1}
				for _, b := range byz {
					cfg.Byzantine[b] = beh
				}
				if beh == AttackSplitBrain {
					cfg.Blocked = map[NodeID][]NodeID{byz[0]: side, byz[1]: side}
				}
				sim, err := Simulate(cfg)
				if err != nil {
					t.Fatalf("%s: Simulate: %v", label, err)
				}
				exps, err := RunExperiments([]ExperimentSpec{{
					Protocol: ProtoNectar, Attack: beh,
					Scenario: func(*rand.Rand) (*Scenario, error) { return sc, nil },
					T:        len(byz), Trials: 1, Seed: seed, SchemeName: scheme,
				}}, 1)
				if err != nil {
					t.Fatalf("%s: RunExperiments: %v", label, err)
				}
				dyn, err := SimulateDynamic(DynamicConfig{Schedule: StaticSchedule(topo.g), T: len(byz), Seed: seed,
					SchemeName: scheme, Epochs: 1, Byzantine: cfg.Byzantine, Blocked: cfg.Blocked, Workers: 1})
				if err != nil {
					t.Fatalf("%s: SimulateDynamic: %v", label, err)
				}
				want := simTrial(sim, n)
				got := exps[0].Trials[0]
				got = ExperimentTrial{DetectRate: got.DetectRate, ConfirmRate: got.ConfirmRate,
					MeanBytesPerNode: got.MeanBytesPerNode, Agreement: got.Agreement,
					ActiveRounds: got.ActiveRounds, FastPath: got.FastPath}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: drivers disagree:\nexperiment: %+v\nsimulate:   %+v", label, got, want)
				}
				ep := dyn.Epochs[0]
				epoch := simTrial(&SimulationResult{Outcomes: ep.Outcomes, Agreement: ep.Agreement,
					BytesSent: ep.BytesSent, ActiveRounds: ep.ActiveRounds}, n)
				if want.FastPath = epoch.FastPath; epoch != want { // an epoch reports no fast-path counters
					t.Errorf("%s: epoch 0 disagrees:\ndynamic:  %+v\nsimulate: %+v", label, epoch, want)
				}
			}
		}
	}
}

// simTrial scores a SimulationResult the way the harness scores a trial,
// in the fields both drivers report.
func simTrial(res *SimulationResult, n int) ExperimentTrial {
	tr := ExperimentTrial{Agreement: res.Agreement, ActiveRounds: res.ActiveRounds, FastPath: res.FastPath}
	var detected, confirmed int
	var bytes int64
	for i := 0; i < n; i++ {
		o, ok := res.Outcomes[NodeID(i)]
		if !ok {
			continue
		}
		if o.Decision == Partitionable {
			detected++
		}
		if o.Confirmed {
			confirmed++
		}
		bytes += res.BytesSent[i]
	}
	correct := float64(len(res.Outcomes))
	tr.DetectRate = float64(detected) / correct
	tr.ConfirmRate = float64(confirmed) / correct
	tr.MeanBytesPerNode = float64(bytes) / correct
	return tr
}
