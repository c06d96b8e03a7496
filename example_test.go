package nectar_test

import (
	"fmt"

	nectar "github.com/nectar-repro/nectar"
)

// ExampleSimulate runs NECTAR on a 2-connected ring and asks whether one
// Byzantine node could partition the correct nodes.
func ExampleSimulate() {
	g := nectar.Ring(8)
	res, err := nectar.Simulate(nectar.SimulationConfig{
		Graph: g,
		T:     1,
		Seed:  7,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Decision, res.Agreement)
	// Output: NOT_PARTITIONABLE true
}

// ExampleSimulate_byzantine shows the split-brain attack on a star: the
// Byzantine center stonewalls half the leaves, and NECTAR still keeps all
// correct nodes in agreement on the (correct) PARTITIONABLE verdict.
func ExampleSimulate_byzantine() {
	g := nectar.Star(7)
	res, err := nectar.Simulate(nectar.SimulationConfig{
		Graph: g,
		T:     1,
		Seed:  3,
		Byzantine: map[nectar.NodeID]nectar.AttackKind{
			0: nectar.AttackSplitBrain,
		},
		Blocked: map[nectar.NodeID][]nectar.NodeID{
			0: {4, 5, 6},
		},
	})
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Decision, res.Agreement, res.Confirmed)
	// Output: PARTITIONABLE true true
}

// ExampleGraph_IsTByzPartitionable applies Corollary 1 directly: a graph
// is t-Byzantine partitionable iff its vertex connectivity is at most t.
func ExampleGraph_IsTByzPartitionable() {
	star := nectar.Star(6) // κ = 1: the center is a cut vertex
	fmt.Println(star.IsTByzPartitionable(1))
	ring := nectar.Ring(6) // κ = 2
	fmt.Println(ring.IsTByzPartitionable(1))
	// Output:
	// true
	// false
}

// ExampleRunExperiment reproduces one point of the paper's Fig. 8: the
// bridge attack at t = 2 leaves NECTAR at accuracy 1.
func ExampleRunExperiment() {
	res, err := nectar.RunExperiment(nectar.ExperimentSpec{
		Protocol: nectar.ProtoNectar,
		Attack:   nectar.AttackSplitBrain,
		Scenario: nectar.BridgeScenario(20, 2, 6, 1.8, 2),
		T:        2,
		Trials:   5,
		Seed:     1,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("accuracy=%.2f agreement=%.2f\n", res.Accuracy.Mean, res.Agreement.Mean)
	// Output: accuracy=1.00 agreement=1.00
}
