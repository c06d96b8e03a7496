// Red-team walkthrough: search for the worst-case Byzantine attack
// instead of scripting one.
//
//	go run ./examples/redteam
//
// The demo puts two Byzantine nodes on a 3-connected Harary graph with
// t=2 — the regime where κ sits strictly between t and 2t, so the
// paper's 2t-Sensitivity bound does NOT apply and an optimized adversary
// may legally force wrong verdicts. A random adversary almost never
// finds the weak spot; the structure-seeded search reliably does: two
// adjacent Byzantine nodes concealing their shared edge (omit-own) drag
// every correct node's perceived connectivity to κ-1 ≤ t. The same
// search on a generalized wheel at κ = 2t then shows the bound holding:
// zero damage, no matter how hard the optimizer tries.
package main

import (
	"fmt"
	"log"
	"math/rand"

	nectar "github.com/nectar-repro/nectar"
)

func main() {
	const (
		t      = 2
		n      = 16
		seed   = 7
		budget = 48
	)

	fmt.Println("== Worst-case attack search (t=2, omit-own, misclassification) ==")
	fmt.Println()
	topologies := []struct {
		name string
		gen  func(rng *rand.Rand) (*nectar.Graph, error)
	}{
		// κ=3: t < κ < 2t — no guarantee, the searchable regime.
		{"harary(k=3)", func(*rand.Rand) (*nectar.Graph, error) { return nectar.Harary(3, n) }},
		// κ=4 = 2t: 2t-Sensitivity holds — damage provably 0.
		{"gwheel(c=2)", func(*rand.Rand) (*nectar.Graph, error) { return nectar.GeneralizedWheel(2, n) }},
	}
	for _, topo := range topologies {
		fmt.Printf("-- %s --\n", topo.name)
		for _, optimizer := range []string{"random", "greedy"} {
			res, err := nectar.RunRedTeam(nectar.RedTeamSpec{
				Name:      topo.name,
				Topology:  topo.gen,
				T:         t,
				Attack:    nectar.AttackOmitOwn,
				Objective: nectar.ObjectiveMisclassify,
				Optimizer: optimizer,
				Budget:    budget,
				Trials:    2,
				Seed:      seed,
			})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-8s damage %.2f at [%s] (%d evals; random baseline mean %.2f)\n",
				optimizer, res.Best.Damage, res.Best.Placement.Key(),
				res.Best.Evals, res.Baseline.Mean)
			if optimizer == "greedy" {
				fmt.Printf("         %s\n", res.Guarantee)
			}
		}
		fmt.Println()
	}

	// The adaptive adversary: same API as the scripted behaviours, but
	// the coalition coordinates — equivocation victims are picked each
	// round from observed traffic (stale replay first, then equivocate).
	fmt.Println("== Coordinated adaptive adversary (phased: stale → equivocate) ==")
	g, err := nectar.Harary(3, n)
	if err != nil {
		log.Fatal(err)
	}
	res, err := nectar.Simulate(nectar.SimulationConfig{
		Graph: g,
		T:     t,
		Seed:  seed,
		Byzantine: map[nectar.NodeID]nectar.AttackKind{
			0: nectar.AttackPhased,
			1: nectar.AttackPhased,
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("decision %v (agreement=%v) after %d/%d rounds\n",
		res.Decision, res.Agreement, res.ActiveRounds, res.Rounds)
}
