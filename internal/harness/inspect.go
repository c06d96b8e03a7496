package harness

import (
	"fmt"

	"github.com/nectar-repro/nectar/internal/nectar"
	"github.com/nectar-repro/nectar/internal/rounds"
)

// White-box single-trial plumbing: generate a scenario and a NECTAR stack
// while keeping direct references to the underlying nodes, so tests can
// inspect discovered views (e.g. the Lemma 2 identical-views property).

// buildForInspection generates spec's scenario (trial 0) and the
// NECTAR run the static driver builds for it, returning the scenario, the
// engine stack, and the underlying nodes.
func buildForInspection(spec *Spec) (*Scenario, []rounds.Protocol, []*nectar.Node, error) {
	if spec.Protocol != ProtoNectar {
		return nil, nil, nil, fmt.Errorf("harness: inspection is NECTAR-only, got %q", spec.Protocol)
	}
	valid, err := spec.validate()
	if err != nil {
		return nil, nil, nil, err
	}
	sc, trialSeed, err := trialSetup(&valid, 0)
	if err != nil {
		return nil, nil, nil, err
	}
	run, err := nectarTrial(&valid, sc, trialSeed)
	if err != nil {
		return nil, nil, nil, err
	}
	return sc, run.Protos, run.Nodes, nil
}

// runEngine drives a stack built by buildForInspection through the spec's
// round horizon.
func runEngine(spec *Spec, sc *Scenario, protos []rounds.Protocol) error {
	r := spec.Rounds
	if r == 0 {
		r = sc.Graph.N() - 1
	}
	_, err := rounds.Run(rounds.Config{
		Graph:   sc.Graph,
		Rounds:  r,
		Seed:    spec.Seed,
		Workers: 1,
	}, protos)
	return err
}
