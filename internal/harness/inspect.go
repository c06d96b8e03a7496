package harness

import (
	"fmt"
	"math/rand"

	"github.com/nectar-repro/nectar/internal/nectar"
	"github.com/nectar-repro/nectar/internal/rounds"
	"github.com/nectar-repro/nectar/internal/sig"
)

// White-box single-trial plumbing: generate a scenario and a NECTAR stack
// while keeping direct references to the underlying nodes, so tests can
// inspect discovered views (e.g. the Lemma 2 identical-views property).

// buildForInspection generates spec's scenario (trial 0 seeding) and the
// NECTAR protocol stack, returning the scenario, the engine stack, and
// the underlying nodes.
func buildForInspection(spec *Spec) (*Scenario, []rounds.Protocol, []*nectar.Node, error) {
	if spec.Protocol != ProtoNectar {
		return nil, nil, nil, fmt.Errorf("harness: inspection is NECTAR-only, got %q", spec.Protocol)
	}
	if spec.SchemeName == "" {
		spec.SchemeName = "hmac"
	}
	trialSeed := spec.Seed
	rng := rand.New(rand.NewSource(trialSeed))
	sc, err := spec.Scenario(rng)
	if err != nil {
		return nil, nil, nil, err
	}
	scheme := sig.ByName(spec.SchemeName, sc.Graph.N(), trialSeed^0x5F5F5F5F)
	if scheme == nil {
		return nil, nil, nil, fmt.Errorf("harness: unknown scheme %q", spec.SchemeName)
	}
	protos, nodes, _, err := nectarStack(spec, sc, scheme, trialSeed)
	if err != nil {
		return nil, nil, nil, err
	}
	return sc, protos, nodes, nil
}

// runEngine drives a stack built by buildForInspection through the spec's
// round horizon.
func runEngine(spec *Spec, sc *Scenario, protos []rounds.Protocol) error {
	r := spec.Rounds
	if r == 0 {
		r = sc.Graph.N() - 1
	}
	workers := 1
	if spec.EngineParallel {
		workers = 0 // GOMAXPROCS
	}
	_, err := rounds.Run(rounds.Config{
		Graph:   sc.Graph,
		Rounds:  r,
		Seed:    spec.Seed,
		Workers: workers,
	}, protos)
	return err
}
