package harness

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/nectar-repro/nectar/internal/graph"
	"github.com/nectar-repro/nectar/internal/redteam"
	"github.com/nectar-repro/nectar/internal/topology"
)

// hararyTopology samples nothing: the deterministic Harary graph keeps
// the searched-vs-random comparison about placement only.
func hararyTopology(k, n int) func(*rand.Rand) (*graph.Graph, error) {
	return func(*rand.Rand) (*graph.Graph, error) { return topology.Harary(k, n) }
}

// TestRedTeamSearchBeatsRandomPlacement pins the acceptance property: on
// a 3-connected Harary graph with t=2 (κ strictly between t and 2t, so
// no guarantee applies), the omit-own attack does real damage only when
// the two Byzantine nodes are adjacent on a critical edge — random
// placement rarely is, the exact search (the default budget covers all
// C(16,2) = 120 placements) always ends up there.
func TestRedTeamSearchBeatsRandomPlacement(t *testing.T) {
	res, err := RunRedTeam(RedTeamSpec{
		Name:      "pinned",
		Topology:  hararyTopology(3, 16),
		T:         2,
		Attack:    AttackOmitOwn,
		Objective: redteam.ObjMisclassify,
		Trials:    2,
		Seed:      7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.GuaranteeHolds {
		t.Fatalf("κ=%d with t=2 should not satisfy 2t-sensitivity", res.Kappa)
	}
	if !res.Best.Exact || res.Best.Evals != 120 {
		t.Errorf("search exact=%v over %d evals, want every one of 120 placements", res.Best.Exact, res.Best.Evals)
	}
	if res.Best.Damage < 0.99 {
		t.Errorf("searched damage %.3f, want ≈1 (placement %v)", res.Best.Damage, res.Best.Placement)
	}
	if res.Gain() < 0.3 {
		t.Errorf("gain over random placement %.3f (searched %.3f vs baseline mean %.3f), want ≥ 0.3",
			res.Gain(), res.Best.Damage, res.Baseline.Mean)
	}
	// The winning placement must be an adjacent pair: the omit-own
	// deviation has no edges to hide otherwise.
	g, _ := topology.Harary(3, 16)
	if !g.HasEdge(res.Best.Placement[0], res.Best.Placement[1]) {
		t.Errorf("winning placement %v is not adjacent", res.Best.Placement)
	}
}

// exactOracle runs the exact search and checks that it scored all
// C(16,2) = 120 placements and that every one of them did zero damage.
func exactOracle(t *testing.T, spec RedTeamSpec) *RedTeamResult {
	t.Helper()
	res, err := RunRedTeam(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Best.Exact || res.Best.Evals != 120 || len(res.Trace) != 120 {
		t.Fatalf("exact=%v evals=%d trace=%d, want all 120 placements scored",
			res.Best.Exact, res.Best.Evals, len(res.Trace))
	}
	for _, s := range res.Trace {
		if s.Damage != 0 {
			t.Errorf("placement [%s]: %s damage %v, want 0", s.Placement.Key(), spec.Objective, s.Damage)
		}
	}
	return res
}

// TestExactSearchConfirmsTwoTSensitivity: on GeneralizedWheel(2,16)
// κ = 4 = 2t at t = 2, so 2t-Sensitivity forbids any misclassification;
// the omit-own attack must do none at any of the 120 placements.
func TestExactSearchConfirmsTwoTSensitivity(t *testing.T) {
	res := exactOracle(t, RedTeamSpec{
		Topology: func(*rand.Rand) (*graph.Graph, error) { return topology.GeneralizedWheel(2, 16) },
		T:        2, Attack: AttackOmitOwn, Objective: redteam.ObjMisclassify,
		Trials: 1, Seed: 7,
	})
	if !res.GuaranteeHolds {
		t.Errorf("κ=%d with t=2 should satisfy 2t-sensitivity", res.Kappa)
	}
}

// TestExactSearchConfirmsAgreement: Agreement holds for any placement,
// so the split-brain attack on Harary(3,16) at t = 2 must split the
// correct nodes' decisions at none of the 120 placements.
func TestExactSearchConfirmsAgreement(t *testing.T) {
	exactOracle(t, RedTeamSpec{
		Topology: hararyTopology(3, 16),
		T:        2, Attack: AttackSplitBrain, Objective: redteam.ObjDisagree,
		Trials: 1, Seed: 7,
	})
}

// TestRedTeamReproducesBitForBit: identical specs must produce identical
// results — trace, placements, damages, baseline — run to run.
func TestRedTeamReproducesBitForBit(t *testing.T) {
	spec := RedTeamSpec{
		Topology:  hararyTopology(4, 12),
		T:         2,
		Attack:    AttackSplitBrain,
		Objective: redteam.ObjDisagree,
		Budget:    12,
		Trials:    2,
		Seed:      42,
	}
	a, err := RunRedTeam(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunRedTeam(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Function-typed Spec fields can't be compared; strip them.
	a.Spec.Topology, b.Spec.Topology = nil, nil
	if !reflect.DeepEqual(a, b) {
		t.Errorf("identical specs diverged:\nrun 1: %+v\nrun 2: %+v", a, b)
	}
}

// TestRedTeamEvaluationIsSearchPathIndependent: a placement's score must
// not depend on when (or by which search) it is evaluated — it is a
// pure function of the normalized placement.
func TestRedTeamEvaluationIsSearchPathIndependent(t *testing.T) {
	spec := RedTeamSpec{
		Topology:  hararyTopology(3, 16),
		T:         2,
		Attack:    AttackOmitOwn,
		Objective: redteam.ObjMisclassify,
		Trials:    2,
		Seed:      7,
	}
	spec = spec.withDefaults()
	g, err := topology.Harary(3, 16)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := redTeamMetrics(&spec, g, redteam.NewPlacement(0, 1), 1)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := redTeamMetrics(&spec, g, redteam.NewPlacement(1, 0), 2) // same placement, reordered; budget never changes scores
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Errorf("same placement scored %+v then %+v", m1, m2)
	}
}

// TestRedTeamAdaptiveAttackRuns exercises the coordinated adversary
// end-to-end through the search pipeline.
func TestRedTeamAdaptiveAttackRuns(t *testing.T) {
	for _, attack := range []AttackKind{AttackAdaptive, AttackPhased} {
		res, err := RunRedTeam(RedTeamSpec{
			Topology:        hararyTopology(4, 12),
			T:               2,
			Attack:          attack,
			Objective:       redteam.ObjDisagree,
			Budget:          6,
			BaselineSamples: 4,
			Trials:          2,
			Seed:            3,
		})
		if err != nil {
			t.Fatalf("%s: %v", attack, err)
		}
		if len(res.Best.Placement) != 2 {
			t.Errorf("%s: placement %v, want 2 slots", attack, res.Best.Placement)
		}
		if res.Best.Evals == 0 || len(res.Trace) != res.Best.Evals {
			t.Errorf("%s: trace has %d entries for %d evals", attack, len(res.Trace), res.Best.Evals)
		}
	}
}

// TestRedTeamValidation covers the misconfiguration surface.
func TestRedTeamValidation(t *testing.T) {
	good := RedTeamSpec{Topology: hararyTopology(3, 10), T: 2, Seed: 1}
	cases := []struct {
		name   string
		mutate func(*RedTeamSpec)
	}{
		{"no topology", func(s *RedTeamSpec) { s.Topology = nil }},
		{"t zero", func(s *RedTeamSpec) { s.T = 0 }},
		{"t = n", func(s *RedTeamSpec) { s.T = 10 }},
		{"bad objective", func(s *RedTeamSpec) { s.Objective = "nosuch" }},
		{"unsupported attack", func(s *RedTeamSpec) { s.Protocol = ProtoMtG; s.Attack = AttackOmitOwn }},
	}
	for _, c := range cases {
		spec := good
		c.mutate(&spec)
		if _, err := RunRedTeam(spec); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

// TestGuaranteeClassification pins the three bound regimes.
func TestGuaranteeClassification(t *testing.T) {
	cases := []struct {
		k, n, t            int
		holds, partitional bool
	}{
		{6, 18, 3, true, false},  // κ=6 ≥ 2t=6
		{3, 16, 2, false, false}, // t < κ < 2t
		{2, 12, 2, false, true},  // κ ≤ t
	}
	for _, c := range cases {
		res, err := RunRedTeam(RedTeamSpec{
			Topology: hararyTopology(c.k, c.n), T: c.t,
			Budget: 2, BaselineSamples: 2, Trials: 1, Seed: 5,
		})
		if err != nil {
			t.Fatalf("k=%d t=%d: %v", c.k, c.t, err)
		}
		if res.GuaranteeHolds != c.holds || res.TruthPartitionable != c.partitional {
			t.Errorf("k=%d t=%d: holds=%v partitionable=%v, want %v/%v (κ=%d)",
				c.k, c.t, res.GuaranteeHolds, res.TruthPartitionable,
				c.holds, c.partitional, res.Kappa)
		}
	}
}
