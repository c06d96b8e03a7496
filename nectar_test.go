package nectar

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

func TestSimulateQuickstart(t *testing.T) {
	// The README quickstart: a 2-connected ring with t=1 is safe.
	res, err := Simulate(SimulationConfig{Graph: Ring(8), T: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Agreement || res.Decision != NotPartitionable || res.Confirmed {
		t.Errorf("ring verdict = (%v, agreement=%v, confirmed=%v)",
			res.Decision, res.Agreement, res.Confirmed)
	}
	if len(res.Outcomes) != 8 {
		t.Errorf("%d outcomes, want 8", len(res.Outcomes))
	}
	if res.Rounds != 7 {
		t.Errorf("rounds = %d, want n-1 = 7", res.Rounds)
	}
	for id, o := range res.Outcomes {
		if o.Reachable != 8 {
			t.Errorf("node %v reached %d/8", id, o.Reachable)
		}
	}
}

func TestSimulateStarIsPartitionable(t *testing.T) {
	res, err := Simulate(SimulationConfig{Graph: Star(6), T: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Decision != Partitionable || res.Confirmed {
		t.Errorf("star verdict = (%v, confirmed=%v), want (PARTITIONABLE, false)",
			res.Decision, res.Confirmed)
	}
}

func TestSimulateWithSplitBrainByzantine(t *testing.T) {
	// Two triangles joined only through node 0: a split-brain node 0
	// partitions them in practice; every correct node must detect
	// partitionability, and the stonewalled side confirms it.
	g := NewGraph(7)
	for _, e := range [][2]NodeID{
		{1, 2}, {2, 3}, {3, 1}, {4, 5}, {5, 6}, {6, 4}, {0, 1}, {0, 4},
	} {
		g.AddEdge(e[0], e[1])
	}
	res, err := Simulate(SimulationConfig{
		Graph: g, T: 1, Seed: 3,
		Byzantine: map[NodeID]Behavior{0: BehaviorSplitBrain},
		Blocked:   map[NodeID][]NodeID{0: {4, 5, 6}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Decision != Partitionable {
		t.Errorf("verdict = %v, want PARTITIONABLE", res.Decision)
	}
	if !res.Agreement {
		t.Error("NECTAR agreement must hold under split-brain")
	}
	if !res.Confirmed {
		t.Error("the stonewalled side should confirm an actual partition")
	}
}

func TestSimulateAllBehaviorsRun(t *testing.T) {
	g := Ring(8)
	g.AddEdge(0, 4) // a chord so t=2 keeps some margin
	for _, b := range []Behavior{
		BehaviorCrash, BehaviorFakeEdges, BehaviorGarbage,
		BehaviorStale, BehaviorEquivocate, BehaviorOmitOwn,
	} {
		res, err := Simulate(SimulationConfig{
			Graph: g, T: 2, Seed: 4, SchemeName: "hmac",
			Byzantine: map[NodeID]Behavior{2: b, 6: b},
		})
		if err != nil {
			t.Fatalf("behavior %s: %v", b, err)
		}
		if !res.Agreement {
			t.Errorf("behavior %s broke agreement", b)
		}
	}
}

func TestSimulateValidation(t *testing.T) {
	if _, err := Simulate(SimulationConfig{}); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := Simulate(SimulationConfig{Graph: NewGraph(0)}); err == nil {
		t.Error("empty graph accepted")
	}
	if _, err := Simulate(SimulationConfig{Graph: Ring(4), T: 0,
		Byzantine: map[NodeID]Behavior{1: BehaviorCrash}}); err == nil {
		t.Error("byz count above T accepted")
	}
	if _, err := Simulate(SimulationConfig{Graph: Ring(4), T: 1,
		Byzantine: map[NodeID]Behavior{9: BehaviorCrash}}); err == nil {
		t.Error("out-of-range byz accepted")
	}
	if _, err := Simulate(SimulationConfig{Graph: Ring(4), T: 1,
		Byzantine: map[NodeID]Behavior{1: "teleport"}}); err == nil {
		t.Error("unknown behavior accepted")
	}
	if _, err := Simulate(SimulationConfig{Graph: Ring(4), T: 1,
		Byzantine: map[NodeID]Behavior{1: BehaviorSplitBrain}}); err == nil {
		t.Error("split-brain without Blocked accepted")
	}
	if _, err := Simulate(SimulationConfig{Graph: Ring(4), T: 1, SchemeName: "rsa"}); err == nil {
		t.Error("unknown scheme accepted")
	}
	if _, err := Simulate(SimulationConfig{Graph: Ring(4), T: -1}); err == nil || err.Error() != "nectar: negative T -1" {
		t.Errorf("negative T: err = %v, want nectar: negative T -1", err)
	}
}

func TestRunExperimentThroughFacade(t *testing.T) {
	res, err := RunExperiment(ExperimentSpec{
		Protocol: ProtoNectar,
		Attack:   AttackSplitBrain,
		Scenario: BridgeScenario(16, 2, 6, 1.8, 2),
		T:        2,
		Trials:   3,
		Seed:     5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accuracy.Mean != 1.0 {
		t.Errorf("NECTAR accuracy = %v, want 1.0", res.Accuracy.Mean)
	}
}

func TestFacadeTopologiesAndGraphOps(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g, pts, err := Drone(10, 2, 1.5, rng)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 10 || len(pts) != 10 {
		t.Error("drone sizes wrong")
	}
	h, err := Harary(4, 12)
	if err != nil {
		t.Fatal(err)
	}
	if h.Connectivity() != 4 {
		t.Errorf("Harary κ = %d", h.Connectivity())
	}
	if !Star(5).IsTByzPartitionable(1) {
		t.Error("star should be 1-Byz-partitionable")
	}
	e := NewEdge(3, 1)
	if e.U != 1 || e.V != 3 {
		t.Error("NewEdge not normalized")
	}
	gg := GraphFromEdges(4, []Edge{e})
	if !gg.HasEdge(1, 3) {
		t.Error("GraphFromEdges lost the edge")
	}
}

func TestFacadeNodeConstruction(t *testing.T) {
	g := Ring(5)
	scheme := NewHMACScheme(5, 1)
	all := BuildProofs(scheme, g)
	nd, err := NewNode(Config{
		N: 5, T: 1, Me: 2,
		Neighbors: g.Neighbors(2),
		Proofs:    NeighborProofs(all, g, 2),
		Signer:    scheme.SignerFor(2),
		Verifier:  scheme.Verifier(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if nd.ID() != 2 || nd.Rounds() != 4 {
		t.Errorf("node identity/rounds wrong: %v %d", nd.ID(), nd.Rounds())
	}
	if SchemeByName("ed25519", 3, 1) == nil || SchemeByName("nope", 3, 1) != nil {
		t.Error("SchemeByName wrong")
	}
}

// TestRoundsBeyondTheWireLimit: a chain's hop count travels as a uint16 and
// grows by one per round, so a horizon past 65 535 rounds — given, or the
// default n-1 — would wrap it and lose liveness silently; and a view packs
// each endpoint of an edge into 16 bits, so n stops at 65 536 even under a
// short horizon. NewNode refuses either, and so do Simulate and
// SimulateDynamic, with the same error and before they generate a key (the
// large-n rows would otherwise spend seconds on Ed25519 key pairs first).
func TestRoundsBeyondTheWireLimit(t *testing.T) {
	const limit = 1<<16 - 1
	scheme := NewHMACScheme(2, 1)
	for _, tc := range []struct {
		n, rounds int
		ok        bool
		names     string // the limit a refusal names
	}{
		{4, 0, true, ""},
		{4, limit, true, ""},
		{4, limit + 1, false, "65535"},
		{4, -1, false, "-1"},
		{limit + 1, 0, true, ""},
		{limit + 1, 7, true, ""},
		{limit + 2, 0, false, "65535"},
		{limit + 2, 7, false, "65536"},
		{200000, 0, false, "65535"},
	} {
		_, err := NewNode(Config{
			N: tc.n, T: 1, Me: 0, Rounds: tc.rounds,
			Neighbors: []NodeID{1},
			Proofs:    map[NodeID]Proof{1: MakeProof(scheme.SignerFor(0), scheme.SignerFor(1))},
			Signer:    scheme.SignerFor(0),
			Verifier:  scheme.Verifier(),
		})
		if (err == nil) != tc.ok {
			t.Errorf("NewNode(N=%d, Rounds=%d): err = %v, want ok = %v", tc.n, tc.rounds, err, tc.ok)
		}
		if tc.ok && tc.n > 8 {
			continue // a whole system of that size is not a unit test
		}
		want := fmt.Sprint(err)
		if !tc.ok && !strings.Contains(want, tc.names) {
			t.Errorf("NewNode(N=%d, Rounds=%d): error %q does not name the limit", tc.n, tc.rounds, want)
		}
		g := NewGraph(tc.n)
		g.AddEdge(0, 1)
		_, err = Simulate(SimulationConfig{Graph: g, T: 1, Rounds: tc.rounds})
		if got := fmt.Sprint(err); got != want {
			t.Errorf("Simulate(n=%d, Rounds=%d): err = %s, want %s", tc.n, tc.rounds, got, want)
		}
		_, err = SimulateDynamic(DynamicConfig{Schedule: StaticSchedule(g), T: 1, EpochRounds: tc.rounds, Epochs: 1})
		if got := fmt.Sprint(err); got != want && tc.rounds >= 0 { // a negative EpochRounds has the dynamic layer's own error
			t.Errorf("SimulateDynamic(n=%d, EpochRounds=%d): err = %s, want %s", tc.n, tc.rounds, got, want)
		}
	}
}
