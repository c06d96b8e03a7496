package harness

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/nectar-repro/nectar/internal/dynamic"
	"github.com/nectar-repro/nectar/internal/graph"
	"github.com/nectar-repro/nectar/internal/ids"
	"github.com/nectar-repro/nectar/internal/sig"
	"github.com/nectar-repro/nectar/internal/topology"
)

func hararyGen(k, n int) func(*rand.Rand) (*graph.Graph, error) {
	return func(*rand.Rand) (*graph.Graph, error) { return topology.Harary(k, n) }
}

func TestRunValidation(t *testing.T) {
	ok := Spec{
		Protocol: ProtoNectar, Attack: AttackNone, T: 1, Trials: 1, Seed: 1,
		Scenario: Plain(hararyGen(2, 6)),
	}
	if _, err := Run(ok); err != nil {
		t.Fatalf("valid spec failed: %v", err)
	}
	bad := ok
	bad.Trials = 0
	if _, err := Run(bad); err == nil {
		t.Error("zero trials accepted")
	}
	bad = ok
	bad.Scenario = nil
	if _, err := Run(bad); err == nil {
		t.Error("nil scenario accepted")
	}
	bad = ok
	bad.Protocol = "bogus"
	if _, err := Run(bad); err == nil {
		t.Error("unknown protocol accepted")
	}
	bad = ok
	bad.SchemeName = "rsa"
	if _, err := Run(bad); err == nil {
		t.Error("unknown scheme accepted")
	}
	bad = ok
	bad.Attack = AttackPoison // not defined for NECTAR
	if _, err := Run(bad); err == nil {
		t.Error("poison attack on NECTAR accepted")
	}
	bad = ok
	bad.LossRate = math.NaN()
	if _, err := Run(bad); err == nil {
		t.Error("NaN loss rate accepted")
	}
}

// TestUnknownSchemeRejectedUpFront: a scheme typo fails the runner's
// constructor, naming the valid schemes, before any trial generates a
// scenario — for static, dynamic and red-team specs alike.
func TestUnknownSchemeRejectedUpFront(t *testing.T) {
	check := func(name string, err error) {
		t.Helper()
		if err == nil {
			t.Errorf("%s: unknown scheme accepted", name)
			return
		}
		for _, scheme := range sig.Names() {
			if !strings.Contains(err.Error(), scheme) {
				t.Errorf("%s: error %q does not name scheme %q", name, err, scheme)
			}
		}
	}
	for _, p := range Protocols() {
		generated := 0
		_, err := NewRunner(Spec{
			Protocol: p, T: 1, Trials: 1, Seed: 1, SchemeName: "ed2559",
			Scenario: func(rng *rand.Rand) (*Scenario, error) {
				generated++
				return Plain(hararyGen(2, 6))(rng)
			},
		})
		check(string(p), err)
		if generated != 0 {
			t.Errorf("%s: %d scenarios generated before the scheme was rejected", p, generated)
		}
	}
	d := dynamicSpecForTest()
	d.SchemeName = "nosuch"
	_, err := NewDynamicRunner(d)
	check("dynamic", err)
	r := redTeamSpecForTest()
	r.SchemeName = "nosuch"
	_, err = NewRedTeamRunner(r)
	check("redteam", err)
}

// TestSpecCountsRejectedUpFront: a static or dynamic spec's bound,
// horizon and loss rate are checked by its constructor, before a trial
// generates a scenario or a schedule — where each used to fail only once
// unit 0 ran, and an MtG trial with a negative T ran to completion.
func TestSpecCountsRejectedUpFront(t *testing.T) {
	generated := 0
	static := func(set func(*Spec)) error {
		s := Spec{
			Protocol: ProtoNectar, T: 1, Trials: 1, Seed: 1,
			Scenario: func(rng *rand.Rand) (*Scenario, error) {
				generated++
				return Plain(hararyGen(2, 6))(rng)
			},
		}
		set(&s)
		_, err := NewRunner(s)
		return err
	}
	dyn := func(set func(*DynamicSpec)) error {
		d := dynamicSpecForTest()
		sched := d.Schedule
		d.Schedule = func(rng *rand.Rand) (*dynamic.EdgeSchedule, error) {
			generated++
			return sched(rng)
		}
		set(&d)
		_, err := NewDynamicRunner(d)
		return err
	}
	for _, c := range []struct {
		name, field string
		err         error
	}{
		{"nectar T", "T", static(func(s *Spec) { s.T = -1 })},
		{"mtg T", "T", static(func(s *Spec) { s.Protocol, s.T = ProtoMtG, -1 })},
		{"mtgv2 T", "T", static(func(s *Spec) { s.Protocol, s.T = ProtoMtGv2, -1 })},
		{"Rounds", "Rounds", static(func(s *Spec) { s.Rounds = -3 })},
		{"LossRate NaN", "LossRate", static(func(s *Spec) { s.LossRate = math.NaN() })},
		{"LossRate 1", "LossRate", static(func(s *Spec) { s.LossRate = 1 })},
		{"LossRate negative", "LossRate", static(func(s *Spec) { s.LossRate = -0.1 })},
		{"dynamic T", "T", dyn(func(d *DynamicSpec) { d.T = -1 })},
		{"EpochRounds", "EpochRounds", dyn(func(d *DynamicSpec) { d.EpochRounds = -1 })},
		{"Epochs", "Epochs", dyn(func(d *DynamicSpec) { d.Epochs = -2 })},
	} {
		if c.err == nil || !strings.Contains(c.err.Error(), c.field) {
			t.Errorf("%s: error %v does not name %s", c.name, c.err, c.field)
		}
	}
	if generated != 0 {
		t.Errorf("%d scenarios or schedules generated before a spec was rejected", generated)
	}
}

// TestRedTeamCountsRejectedUpFront: a red-team spec's counts are checked by
// its constructor, before the search samples a topology or runs a unit —
// where a negative baseline used to panic on a worker goroutine.
func TestRedTeamCountsRejectedUpFront(t *testing.T) {
	for field, set := range map[string]func(*RedTeamSpec){
		"T":               func(s *RedTeamSpec) { s.T = -1 },
		"Budget":          func(s *RedTeamSpec) { s.Budget = -1 },
		"BaselineSamples": func(s *RedTeamSpec) { s.BaselineSamples = -2 },
		"Trials":          func(s *RedTeamSpec) { s.Trials = -1 },
		"Rounds":          func(s *RedTeamSpec) { s.Rounds = -5 },
		"Jobs":            func(s *RedTeamSpec) { s.Jobs = -1 },
	} {
		r := redTeamSpecForTest()
		sampled := 0
		topo := r.Topology
		r.Topology = func(rng *rand.Rand) (*graph.Graph, error) {
			sampled++
			return topo(rng)
		}
		set(&r)
		_, err := NewRedTeamRunner(r)
		if err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("%s: error %v does not name the field", field, err)
		}
		if sampled != 0 {
			t.Errorf("%s: topology sampled before the spec was rejected", field)
		}
	}
}

func TestNectarCostRunDeterministic(t *testing.T) {
	spec := Spec{
		Name: "cost", Protocol: ProtoNectar, Attack: AttackNone,
		T: 1, Trials: 3, Seed: 9,
		Scenario: Plain(hararyGen(4, 12)),
	}
	a, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.BytesPerNode.Mean != b.BytesPerNode.Mean {
		t.Errorf("same spec, different cost: %v vs %v", a.BytesPerNode.Mean, b.BytesPerNode.Mean)
	}
	if a.BytesPerNode.Mean <= 0 {
		t.Error("no traffic metered")
	}
	if a.Accuracy.Mean != 1.0 {
		t.Errorf("fault-free accuracy = %v, want 1", a.Accuracy.Mean)
	}
	// A deterministic topology gives identical per-trial costs: CI = 0.
	if a.BytesPerNode.CI95 != 0 {
		t.Errorf("deterministic topology, nonzero CI %v", a.BytesPerNode.CI95)
	}
}

func TestBridgeScenarioShape(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	fn := Bridge(20, 4, 6, 1.2, 2)
	sc, err := fn(rng)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Byz.Len() != 4 {
		t.Fatalf("placed %d byz, want 4", sc.Byz.Len())
	}
	// Equal distribution: 2 per part.
	inA := 0
	for b := range sc.Byz {
		if int(b) < 10 {
			inA++
		}
	}
	if inA != 2 {
		t.Errorf("byz in part A = %d, want 2", inA)
	}
	// The correct subgraph must be partitioned while the full graph is
	// bridged through Byzantine nodes.
	if sc.Graph.InducedSubgraphConnected(sc.Byz) {
		t.Error("correct subgraph should be partitioned")
	}
	// All cross-part edges are incident to a Byzantine node.
	for _, e := range sc.Graph.Edges() {
		if (int(e.U) < 10) != (int(e.V) < 10) {
			if !sc.Byz.Has(e.U) && !sc.Byz.Has(e.V) {
				t.Errorf("correct-correct bridge edge %v", e)
			}
		}
	}
	// Blocked side is part B for every byz.
	for b, blocked := range sc.Blocked {
		if blocked.Len() != 10 {
			t.Errorf("byz %v blocks %d nodes, want 10", b, blocked.Len())
		}
	}
	if sc.Byz.Len() > 0 && !sc.Graph.IsTByzPartitionable(4) {
		t.Error("bridge graph should be 4-Byzantine partitionable")
	}
}

func TestBridgeT0StaysPartitioned(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sc, err := Bridge(20, 0, 6, 1.2, 2)(rng)
	if err != nil {
		t.Fatal(err)
	}
	if !sc.Graph.IsPartitioned() {
		t.Error("t=0 bridge scenario should remain partitioned")
	}
}

func TestFig8NectarAlwaysRight(t *testing.T) {
	// The headline claim: NECTAR keeps 100% accuracy in the bridge attack
	// for every number of Byzantine nodes.
	for _, tb := range []int{0, 1, 2, 4} {
		spec := Spec{
			Protocol: ProtoNectar, Attack: AttackSplitBrain,
			T: tb, Trials: 4, Seed: 77,
			Scenario: Bridge(20, tb, 6, 1.2, 2),
		}
		res, err := Run(spec)
		if err != nil {
			t.Fatalf("t=%d: %v", tb, err)
		}
		if res.Accuracy.Mean != 1.0 {
			t.Errorf("t=%d: NECTAR accuracy %v, want 1.0", tb, res.Accuracy.Mean)
		}
		if res.Agreement.Mean != 1.0 {
			t.Errorf("t=%d: NECTAR agreement %v, want 1.0", tb, res.Agreement.Mean)
		}
	}
}

func TestFig8MtGPoisonCollapses(t *testing.T) {
	// Two poisoning Byzantine nodes (one per part) flip every correct
	// node to "connected" — accuracy 0 (paper: MtG drops to 0 at t=2).
	spec := Spec{
		Protocol: ProtoMtG, Attack: AttackPoison,
		T: 2, Trials: 4, Seed: 5,
		Scenario: Bridge(20, 2, 6, 1.2, 2),
	}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accuracy.Mean != 0 {
		t.Errorf("MtG accuracy under poison = %v, want 0", res.Accuracy.Mean)
	}
	// And with t=0 (no byz), MtG detects the partition fine.
	spec.T = 0
	spec.Attack = AttackNone
	spec.Scenario = Bridge(20, 0, 6, 1.2, 2)
	res, err = Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accuracy.Mean != 1.0 {
		t.Errorf("MtG fault-free accuracy = %v, want 1.0", res.Accuracy.Mean)
	}
}

func TestFig8MtGv2SplitsTheNetwork(t *testing.T) {
	// Split-brain Byzantine bridges leave part A believing the network is
	// connected and part B detecting the partition: accuracy ≈ |B|/n and
	// agreement broken (paper: "one Byzantine node is enough").
	spec := Spec{
		Protocol: ProtoMtGv2, Attack: AttackSplitBrain,
		T: 2, Trials: 6, Seed: 13,
		Scenario: Bridge(20, 2, 6, 1.2, 2),
	}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Agreement.Mean == 1.0 {
		t.Error("MtGv2 agreement should break under split-brain")
	}
	if res.Accuracy.Mean < 0.2 || res.Accuracy.Mean > 0.8 {
		t.Errorf("MtGv2 split accuracy = %v, want ≈0.5", res.Accuracy.Mean)
	}
}

func TestNectarSafetyUnderAllAttacks(t *testing.T) {
	// Def. 3 Safety: when the Byzantine nodes form a vertex cut (bridge
	// scenario), no correct node may decide NOT_PARTITIONABLE — under any
	// implemented attack.
	for _, atk := range []AttackKind{
		AttackNone, AttackCrash, AttackSplitBrain, AttackFakeEdges,
		AttackGarbage, AttackStale, AttackEquivocate, AttackOmitOwn,
	} {
		spec := Spec{
			Protocol: ProtoNectar, Attack: atk,
			T: 2, Trials: 3, Seed: 21,
			Scenario: Bridge(16, 2, 6, 1.2, 2),
		}
		res, err := Run(spec)
		if err != nil {
			t.Fatalf("%s: %v", atk, err)
		}
		// detected == true for every correct node ⇔ DetectRate 1.0.
		if res.DetectRate.Mean != 1.0 {
			t.Errorf("attack %s: some correct node decided NOT_PARTITIONABLE (detect=%v)",
				atk, res.DetectRate.Mean)
		}
	}
}

func TestNectarSensitivityUnderAttacks(t *testing.T) {
	// 2t-Sensitivity: κ(G) ≥ 2t forces NOT_PARTITIONABLE from every
	// correct node, even with t Byzantine nodes attacking (attacks that
	// cannot reduce perceived connectivity below t on a 2t-connected
	// graph: crash, splitbrain, garbage, stale).
	gen := hararyGen(4, 14) // κ = 4 = 2t
	for _, atk := range []AttackKind{AttackCrash, AttackSplitBrain, AttackGarbage, AttackStale} {
		spec := Spec{
			Protocol: ProtoNectar, Attack: atk,
			T: 2, Trials: 3, Seed: 31,
			Scenario: CutPlacement(gen, 2),
		}
		res, err := Run(spec)
		if err != nil {
			t.Fatalf("%s: %v", atk, err)
		}
		if res.DetectRate.Mean != 0 {
			t.Errorf("attack %s: PARTITIONABLE on a 2t-connected graph (detect=%v)",
				atk, res.DetectRate.Mean)
		}
		if res.Accuracy.Mean != 1.0 {
			t.Errorf("attack %s: accuracy %v", atk, res.Accuracy.Mean)
		}
	}
}

func TestNectarAgreementUnderAttacksRandomized(t *testing.T) {
	// Def. 3 Agreement under every attack across randomized connected
	// topologies: all correct nodes must reach the same decision whenever
	// the correct subgraph stays connected. CutPlacement on a 4-connected
	// graph with t=2 cannot disconnect correct nodes.
	gen := func(rng *rand.Rand) (*graph.Graph, error) {
		return topology.RandomRegularConnected(4, 12, rng)
	}
	for _, atk := range []AttackKind{
		AttackCrash, AttackSplitBrain, AttackFakeEdges, AttackGarbage,
		AttackStale, AttackEquivocate, AttackOmitOwn,
	} {
		spec := Spec{
			Protocol: ProtoNectar, Attack: atk,
			T: 2, Trials: 4, Seed: 41,
			Scenario: CutPlacement(gen, 2),
		}
		res, err := Run(spec)
		if err != nil {
			t.Fatalf("%s: %v", atk, err)
		}
		if res.Agreement.Mean != 1.0 {
			t.Errorf("attack %s broke agreement (%v)", atk, res.Agreement.Mean)
		}
	}
}

func TestCutPlacementUsesTheCut(t *testing.T) {
	// Star: the min cut is the center; CutPlacement with t=1 must select
	// it.
	fn := CutPlacement(func(*rand.Rand) (*graph.Graph, error) {
		return topology.Star(8), nil
	}, 1)
	sc, err := fn(rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	if !sc.Byz.Has(0) {
		t.Errorf("byz = %v, want the star center", sc.Byz.Sorted())
	}
	if sc.Blocked[0].Len() == 0 {
		t.Error("no blocked side chosen")
	}
}

func TestCutPlacementFallsBackToRandom(t *testing.T) {
	// K6 has no vertex cut; placement must still produce t byz and a
	// blocked half.
	fn := CutPlacement(func(*rand.Rand) (*graph.Graph, error) {
		return topology.Complete(6), nil
	}, 2)
	sc, err := fn(rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Byz.Len() != 2 {
		t.Errorf("byz count = %d, want 2", sc.Byz.Len())
	}
	for b := range sc.Byz {
		if sc.Blocked[b].Len() == 0 {
			t.Error("no blocked half")
		}
	}
}

// TestVerifyCacheMatchesUncachedTrials: the per-trial verification cache is
// a pure wall-clock optimization — every protocol's trials must score and
// meter identically against the uncached reference run, NECTAR's under
// every attack it defines: with the cache, correct nodes away from the
// Byzantine ones leave their relays for the first reader to sign.
func TestVerifyCacheMatchesUncachedTrials(t *testing.T) {
	assertTrialsMatchReference(t, "uncached", func(s *Spec) { s.noVerifyCache = true }, SupportedAttacks(ProtoNectar)...)
}

// TestEarlyExitMatchesFullHorizonTrials: quiescence early exit is a pure
// wall-clock optimization — every protocol's trials must score and meter
// identically against the run through all rounds (DESIGN.md §6).
func TestEarlyExitMatchesFullHorizonTrials(t *testing.T) {
	assertTrialsMatchReference(t, "full-horizon", func(s *Spec) { s.fullHorizon = true })
}

// assertTrialsMatchReference runs a Byzantine-bridge spec for each protocol
// as is and with mut applied, and fails unless every trial scores and
// meters the same. The Byzantine nodes run split-brain, and NECTAR's each
// of nectarAttacks instead when it names any.
func assertTrialsMatchReference(t *testing.T, name string, mut func(*Spec), nectarAttacks ...AttackKind) {
	t.Helper()
	if len(nectarAttacks) == 0 {
		nectarAttacks = []AttackKind{AttackSplitBrain}
	}
	type row struct {
		proto  ProtocolKind
		attack AttackKind
	}
	rows := []row{{ProtoMtG, AttackSplitBrain}, {ProtoMtGv2, AttackSplitBrain}}
	for _, a := range nectarAttacks {
		rows = append(rows, row{ProtoNectar, a})
	}
	for _, r := range rows {
		base := Spec{
			Protocol: r.proto, Attack: r.attack,
			T: 2, Trials: 4, Seed: 11,
			Scenario: Bridge(14, 2, 6, 1.8, 2),
		}
		got, err := Run(base)
		if err != nil {
			t.Fatalf("%s/%s: %v", r.proto, r.attack, err)
		}
		mut(&base)
		ref, err := Run(base)
		if err != nil {
			t.Fatalf("%s/%s/%s: %v", r.proto, r.attack, name, err)
		}
		for i := range ref.Trials {
			rt, g := ref.Trials[i], got.Trials[i]
			if rt.Accuracy != g.Accuracy || rt.Agreement != g.Agreement ||
				rt.MeanBytesPerNode != g.MeanBytesPerNode || rt.MaxBytesPerNode != g.MaxBytesPerNode ||
				rt.MeanBroadcastBytes != g.MeanBroadcastBytes {
				t.Errorf("%s/%s trial %d diverges from the %s reference:\nref: %+v\ngot: %+v", r.proto, r.attack, i, name, rt, g)
			}
		}
	}
}

func TestTruthFieldsComputed(t *testing.T) {
	// TwoTConnected: κ(K6)=5 ≥ 2·2 with T=2 → true; with T=0 → false
	// (degenerate case excluded).
	spec := Spec{
		Protocol: ProtoNectar, Attack: AttackNone, T: 2, Trials: 1, Seed: 1,
		Scenario: FixedGraph(topology.Complete(6)),
	}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Trials[0].Truth.TwoTConnected {
		t.Error("K6 with T=2 should be 2t-connected")
	}
	spec.T = 0
	res, err = Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trials[0].Truth.TwoTConnected {
		t.Error("T=0 must exclude the degenerate sensitivity case")
	}
}

func TestTruthByzEnclave(t *testing.T) {
	// Node 3 dangles off byz node 2 only... make byz 2 itself the
	// enclave: byz node 2's sole neighbor is byz node 1.
	g := graph.New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2) // byz 2 only connects to byz 1
	g.AddEdge(0, 3)
	scen := func(*rand.Rand) (*Scenario, error) {
		byz := idsSet(1, 2)
		return &Scenario{Graph: g, Byz: byz, Blocked: map[ids.NodeID]ids.Set{}}, nil
	}
	res, err := Run(Spec{
		Protocol: ProtoNectar, Attack: AttackCrash, T: 2, Trials: 1, Seed: 1,
		Scenario: scen,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Trials[0].Truth.ByzEnclave {
		t.Error("byz node 2 has no correct neighbor: enclave expected")
	}
}

func idsSet(members ...ids.NodeID) ids.Set { return ids.NewSet(members...) }
