package nectar

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// epochSeedStride mirrors internal/dynamic's per-epoch seed derivation;
// the equivalence test below fails if they drift apart.
const epochSeedStride = 0x9E3779B9

// TestStaticScheduleReproducesSimulate pins the acceptance criterion: on
// a static (empty) schedule every epoch of SimulateDynamic is an
// independent replay of Simulate — decisions, agreement, traffic and
// round accounting byte-for-byte, epoch e at seed Seed + e·stride.
func TestStaticScheduleReproducesSimulate(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	droneG, _, err := Drone(14, 2.5, 1.8, rng)
	if err != nil {
		t.Fatal(err)
	}
	hararyG, err := Harary(4, 12)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		g    *Graph
		t    int
		byz  map[NodeID]AttackKind
		blk  map[NodeID][]NodeID
	}{
		{"harary-clean", hararyG, 2, nil, nil},
		{"drone-clean", droneG, 1, nil, nil},
		{"harary-crash", hararyG, 2, map[NodeID]AttackKind{3: AttackCrash, 7: AttackCrash}, nil},
		{"harary-splitbrain", hararyG, 1, map[NodeID]AttackKind{2: AttackSplitBrain},
			map[NodeID][]NodeID{2: {8, 9, 10, 11}}},
		{"drone-fakeedges", droneG, 2, map[NodeID]AttackKind{0: AttackFakeEdges, 5: AttackFakeEdges}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const seed, epochs = 42, 3
			dyn, err := SimulateDynamic(DynamicConfig{
				Schedule:   StaticSchedule(tc.g),
				T:          tc.t,
				Seed:       seed,
				SchemeName: "hmac",
				Epochs:     epochs,
				Byzantine:  tc.byz,
				Blocked:    tc.blk,
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(dyn.Epochs) != epochs {
				t.Fatalf("epochs = %d, want %d", len(dyn.Epochs), epochs)
			}
			for e, ep := range dyn.Epochs {
				ref, err := Simulate(SimulationConfig{
					Graph:      tc.g,
					T:          tc.t,
					Seed:       seed + int64(e)*epochSeedStride,
					SchemeName: "hmac",
					Byzantine:  tc.byz,
					Blocked:    tc.blk,
				})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(ep.Outcomes, ref.Outcomes) {
					t.Errorf("epoch %d: outcomes diverge\n dyn %v\n ref %v", e, ep.Outcomes, ref.Outcomes)
				}
				if ep.Decision != ref.Decision || ep.Agreement != ref.Agreement || ep.Confirmed != ref.Confirmed {
					t.Errorf("epoch %d: decision/agreement/confirmed diverge: (%v,%v,%v) vs (%v,%v,%v)",
						e, ep.Decision, ep.Agreement, ep.Confirmed, ref.Decision, ref.Agreement, ref.Confirmed)
				}
				if !reflect.DeepEqual(ep.BytesSent, ref.BytesSent) {
					t.Errorf("epoch %d: BytesSent diverge", e)
				}
				if ep.Rounds != ref.Rounds || ep.ActiveRounds != ref.ActiveRounds {
					t.Errorf("epoch %d: rounds (%d,%d) vs (%d,%d)",
						e, ep.Rounds, ep.ActiveRounds, ref.Rounds, ref.ActiveRounds)
				}
				// Static schedule: ground truth is frozen too.
				if ep.TruthPartitionable != tc.g.IsTByzPartitionable(tc.t) {
					t.Errorf("epoch %d: truth %v diverges from κ ≤ t", e, ep.TruthPartitionable)
				}
			}
			if len(dyn.Flips) != 0 {
				t.Errorf("static schedule produced flips: %+v", dyn.Flips)
			}
		})
	}
}

// TestDroneMobilityCrossesThresholdWithFiniteLatency pins the acceptance
// criterion on the flagship dynamic workload: two squads drift apart
// until κ ≤ t, all correct nodes agree in every epoch, and the
// partitionability flip is detected with finite latency.
func TestDroneMobilityCrossesThresholdWithFiniteLatency(t *testing.T) {
	const (
		n     = 16
		tByz  = 2
		steps = 8
	)
	sched, err := DroneMobilitySchedule(MobilityConfig{
		N:          n,
		Radius:     1.8,
		StepRounds: n - 1, // one waypoint step per detection epoch
		Steps:      steps,
		Distance:   LinearDrift(0, 0.8),
	}, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := SimulateDynamic(DynamicConfig{
		Schedule:   sched,
		T:          tByz,
		Seed:       7,
		SchemeName: "hmac",
		// One epoch per waypoint step: once the squads fully separate the
		// diffs dry up, so the schedule horizon alone would under-count.
		Epochs: steps + 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Epochs) != steps+1 {
		t.Fatalf("epochs = %d, want %d", len(res.Epochs), steps+1)
	}
	for _, ep := range res.Epochs {
		if !ep.Agreement {
			t.Errorf("epoch %d: correct nodes disagree", ep.Epoch)
		}
		if len(ep.Outcomes) != n {
			t.Errorf("epoch %d: %d outcomes, want %d", ep.Epoch, len(ep.Outcomes), n)
		}
	}
	if res.Epochs[0].TruthPartitionable {
		t.Fatalf("epoch 0 (d=0) already partitionable (κ=%d ≤ %d); pick another seed",
			res.Epochs[0].Kappa, tByz)
	}
	last := res.Epochs[len(res.Epochs)-1]
	if !last.TruthPartitionable {
		t.Fatalf("final epoch (d=%.1f) still κ=%d > %d; the drift never crossed the threshold",
			float64(steps)*0.8, last.Kappa, tByz)
	}
	var crossing *DetectionFlip
	for i := range res.Flips {
		if res.Flips[i].ToPartitionable {
			crossing = &res.Flips[i]
			break
		}
	}
	if crossing == nil {
		t.Fatal("no flip to PARTITIONABLE recorded")
	}
	if crossing.Latency < 0 {
		t.Errorf("threshold crossing at epoch %d went undetected", crossing.Epoch)
	}
	// Waypoint steps are epoch-aligned and the detector re-runs NECTAR
	// from scratch each epoch, so the flip lands within that epoch.
	if crossing.Latency != 0 {
		t.Errorf("latency = %d epochs, want 0 for epoch-aligned mobility", crossing.Latency)
	}
}

// TestSimulateDynamicChurnExcludesAbsentNodes checks that churned-out
// nodes run no protocol and are excluded from outcomes and agreement.
func TestSimulateDynamicChurnExcludesAbsentNodes(t *testing.T) {
	hg, err := Harary(4, 10)
	if err != nil {
		t.Fatal(err)
	}
	// n=10 -> 9-round epochs starting at global rounds 1, 10, 19. Node 3
	// leaves during epoch 0 (round 5), is away at epoch 1's start, and
	// rejoins exactly at epoch 2's first round.
	sched := &EdgeSchedule{Base: hg, Events: []ScheduleEvent{
		{Round: 5, Kind: NodeLeave, Node: 3},
		{Round: 19, Kind: NodeJoin, Node: 3},
	}}
	res, err := SimulateDynamic(DynamicConfig{
		Schedule:   sched,
		T:          1,
		Seed:       11,
		SchemeName: "hmac",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Epochs) < 3 {
		t.Fatalf("epochs = %d, want >= 3", len(res.Epochs))
	}
	e0, e1, e2 := res.Epochs[0], res.Epochs[1], res.Epochs[2]
	if len(e0.Absent) != 0 || len(e0.Outcomes) != 10 {
		t.Errorf("epoch 0: absent %v, %d outcomes (node 3 leaves mid-epoch, counts from the next)",
			e0.Absent, len(e0.Outcomes))
	}
	if len(e1.Absent) != 1 || e1.Absent[0] != 3 {
		t.Errorf("epoch 1: absent = %v, want [p3]", e1.Absent)
	}
	if _, ok := e1.Outcomes[3]; ok {
		t.Error("epoch 1: absent node 3 must have no outcome")
	}
	if len(e2.Absent) != 0 || len(e2.Outcomes) != 10 {
		t.Errorf("epoch 2: absent %v, %d outcomes after rejoin", e2.Absent, len(e2.Outcomes))
	}
}

// TestSimulateDynamicAdaptiveByzantineSurvivesChurn: a coordinated
// adaptive Byzantine node that churns out must not keep steering the
// coalition — the epoch where it is absent runs it as Silent without
// joining the coordinator, and the whole run stays deterministic.
func TestSimulateDynamicAdaptiveByzantineSurvivesChurn(t *testing.T) {
	hg, err := Harary(4, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Byzantine node 3 is away for epoch 1 (rounds 10-18), back at 19.
	sched := &EdgeSchedule{Base: hg, Events: []ScheduleEvent{
		{Round: 5, Kind: NodeLeave, Node: 3},
		{Round: 19, Kind: NodeJoin, Node: 3},
	}}
	cfg := DynamicConfig{
		Schedule:   sched,
		T:          2,
		Seed:       11,
		SchemeName: "hmac",
		Byzantine:  map[NodeID]AttackKind{3: AttackAdaptive, 7: AttackPhased},
	}
	a, err := SimulateDynamic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Epochs) < 3 {
		t.Fatalf("epochs = %d, want >= 3", len(a.Epochs))
	}
	if len(a.Epochs[1].Absent) != 1 || a.Epochs[1].Absent[0] != 3 {
		t.Fatalf("epoch 1 absent = %v, want [p3]", a.Epochs[1].Absent)
	}
	b, err := SimulateDynamic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Epochs, b.Epochs) {
		t.Error("adaptive churn run is not deterministic across replays")
	}
}

// TestSimulateDynamicValidation: misconfigurations fail fast with
// actionable messages.
func TestSimulateDynamicValidation(t *testing.T) {
	g, err := Harary(4, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SimulateDynamic(DynamicConfig{T: 1}); err == nil {
		t.Error("nil schedule accepted")
	}
	if _, err := SimulateDynamic(DynamicConfig{
		Schedule: StaticSchedule(g), T: 1, SchemeName: "rot13",
	}); err == nil {
		t.Error("unknown scheme accepted")
	}
	if _, err := SimulateDynamic(DynamicConfig{
		Schedule: StaticSchedule(g), T: 1,
		Byzantine: map[NodeID]AttackKind{2: "mystery"},
	}); err == nil {
		t.Error("unknown behavior accepted")
	}
	if _, err := SimulateDynamic(DynamicConfig{
		Schedule: StaticSchedule(g), T: 1,
		Byzantine: map[NodeID]AttackKind{2: AttackCrash, 4: AttackCrash},
	}); err == nil {
		t.Error("2 Byzantine nodes with T=1 accepted")
	}
	if _, err := SimulateDynamic(DynamicConfig{Schedule: StaticSchedule(g), T: -1}); err == nil || err.Error() != "nectar: negative T -1" {
		t.Errorf("negative T: err = %v, want nectar: negative T -1", err)
	}
	if _, err := SimulateDynamic(DynamicConfig{Schedule: StaticSchedule(g), T: 1, Epochs: -1}); err == nil ||
		!strings.Contains(err.Error(), "negative Epochs -1") {
		t.Errorf("negative Epochs: err = %v, want it named", err)
	}
	if _, err := SimulateDynamic(DynamicConfig{Schedule: StaticSchedule(g), T: 1,
		Byzantine: map[NodeID]AttackKind{2: AttackSplitBrain}}); err == nil ||
		!strings.HasPrefix(err.Error(), "nectar: ") || !strings.Contains(err.Error(), "Blocked") {
		t.Errorf("split-brain without Blocked: err = %v, want a nectar: error naming Blocked", err)
	}
}
