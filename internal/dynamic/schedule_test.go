package dynamic

import (
	"math"
	"math/rand"
	"testing"

	"github.com/nectar-repro/nectar/internal/graph"
	"github.com/nectar-repro/nectar/internal/ids"
	"github.com/nectar-repro/nectar/internal/topology"
)

func ring(n int) *graph.Graph { return topology.Ring(n) }

func TestStaticScheduleReproducesBase(t *testing.T) {
	base := ring(6)
	s := Static(base)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Horizon() != 0 {
		t.Errorf("Horizon = %d, want 0", s.Horizon())
	}
	for _, r := range []int{1, 2, 100} {
		if !s.GraphAt(r).Equal(base) {
			t.Errorf("GraphAt(%d) differs from base", r)
		}
		if s.AbsentAt(r).Len() != 0 {
			t.Errorf("AbsentAt(%d) non-empty", r)
		}
	}
}

func TestEdgeEventsEditLiveGraph(t *testing.T) {
	base := ring(4) // 0-1-2-3-0
	s := &EdgeSchedule{Base: base, Events: []Event{
		{Round: 3, Kind: EdgeDown, Edge: graph.NewEdge(0, 1)},
		{Round: 5, Kind: EdgeUp, Edge: graph.NewEdge(0, 2)},
		{Round: 7, Kind: EdgeUp, Edge: graph.NewEdge(0, 1)},
	}}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if g := s.GraphAt(2); !g.Equal(base) {
		t.Error("round 2 should still be the base graph")
	}
	g3 := s.GraphAt(3)
	if g3.HasEdge(0, 1) || g3.M() != 3 {
		t.Errorf("round 3: edge 0-1 should be down, got %v", g3)
	}
	g5 := s.GraphAt(5)
	if g5.HasEdge(0, 1) || !g5.HasEdge(0, 2) {
		t.Errorf("round 5: want 0-2 up and 0-1 down, got %v", g5)
	}
	g7 := s.GraphAt(7)
	if !g7.HasEdge(0, 1) || !g7.HasEdge(0, 2) || g7.M() != 5 {
		t.Errorf("round 7: want both up, got %v", g7)
	}
}

func TestNodeLeaveDropsEdgesAndJoinRestoresDesired(t *testing.T) {
	base := ring(5)
	s := &EdgeSchedule{Base: base, Events: []Event{
		{Round: 2, Kind: NodeLeave, Node: 0},
		// While 0 is away, its desired edge to 1 goes down for good.
		{Round: 4, Kind: EdgeDown, Edge: graph.NewEdge(0, 1)},
		{Round: 6, Kind: NodeJoin, Node: 0},
	}}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	g2 := s.GraphAt(2)
	if g2.Degree(0) != 0 {
		t.Errorf("round 2: node 0 should be isolated, degree %d", g2.Degree(0))
	}
	if got := s.AbsentAt(2).Sorted(); len(got) != 1 || got[0] != 0 {
		t.Errorf("round 2: absent = %v, want [p0]", got)
	}
	g6 := s.GraphAt(6)
	if g6.HasEdge(0, 1) {
		t.Error("round 6: edge 0-1 went down while absent, must not return on join")
	}
	if !g6.HasEdge(0, 4) {
		t.Error("round 6: edge 0-4 must be restored on join")
	}
	if s.AbsentAt(6).Len() != 0 {
		t.Error("round 6: nobody should be absent")
	}
}

func TestLeaveOfBothEndpointsThenStaggeredJoin(t *testing.T) {
	base := ring(4)
	s := &EdgeSchedule{Base: base, Events: []Event{
		{Round: 2, Kind: NodeLeave, Node: 0},
		{Round: 2, Kind: NodeLeave, Node: 1},
		{Round: 4, Kind: NodeJoin, Node: 0},
		{Round: 6, Kind: NodeJoin, Node: 1},
	}}
	g4 := s.GraphAt(4)
	if g4.HasEdge(0, 1) {
		t.Error("round 4: 1 still absent, edge 0-1 must stay down")
	}
	if !g4.HasEdge(0, 3) {
		t.Error("round 4: edge 0-3 must be restored")
	}
	g6 := s.GraphAt(6)
	if !g6.Equal(base) {
		t.Errorf("round 6: graph should be fully restored, got %v", g6)
	}
}

func TestValidateRejectsBadSchedules(t *testing.T) {
	base := ring(4)
	cases := []struct {
		name string
		s    *EdgeSchedule
	}{
		{"nil base", &EdgeSchedule{}},
		{"unsorted", &EdgeSchedule{Base: base, Events: []Event{
			{Round: 5, Kind: EdgeDown, Edge: graph.NewEdge(0, 1)},
			{Round: 2, Kind: EdgeUp, Edge: graph.NewEdge(0, 1)},
		}}},
		{"round zero", &EdgeSchedule{Base: base, Events: []Event{
			{Round: 0, Kind: EdgeDown, Edge: graph.NewEdge(0, 1)},
		}}},
		{"edge out of range", &EdgeSchedule{Base: base, Events: []Event{
			{Round: 2, Kind: EdgeUp, Edge: graph.Edge{U: 1, V: 9}},
		}}},
		{"denormalized edge", &EdgeSchedule{Base: base, Events: []Event{
			{Round: 2, Kind: EdgeUp, Edge: graph.Edge{U: 2, V: 1}},
		}}},
		{"node out of range", &EdgeSchedule{Base: base, Events: []Event{
			{Round: 2, Kind: NodeLeave, Node: 11},
		}}},
		{"unknown kind", &EdgeSchedule{Base: base, Events: []Event{
			{Round: 2, Kind: EventKind(99)},
		}}},
	}
	for _, tc := range cases {
		if err := tc.s.Validate(); err == nil {
			t.Errorf("%s: Validate accepted", tc.name)
		}
	}
}

func TestPlayerNextChangeAndWindow(t *testing.T) {
	base := ring(4)
	s := &EdgeSchedule{Base: base, Events: []Event{
		{Round: 4, Kind: EdgeDown, Edge: graph.NewEdge(0, 1)},
		{Round: 9, Kind: EdgeUp, Edge: graph.NewEdge(0, 1)},
	}}
	p, err := NewPlayer(s)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.NextChange(1); got != 4 {
		t.Errorf("NextChange(1) = %d, want 4", got)
	}
	if got := p.NextChange(4); got != 9 {
		t.Errorf("NextChange(4) = %d, want 9", got)
	}
	if got := p.NextChange(9); got != 0 {
		t.Errorf("NextChange(9) = %d, want 0", got)
	}

	// A window starting at global round 6 (offset 5) sees the round-9
	// event as local round 4.
	w, err := WindowAt(s, 5)
	if err != nil {
		t.Fatal(err)
	}
	if w.GraphFor(1).HasEdge(0, 1) {
		t.Error("window round 1 (global 6): edge 0-1 should be down")
	}
	if got := w.NextChange(1); got != 4 {
		t.Errorf("window NextChange(1) = %d, want 4 (global 9)", got)
	}
	if !w.GraphFor(4).HasEdge(0, 1) {
		t.Error("window round 4 (global 9): edge 0-1 should be back")
	}
}

func TestFlappingIsDeterministicAndBounded(t *testing.T) {
	base := topology.Complete(8)
	gen := func() *EdgeSchedule {
		s, err := Flapping(base, 0.2, 0.5, 40, rand.New(rand.NewSource(11)))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := gen(), gen()
	if len(a.Events) != len(b.Events) {
		t.Fatalf("non-deterministic: %d vs %d events", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a.Events[i], b.Events[i])
		}
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(a.Events) == 0 {
		t.Error("flapping at 20%/round produced no events")
	}
	if a.Horizon() > 40 {
		t.Errorf("event beyond horizon: %d", a.Horizon())
	}
	// The replayed graph never gains edges the base lacks.
	for r := 1; r <= 40; r += 7 {
		g := a.GraphAt(r)
		for _, e := range g.Edges() {
			if !base.HasEdge(e.U, e.V) {
				t.Fatalf("round %d: foreign edge %v", r, e)
			}
		}
	}
	for _, p := range [][2]float64{{-0.1, 0.5}, {0.2, 1.1}, {math.NaN(), 0.5}, {0.2, math.NaN()}} {
		if _, err := Flapping(base, p[0], p[1], 40, rand.New(rand.NewSource(11))); err == nil {
			t.Errorf("Flapping(down=%v, up=%v) accepted", p[0], p[1])
		}
	}
}

func TestPoissonChurnKeepsLeaveJoinAlternating(t *testing.T) {
	base := topology.Complete(10)
	for _, p := range [][2]float64{{-0.1, 5}, {1.1, 5}, {math.NaN(), 5}, {0.05, 0.5}, {0.05, math.NaN()}} {
		if _, err := PoissonChurn(base, p[0], p[1], 60, rand.New(rand.NewSource(3))); err == nil {
			t.Errorf("PoissonChurn(leave=%v, downtime=%v) accepted", p[0], p[1])
		}
	}
	s, err := PoissonChurn(base, 0.05, 5, 60, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(s.Events) == 0 {
		t.Fatal("churn produced no events")
	}
	absent := map[ids.NodeID]bool{}
	for _, ev := range s.Events {
		switch ev.Kind {
		case NodeLeave:
			if absent[ev.Node] {
				t.Fatalf("double leave of %v", ev.Node)
			}
			absent[ev.Node] = true
		case NodeJoin:
			if !absent[ev.Node] {
				t.Fatalf("join of present %v", ev.Node)
			}
			absent[ev.Node] = false
		default:
			t.Fatalf("unexpected kind %v", ev.Kind)
		}
	}
}

func TestPartitionHealCutsAndRestores(t *testing.T) {
	base := topology.Complete(6)
	s, err := PartitionHeal(base, 5, 12)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if g := s.GraphAt(4); !g.Equal(base) {
		t.Error("before the cut the base graph must be intact")
	}
	if g := s.GraphAt(5); g.IsConnected() {
		t.Error("after the cut the graph must be partitioned")
	}
	if g := s.GraphAt(12); !g.Equal(base) {
		t.Error("after the heal the base graph must be restored")
	}
	if _, err := PartitionHeal(base, 5, 5); err == nil {
		t.Error("heal at the cut round accepted")
	}
}

func TestDroneMobilityDiffsConsecutiveGeometricGraphs(t *testing.T) {
	cfg := MobilityConfig{
		N:          14,
		Radius:     1.8,
		StepRounds: 5,
		Steps:      6,
		Distance:   LinearDrift(0.5, 1.0),
	}
	s, err := DroneMobility(cfg, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(s.Events) == 0 {
		t.Fatal("drifting squads produced no edge events")
	}
	// Separation grows from 0.5 to 6.5: the two rigid squads must
	// eventually disconnect.
	last := s.GraphAt(6*5 + 1)
	if last.IsConnected() {
		t.Error("fleet still connected after drifting 6.5 apart with radius 1.8")
	}
	// Determinism under a fixed seed.
	s2, err := DroneMobility(cfg, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Events) != len(s2.Events) {
		t.Fatalf("non-deterministic mobility: %d vs %d events", len(s.Events), len(s2.Events))
	}
	for i := range s.Events {
		if s.Events[i] != s2.Events[i] {
			t.Fatalf("event %d differs", i)
		}
	}
}
