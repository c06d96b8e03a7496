package adversary

import (
	"reflect"
	"testing"

	"github.com/nectar-repro/nectar/internal/ids"
	"github.com/nectar-repro/nectar/internal/rounds"
)

// scriptedProto emits a fixed batch per round and tracks deliveries.
type scriptedProto struct {
	byRound map[int][]rounds.Send
	quiet   bool
}

func (p *scriptedProto) Emit(round int) []rounds.Send    { return p.byRound[round] }
func (p *scriptedProto) Deliver(int, ids.NodeID, []byte) {}
func (p *scriptedProto) Quiescent() bool                 { return p.quiet }

func sends(tos ...ids.NodeID) []rounds.Send {
	out := make([]rounds.Send, len(tos))
	for i, to := range tos {
		out[i] = rounds.Send{To: []ids.NodeID{to}, Data: []byte{byte(to)}}
	}
	return out
}

func tos(batch []rounds.Send) []ids.NodeID {
	out := []ids.NodeID{}
	for _, s := range batch {
		out = s.Recipients(out)
	}
	return out
}

func TestAdaptiveStaleDelaysOneRound(t *testing.T) {
	inner := &scriptedProto{byRound: map[int][]rounds.Send{
		1: sends(1, 2),
		2: sends(3),
	}}
	c := NewCoordinator()
	a := c.Join(inner, 0, []ids.NodeID{1, 2, 3}, func(int) Action { return ActStale })
	if got := a.Emit(1); len(got) != 0 {
		t.Errorf("round 1 emitted %v, want nothing (held back)", tos(got))
	}
	if a.Quiescent() {
		t.Error("quiescent while holding delayed output")
	}
	if got := tos(a.Emit(2)); !reflect.DeepEqual(got, []ids.NodeID{1, 2}) {
		t.Errorf("round 2 emitted %v, want the delayed round-1 batch", got)
	}
	if got := tos(a.Emit(3)); !reflect.DeepEqual(got, []ids.NodeID{3}) {
		t.Errorf("round 3 emitted %v, want the delayed round-2 batch", got)
	}
}

func TestAdaptiveCorrectFlushesHeld(t *testing.T) {
	inner := &scriptedProto{byRound: map[int][]rounds.Send{
		1: sends(1),
		2: sends(2),
	}}
	sched := func(round int) Action {
		if round == 1 {
			return ActStale
		}
		return ActCorrect
	}
	c := NewCoordinator()
	a := c.Join(inner, 0, []ids.NodeID{1, 2}, sched)
	a.Emit(1) // held
	if got := tos(a.Emit(2)); !reflect.DeepEqual(got, []ids.NodeID{1, 2}) {
		t.Errorf("round 2 emitted %v, want held round-1 batch then fresh", got)
	}
}

func TestAdaptiveSilentDropsFreshKeepsHeld(t *testing.T) {
	inner := &scriptedProto{byRound: map[int][]rounds.Send{
		1: sends(1),
		2: sends(2),
		3: nil,
	}}
	actions := map[int]Action{1: ActStale, 2: ActSilent, 3: ActCorrect}
	c := NewCoordinator()
	a := c.Join(inner, 0, []ids.NodeID{1, 2}, func(r int) Action { return actions[r] })
	a.Emit(1)                            // round 1 held
	if got := a.Emit(2); len(got) != 0 { // round 2 dropped, round 1 still held
		t.Errorf("silent round emitted %v", tos(got))
	}
	if got := tos(a.Emit(3)); !reflect.DeepEqual(got, []ids.NodeID{1}) {
		t.Errorf("round 3 emitted %v, want the surviving held batch", got)
	}
}

func TestCoordinatedEquivocationPicksLeastInformedHalf(t *testing.T) {
	inner := &scriptedProto{byRound: map[int][]rounds.Send{
		2: sends(1, 2, 3, 4),
	}}
	c := NewCoordinator()
	a := c.Join(inner, 0, []ids.NodeID{1, 2, 3, 4}, AlwaysEquivocate())
	// Round 1: hear twice from 1 and 2, once from 3, never from 4.
	a.Deliver(1, 1, nil)
	a.Deliver(1, 1, nil)
	a.Deliver(1, 2, nil)
	a.Deliver(1, 2, nil)
	a.Deliver(1, 3, nil)
	// Round 2: victims = least-informed half of {1,2,3,4} = {4, 3}.
	got := tos(a.Emit(2))
	if !reflect.DeepEqual(got, []ids.NodeID{1, 2}) {
		t.Errorf("equivocation kept %v, want only the informed half {1,2}", got)
	}
	if !c.isVictim(4) || !c.isVictim(3) || c.isVictim(1) {
		t.Errorf("victim set wrong: %v", c.victims.Sorted())
	}
}

func TestCoalitionSharesVictimsAndSparesMembers(t *testing.T) {
	// Two members: 0 (neighbors 1,2,9) and 9 (neighbors 0,3,4). Member 9
	// never victimizes member 0, and member 0's victim choice applies to
	// member 9's sends too (shared victim set).
	innerA := &scriptedProto{byRound: map[int][]rounds.Send{2: sends(1, 2, 9)}}
	innerB := &scriptedProto{byRound: map[int][]rounds.Send{2: sends(0, 3, 4)}}
	c := NewCoordinator()
	a := c.Join(innerA, 0, []ids.NodeID{1, 2, 9}, AlwaysEquivocate())
	b := c.Join(innerB, 9, []ids.NodeID{0, 3, 4}, AlwaysEquivocate())
	// Member 0 heard from 2 but not 1; member 9 heard from 4 but not 3.
	a.Deliver(1, 2, nil)
	b.Deliver(1, 4, nil)
	// Victim halves: member 0 → {1}, member 9 → {3}; union {1,3}.
	if got := tos(a.Emit(2)); !reflect.DeepEqual(got, []ids.NodeID{2, 9}) {
		t.Errorf("member 0 kept %v, want {2,9} (victims 1,3 shared)", got)
	}
	if got := tos(b.Emit(2)); !reflect.DeepEqual(got, []ids.NodeID{0, 4}) {
		t.Errorf("member 9 kept %v, want {0,4}: member 0 spared, victim 3 dropped", got)
	}
}

func TestAdvanceRunsOncePerRound(t *testing.T) {
	inner := &scriptedProto{byRound: map[int][]rounds.Send{}}
	c := NewCoordinator()
	a := c.Join(inner, 0, []ids.NodeID{1, 2}, AlwaysEquivocate())
	a.Emit(1)
	v1 := c.victims
	// New observations mid-round must not reshuffle the current round's
	// victim set (it is recomputed only at the next round boundary).
	a.Deliver(1, 1, nil)
	a.Emit(1)
	if !reflect.DeepEqual(c.victims, v1) {
		t.Error("victim set recomputed within a round")
	}
	a.Emit(2)
	if reflect.DeepEqual(c.victims.Sorted(), v1.Sorted()) && c.round != 2 {
		t.Error("advance did not move to round 2")
	}
}

func TestAdaptiveQuiescenceIsHonest(t *testing.T) {
	inner := &scriptedProto{byRound: map[int][]rounds.Send{1: sends(1)}}
	c := NewCoordinator()
	a := c.Join(inner, 0, []ids.NodeID{1}, func(int) Action { return ActStale })
	if a.Quiescent() {
		t.Error("quiescent before the run with a non-quiescent inner")
	}
	a.Emit(1) // holds the round-1 batch
	inner.quiet = true
	if a.Quiescent() {
		t.Error("quiescent with held output: a scheduled replay would be lost")
	}
	a.Emit(2) // releases it
	if !a.Quiescent() {
		t.Error("not quiescent after the buffer drained and inner went quiet")
	}
}

func TestScheduleShapes(t *testing.T) {
	s := StaleThenEquivocate(4)
	for r, want := range map[int]Action{1: ActStale, 3: ActStale, 4: ActEquivocate, 9: ActEquivocate} {
		if got := s(r); got != want {
			t.Errorf("StaleThenEquivocate(4)(%d) = %v, want %v", r, got, want)
		}
	}
	if AlwaysEquivocate()(7) != ActEquivocate {
		t.Error("AlwaysEquivocate should always equivocate")
	}
}
