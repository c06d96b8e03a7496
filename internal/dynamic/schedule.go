// Package dynamic grows the reproduction into a time-varying-network
// workload (DESIGN.md §7): the paper's flagship drone scenario (§V-B) is
// inherently mobile, and real deployments see link flapping and node
// churn, but NECTAR itself assumes a frozen graph. This package supplies
//
//   - EdgeSchedule: per-round edge up/down and node leave/join events
//     over a base graph, with a deterministic replay semantics;
//   - schedule generators: link flapping, Poisson node churn,
//     partition-then-heal, and drone-mobility schedules built on
//     internal/topology's waypoint model;
//   - Run: epoch-based re-detection — NECTAR (or any protocol stack) is
//     re-run in successive epochs over the evolving graph, scored against
//     per-epoch ground truth (κ vs t), and the detection latency of every
//     ground-truth partitionability flip is measured in epochs.
//
// Time is measured in the engine's synchronous rounds. Event rounds are
// global: epoch e of a Run covers global rounds e·R+1 .. (e+1)·R, and the
// rounds engine swaps adjacency at round boundaries via
// rounds.TopologyProvider, re-arming its quiescence early exit so a
// topology change wakes an otherwise-silent run.
package dynamic

import (
	"fmt"
	"sort"

	"github.com/nectar-repro/nectar/internal/graph"
	"github.com/nectar-repro/nectar/internal/ids"
)

// EventKind discriminates schedule events.
type EventKind uint8

// Schedule event kinds. Edge events edit the *desired* edge set; node
// events edit the *absent* set. The live graph at any round is the desired
// edge set restricted to present endpoints — so a node that leaves and
// rejoins automatically recovers exactly the edges that are still desired,
// and edge events that fire while an endpoint is absent take effect upon
// rejoin.
const (
	// EdgeUp adds Edge to the desired edge set.
	EdgeUp EventKind = iota + 1
	// EdgeDown removes Edge from the desired edge set.
	EdgeDown
	// NodeLeave marks Node absent: all its live edges drop, but they stay
	// desired (churn is edge removal over a fixed vertex set — the system
	// model keeps n constant).
	NodeLeave
	// NodeJoin marks Node present again, restoring its desired edges to
	// present endpoints.
	NodeJoin
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EdgeUp:
		return "edge-up"
	case EdgeDown:
		return "edge-down"
	case NodeLeave:
		return "node-leave"
	case NodeJoin:
		return "node-join"
	}
	return fmt.Sprintf("EventKind(%d)", uint8(k))
}

// Event is one scheduled topology change. It takes effect at the boundary
// before Round: messages of Round already route over the updated graph.
type Event struct {
	// Round is the 1-based global round at which the event applies.
	// Round-1 events are part of the initial topology.
	Round int
	// Kind selects the change.
	Kind EventKind
	// Edge is the affected edge (EdgeUp / EdgeDown).
	Edge graph.Edge
	// Node is the affected node (NodeLeave / NodeJoin).
	Node ids.NodeID
}

// EdgeSchedule is a time-varying topology: a base graph plus a
// round-ordered list of events. The zero schedule (no events) is the
// static network — replaying it reproduces Base at every round.
type EdgeSchedule struct {
	// Base is the round-0 topology. Required.
	Base *graph.Graph
	// Events lists the changes in non-decreasing Round order.
	Events []Event
}

// Static returns the schedule that never changes base.
func Static(base *graph.Graph) *EdgeSchedule {
	return &EdgeSchedule{Base: base}
}

// Validate checks structural invariants: a non-empty base, events sorted
// by round with Round >= 1, in-range normalized edges and in-range nodes.
func (s *EdgeSchedule) Validate() error {
	if s == nil || s.Base == nil {
		return fmt.Errorf("dynamic: schedule requires a base graph")
	}
	n := s.Base.N()
	if n == 0 {
		return fmt.Errorf("dynamic: empty base graph")
	}
	prev := 1
	for i, ev := range s.Events {
		if ev.Round < prev {
			return fmt.Errorf("dynamic: event %d at round %d out of order (want >= %d)", i, ev.Round, prev)
		}
		prev = ev.Round
		switch ev.Kind {
		case EdgeUp, EdgeDown:
			if ev.Edge.U >= ev.Edge.V || int(ev.Edge.V) >= n {
				return fmt.Errorf("dynamic: event %d: bad edge %v for n=%d (use graph.NewEdge)", i, ev.Edge, n)
			}
		case NodeLeave, NodeJoin:
			if int(ev.Node) >= n {
				return fmt.Errorf("dynamic: event %d: node %v out of range [0,%d)", i, ev.Node, n)
			}
		default:
			return fmt.Errorf("dynamic: event %d: unknown kind %v", i, ev.Kind)
		}
	}
	return nil
}

// Horizon returns the round of the last event (0 for a static schedule):
// from Horizon()+1 on, the topology is frozen.
func (s *EdgeSchedule) Horizon() int {
	if len(s.Events) == 0 {
		return 0
	}
	return s.Events[len(s.Events)-1].Round
}

// GraphAt replays the schedule and returns the live graph in effect
// during round (callers own the result). It panics on an invalid
// schedule; Validate first.
func (s *EdgeSchedule) GraphAt(round int) *graph.Graph {
	p := mustPlayer(s)
	p.AdvanceTo(round)
	return p.Graph()
}

// AbsentAt replays the schedule and returns the set of nodes absent
// during round (callers own the result).
func (s *EdgeSchedule) AbsentAt(round int) ids.Set {
	p := mustPlayer(s)
	p.AdvanceTo(round)
	return p.Absent()
}

// sortEvents orders evs by round, keeping the emission order of
// same-round events stable (generators rely on this).
func sortEvents(evs []Event) {
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Round < evs[j].Round })
}

// Player replays an EdgeSchedule incrementally. It maintains the desired
// edge set (edited by edge events), the absent node set (edited by node
// events), and the live graph (desired edges between present nodes),
// mutated in place as the cursor advances.
type Player struct {
	sched   *EdgeSchedule
	desired *graph.Graph
	live    *graph.Graph
	absent  ids.Set
	next    int // next event index to apply
	round   int // rounds <= round have been applied
}

// NewPlayer validates s and returns a cursor positioned before round 1
// (no events applied).
func NewPlayer(s *EdgeSchedule) (*Player, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &Player{
		sched:   s,
		desired: s.Base.Clone(),
		live:    s.Base.Clone(),
		absent:  ids.NewSet(),
	}, nil
}

func mustPlayer(s *EdgeSchedule) *Player {
	p, err := NewPlayer(s)
	if err != nil {
		panic(err)
	}
	return p
}

// AdvanceTo applies every event with Round <= round. The cursor only
// moves forward; calls with earlier rounds are no-ops.
func (p *Player) AdvanceTo(round int) {
	if round <= p.round {
		return
	}
	for p.next < len(p.sched.Events) && p.sched.Events[p.next].Round <= round {
		p.apply(p.sched.Events[p.next])
		p.next++
	}
	p.round = round
}

// Round returns the cursor position: all events up to and including this
// round have been applied.
func (p *Player) Round() int { return p.round }

// Graph returns the live graph at the cursor. It is mutated in place by
// subsequent AdvanceTo calls; Clone to retain a snapshot.
func (p *Player) Graph() *graph.Graph { return p.live }

// Absent returns the nodes currently absent. Shared with the player;
// Clone to retain a snapshot.
func (p *Player) Absent() ids.Set { return p.absent }

// NextChange returns the round of the first event after `after`, or 0 if
// none — the rounds.TopologyProvider re-arm contract, over global rounds.
func (p *Player) NextChange(after int) int {
	// Events before the cursor are already folded into the live graph;
	// search from the first unapplied event.
	for i := p.next; i < len(p.sched.Events); i++ {
		if p.sched.Events[i].Round > after {
			return p.sched.Events[i].Round
		}
	}
	return 0
}

func (p *Player) apply(ev Event) {
	switch ev.Kind {
	case EdgeUp:
		p.desired.AddEdge(ev.Edge.U, ev.Edge.V)
		if !p.absent.Has(ev.Edge.U) && !p.absent.Has(ev.Edge.V) {
			p.live.AddEdge(ev.Edge.U, ev.Edge.V)
		}
	case EdgeDown:
		p.desired.RemoveEdge(ev.Edge.U, ev.Edge.V)
		p.live.RemoveEdge(ev.Edge.U, ev.Edge.V)
	case NodeLeave:
		if p.absent.Has(ev.Node) {
			return
		}
		p.absent.Add(ev.Node)
		// Copy: RemoveEdge edits the neighbor list under iteration.
		for _, nb := range append([]ids.NodeID(nil), p.live.Neighbors(ev.Node)...) {
			p.live.RemoveEdge(ev.Node, nb)
		}
	case NodeJoin:
		if !p.absent.Has(ev.Node) {
			return
		}
		p.absent.Remove(ev.Node)
		for _, nb := range p.desired.Neighbors(ev.Node) {
			if !p.absent.Has(nb) {
				p.live.AddEdge(ev.Node, nb)
			}
		}
	}
}

// window advances p to global round offset+1 and returns the provider for
// the epoch that starts there, over a snapshot of p, so that one cursor
// serves every epoch of a run: it moves on to the next epoch's start while
// this one's engine reads its own copy. The snapshot's graphs are the base
// graph's clones edited to p's, as a replay from round 0 leaves them — with
// the base's list capacity, so that an edge the epoch restores costs no
// allocation — in O(n+m) rather than O(events).
func (p *Player) window(offset int) *Window {
	p.AdvanceTo(offset + 1)
	snap := *p
	snap.desired, snap.live, snap.absent = matching(p.sched.Base, p.desired), matching(p.sched.Base, p.live), p.absent.Clone()
	return &Window{p: &snap, offset: offset}
}

// matching returns a clone of base edited to have exactly g's edges.
func matching(base, g *graph.Graph) *graph.Graph {
	c := base.Clone()
	for u := 0; u < base.N(); u++ {
		uu := ids.NodeID(u)
		for _, v := range base.Neighbors(uu) {
			if uu < v && !g.HasEdge(uu, v) {
				c.RemoveEdge(uu, v)
			}
		}
		for _, v := range g.Neighbors(uu) {
			if uu < v && !base.HasEdge(uu, v) {
				c.AddEdge(uu, v)
			}
		}
	}
	return c
}

// Window adapts a player to one epoch's local round numbering: the engine
// sees local rounds 1..R mapped onto global rounds offset+1..offset+R.
// It implements rounds.TopologyProvider.
type Window struct {
	p      *Player
	offset int
}

// WindowAt returns a provider for the epoch whose first round is global
// round offset+1, advanced to that round (epoch-boundary events applied).
func WindowAt(s *EdgeSchedule, offset int) (*Window, error) {
	p, err := NewPlayer(s)
	if err != nil {
		return nil, err
	}
	p.AdvanceTo(offset + 1)
	return &Window{p: p, offset: offset}, nil
}

// GraphFor implements rounds.TopologyProvider over local rounds.
func (w *Window) GraphFor(round int) *graph.Graph {
	w.p.AdvanceTo(w.offset + round)
	return w.p.Graph()
}

// NextChange implements rounds.TopologyProvider over local rounds.
func (w *Window) NextChange(after int) int {
	r := w.p.NextChange(w.offset + after)
	if r == 0 {
		return 0
	}
	return r - w.offset
}
