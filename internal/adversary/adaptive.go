package adversary

import (
	"slices"
	"sort"
	"sync"

	"github.com/nectar-repro/nectar/internal/ids"
	"github.com/nectar-repro/nectar/internal/rounds"
)

// Adaptive adversaries (DESIGN.md §8): unlike the stateless scripts above,
// a coordinated adversary's nodes share state and choose their per-round
// action from what they *observe* — equivocation victims are picked each
// round from the traffic received so far, and actions compose into
// schedules (stale-then-equivocate). The controller is deterministic:
// identical runs produce identical attacks bit for bit.
//
// Determinism under the parallel engine: Emit is called concurrently
// across nodes, so shared state is advanced at most once per round, under
// a mutex, by whichever equivocating member's Emit arrives first. The
// merge reads only observation buffers written during earlier rounds'
// Deliver phase (the engine's phase barriers order those writes before any
// Emit of the next round) and iterates members in sorted-ID order, so the
// merged result is independent of which goroutine happened to trigger it.

// Action is one per-round primitive of an adaptive schedule.
type Action int

// The composable per-round actions.
const (
	// ActCorrect runs the wrapped protocol faithfully (releasing any
	// output held back by an earlier ActStale).
	ActCorrect Action = iota
	// ActSilent suppresses all output this round (held output stays
	// queued; the node keeps listening and learning).
	ActSilent
	// ActStale holds this round's output back one round — the stale-chain
	// deviation, now schedulable.
	ActStale
	// ActEquivocate sends everything except to the coordinator's current
	// victim set: the least-informed correct neighbors, chosen per round
	// from observed traffic, are kept in the dark.
	ActEquivocate
)

// Schedule maps a round to the action every coordinated node applies.
// Schedules must be pure functions of the round number (determinism).
type Schedule func(round int) Action

// AlwaysEquivocate equivocates every round — the purely observation-driven
// adaptive attack.
func AlwaysEquivocate() Schedule {
	return func(int) Action { return ActEquivocate }
}

// PhasedSwitchRound is the conventional switch point of the phased
// (stale-then-equivocate) schedule: one third of the run's horizon, but
// never before round 2 (round 1 is the announcement round the stale
// deviation targets).
func PhasedSwitchRound(horizon int) int {
	s := horizon / 3
	if s < 2 {
		s = 2
	}
	return s
}

// StaleThenEquivocate plays the stale-chain deviation until switchRound
// (exclusive), then switches to adaptive equivocation: first degrade
// freshness, then exploit the knowledge disparities the delay created.
func StaleThenEquivocate(switchRound int) Schedule {
	return func(round int) Action {
		if round < switchRound {
			return ActStale
		}
		return ActEquivocate
	}
}

// Coordinator is the shared brain of one coordinated adversary: all its
// Adaptive members report observations to it, and once per round it
// recomputes the victim set they all act on.
type Coordinator struct {
	mu      sync.Mutex
	round   int // last round victims were computed for
	members []*Adaptive
	byID    map[ids.NodeID]bool
	victims ids.Set
}

// NewCoordinator builds an empty controller. Members join before the run
// starts via Join; the adversary draws no randomness (victim choice is a
// deterministic function of observations, ties broken by node ID).
func NewCoordinator() *Coordinator {
	return &Coordinator{byID: make(map[ids.NodeID]bool), victims: ids.NewSet()}
}

// Join wraps inner as a coordinated member at node me with the given
// neighborhood and schedule. All members of one Coordinator share
// observations and the per-round victim set.
func (c *Coordinator) Join(inner rounds.Protocol, me ids.NodeID, neighbors []ids.NodeID, sched Schedule) *Adaptive {
	a := &Adaptive{
		coord: c,
		inner: inner,
		me:    me,
		nbrs:  append([]ids.NodeID(nil), neighbors...),
		sched: sched,
		recv:  make([]int, len(neighbors)),
	}
	sort.Slice(a.nbrs, func(i, j int) bool { return a.nbrs[i] < a.nbrs[j] })
	c.members = append(c.members, a)
	c.byID[me] = true
	sort.Slice(c.members, func(i, j int) bool { return c.members[i].me < c.members[j].me })
	return a
}

// advance recomputes the victim set for round r. The first equivocating
// member Emit of the round triggers the computation; later calls see it
// done. Victims depend only on observations, not on earlier victim sets, so
// rounds no member equivocates in are skipped.
func (c *Coordinator) advance(r int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.round >= r {
		return
	}
	c.round = r
	victims := ids.NewSet()
	for _, m := range c.members { // sorted by ID: deterministic
		for _, v := range m.victimHalf() {
			victims.Add(v)
		}
	}
	c.victims = victims
}

// isVictim reports whether `to` is stonewalled this round. Called from
// member Emits after their advance call returned, so the set is stable.
func (c *Coordinator) isVictim(to ids.NodeID) bool { return c.victims.Has(to) }

// Adaptive is one coordinated member: a filter/delay wrapper over a
// correct protocol stack whose per-round action comes from the shared
// schedule and whose equivocation victims come from the Coordinator.
// It never fabricates messages — every byte it sends was produced by the
// wrapped protocol — which is what makes its quiescence attestation
// honest (see Quiescent).
type Adaptive struct {
	coord *Coordinator
	inner rounds.Protocol
	me    ids.NodeID
	nbrs  []ids.NodeID
	sched Schedule
	held  []rounds.Send
	// ActStale copies each batch it holds into bufs[next] and flips next:
	// the buffer it writes is never the held one it returns that round,
	// so it was returned in an earlier round, whose delivery is over.
	bufs [2]sendArena
	next int
	// lists holds the recipient lists an equivocating round filters.
	lists listFilter
	// recv[i] counts messages received from nbrs[i], cumulatively. Written
	// only by this node's Deliver (engine phases order those writes
	// before the next round's reads).
	recv []int
}

var _ rounds.Protocol = (*Adaptive)(nil)

// victimHalf ranks this member's correct neighbors by observed traffic
// (ascending, ties by ID) and returns the least-informed half: neighbors
// we heard little from are the cheapest to keep in the dark. Fellow
// members are never victimized — the coalition keeps its own channels.
func (a *Adaptive) victimHalf() []ids.NodeID {
	correct := make([]ids.NodeID, 0, len(a.nbrs))
	for _, v := range a.nbrs {
		if !a.coord.byID[v] {
			correct = append(correct, v)
		}
	}
	sort.SliceStable(correct, func(i, j int) bool {
		ci, cj := a.received(correct[i]), a.received(correct[j])
		if ci != cj {
			return ci < cj
		}
		return correct[i] < correct[j]
	})
	return correct[:len(correct)/2]
}

// received is how many messages neighbor v has sent this node.
func (a *Adaptive) received(v ids.NodeID) int {
	i, _ := slices.BinarySearch(a.nbrs, v)
	return a.recv[i]
}

// flush returns and clears the held-back output.
func (a *Adaptive) flush() []rounds.Send {
	out := a.held
	a.held = nil
	return out
}

// Emit implements rounds.Protocol.
func (a *Adaptive) Emit(round int) []rounds.Send {
	out := a.inner.Emit(round)
	switch a.sched(round) {
	case ActSilent:
		// Drop this round's fresh output; held output stays queued (the
		// node may release it in a later ActCorrect/ActEquivocate round).
		return nil
	case ActStale:
		prev := a.held
		// Held across one or more round boundaries (a later ActSilent can
		// extend the delay): copy, since the inner protocol reuses its
		// encode arena (rounds.Protocol buffer contract).
		a.held = a.bufs[a.next].copySends(out)
		a.next ^= 1
		return prev
	case ActEquivocate:
		a.coord.advance(round) // only an equivocating round needs victims
		return a.lists.apply(append(a.flush(), out...), func(to ids.NodeID) bool { return !a.coord.isVictim(to) })
	}
	return append(a.flush(), out...) // ActCorrect
}

// Deliver implements rounds.Protocol.
func (a *Adaptive) Deliver(round int, from ids.NodeID, data []byte) {
	if i, ok := slices.BinarySearch(a.nbrs, from); ok {
		a.recv[i]++
	}
	a.inner.Deliver(round, from, data)
}

// Quiescent implements rounds.Quiescer. The wrapper only filters or
// delays the wrapped protocol's output, so once the inner protocol is
// quiescent and the delay buffer is empty, no schedule action can ever
// produce another byte — the attestation is honest by construction, which
// keeps the engine's early exit from silently disarming a scheduled
// late-phase attack (DESIGN.md §8).
func (a *Adaptive) Quiescent() bool {
	if len(a.held) > 0 {
		return false
	}
	q, ok := a.inner.(rounds.Quiescer)
	return ok && q.Quiescent()
}
