// Package harness assembles full experiments: scenario construction
// (topology + Byzantine placement + attack wiring), repeated trials with
// seeded randomness, ground-truth computation, and the accuracy /
// agreement / network-cost metrics reported in the paper's evaluation
// (§V).
package harness

import (
	"fmt"
	"math/rand"

	"github.com/nectar-repro/nectar/internal/graph"
	"github.com/nectar-repro/nectar/internal/ids"
	"github.com/nectar-repro/nectar/internal/topology"
)

// Scenario is one experiment instance: a communication graph, the set of
// Byzantine nodes, and — for split-brain behaviours — the side each
// Byzantine node stonewalls.
type Scenario struct {
	// Graph is the communication network (including Byzantine bridges).
	Graph *graph.Graph
	// Byz identifies the Byzantine nodes.
	Byz ids.Set
	// Blocked maps each Byzantine node to the destinations it acts
	// crashed towards (used by the split-brain attack; empty otherwise).
	Blocked map[ids.NodeID]ids.Set
}

// attacks assigns attack a to every Byzantine node of the scenario.
func (sc *Scenario) attacks(a AttackKind) map[ids.NodeID]AttackKind {
	out := make(map[ids.NodeID]AttackKind, sc.Byz.Len())
	for b := range sc.Byz {
		out[b] = a
	}
	return out
}

// ScenarioFn generates a fresh scenario per trial from the trial's RNG.
type ScenarioFn func(rng *rand.Rand) (*Scenario, error)

// Plain wraps a topology generator into a Byzantine-free scenario (the
// network-cost experiments, Figs. 3-7).
func Plain(gen func(rng *rand.Rand) (*graph.Graph, error)) ScenarioFn {
	return func(rng *rand.Rand) (*Scenario, error) {
		g, err := gen(rng)
		if err != nil {
			return nil, err
		}
		return &Scenario{Graph: g, Byz: ids.NewSet(), Blocked: map[ids.NodeID]ids.Set{}}, nil
	}
}

// FixedGraph yields the same deterministic graph every trial.
func FixedGraph(g *graph.Graph) ScenarioFn {
	return Plain(func(*rand.Rand) (*graph.Graph, error) { return g, nil })
}

// Bridge builds the §V-D drone attack scenario (Fig. 8): a drone graph
// whose two scatters are partitioned (distance d), t Byzantine nodes
// distributed equally between the two parts, and `bridges` added edges
// from every Byzantine node to random nodes of the opposite part — so
// that all communication between the two correct parts must pass through
// Byzantine nodes. Every Byzantine node behaves correctly towards part A
// (the first scatter) and as crashed towards part B.
//
// bridges = 0 keeps the graph partitioned (no added edges): the setting
// of the paper's MtG Bloom-poisoning experiment, where Byzantine nodes
// lie about reachability instead of bridging the parts.
func Bridge(n, t int, d, radius float64, bridges int) ScenarioFn {
	return func(rng *rand.Rand) (*Scenario, error) {
		if t >= n/2 {
			return nil, fmt.Errorf("harness: Bridge needs t < n/2, got t=%d n=%d", t, n)
		}
		if bridges < 0 {
			return nil, fmt.Errorf("harness: negative bridge count %d", bridges)
		}
		g, _, err := topology.Drone(n, d, radius, rng)
		if err != nil {
			return nil, err
		}
		firstHalf := (n + 1) / 2
		partA := make([]ids.NodeID, 0, firstHalf)
		partB := make([]ids.NodeID, 0, n-firstHalf)
		for v := 0; v < n; v++ {
			if v < firstHalf {
				partA = append(partA, ids.NodeID(v))
			} else {
				partB = append(partB, ids.NodeID(v))
			}
		}
		// Equal distribution of Byzantine nodes between the parts.
		byz := ids.NewSet()
		permA := rng.Perm(len(partA))
		permB := rng.Perm(len(partB))
		for i := 0; i < t; i++ {
			if i%2 == 0 {
				byz.Add(partA[permA[i/2]])
			} else {
				byz.Add(partB[permB[i/2]])
			}
		}
		// Byzantine bridges to the opposite part (and a safety edge into
		// the own part for geometrically isolated Byzantine nodes).
		// Sorted iteration keeps RNG consumption deterministic.
		for _, b := range byz.Sorted() {
			own, other := partA, partB
			if int(b) >= firstHalf {
				own, other = partB, partA
			}
			added := 0
			for _, j := range rng.Perm(len(other)) {
				if added == bridges {
					break
				}
				if byz.Has(other[j]) {
					continue
				}
				g.AddEdge(b, other[j])
				added++
			}
			if g.Degree(b) == added { // no edge into its own scatter
				for _, j := range rng.Perm(len(own)) {
					if own[j] != b && !byz.Has(own[j]) {
						g.AddEdge(b, own[j])
						break
					}
				}
			}
		}
		// Split brain: every Byzantine node stonewalls part B.
		blockedSet := ids.NewSet(partB...)
		blocked := make(map[ids.NodeID]ids.Set, t)
		for b := range byz {
			blocked[b] = blockedSet
		}
		return &Scenario{Graph: g, Byz: byz, Blocked: blocked}, nil
	}
}

// CutPlacement places t Byzantine nodes on a minimum vertex cut of the
// generated topology when one of size ≤ t exists (the adversarial
// placement of the §V-D connectivity-topology experiments), and uniformly
// at random otherwise. Split-brain blocking targets one connected
// component left by the cut (or a BFS half when no cut exists).
func CutPlacement(gen func(rng *rand.Rand) (*graph.Graph, error), t int) ScenarioFn {
	return func(rng *rand.Rand) (*Scenario, error) {
		g, err := gen(rng)
		if err != nil {
			return nil, err
		}
		n := g.N()
		if t >= n {
			return nil, fmt.Errorf("harness: CutPlacement needs t < n, got t=%d n=%d", t, n)
		}
		byz := ids.NewSet()
		var blockedSet ids.Set
		cut, ok := g.MinVertexCut()
		if ok && len(cut) <= t && len(cut) > 0 {
			for _, v := range cut {
				byz.Add(v)
			}
			// Stonewall one of the components the cut separates.
			comps := g.RemoveVertices(byz).Components()
			victims := pickVictimComponent(comps, byz, rng)
			blockedSet = ids.NewSet(victims...)
		}
		// Fill (or fully choose) remaining Byzantine slots at random.
		for _, v := range rng.Perm(n) {
			if byz.Len() == t {
				break
			}
			byz.Add(ids.NodeID(v))
		}
		if blockedSet == nil {
			blockedSet = bfsHalf(g, rng)
		}
		blocked := make(map[ids.NodeID]ids.Set, t)
		for b := range byz {
			blocked[b] = blockedSet
		}
		return &Scenario{Graph: g, Byz: byz, Blocked: blocked}, nil
	}
}

// RandomPlacement places t Byzantine nodes uniformly at random (the
// paper's "aleatory placement") with a BFS-half blocked side for
// split-brain behaviours.
func RandomPlacement(gen func(rng *rand.Rand) (*graph.Graph, error), t int) ScenarioFn {
	return func(rng *rand.Rand) (*Scenario, error) {
		g, err := gen(rng)
		if err != nil {
			return nil, err
		}
		if t >= g.N() {
			return nil, fmt.Errorf("harness: RandomPlacement needs t < n, got t=%d n=%d", t, g.N())
		}
		byz := ids.NewSet()
		for _, v := range rng.Perm(g.N())[:t] {
			byz.Add(ids.NodeID(v))
		}
		blockedSet := bfsHalf(g, rng)
		blocked := make(map[ids.NodeID]ids.Set, t)
		for b := range byz {
			blocked[b] = blockedSet
		}
		return &Scenario{Graph: g, Byz: byz, Blocked: blocked}, nil
	}
}

// pickVictimComponent chooses a random non-trivial component that is not
// just leftover Byzantine singletons.
func pickVictimComponent(comps [][]ids.NodeID, byz ids.Set, rng *rand.Rand) []ids.NodeID {
	var candidates [][]ids.NodeID
	for _, c := range comps {
		allByz := true
		for _, v := range c {
			if !byz.Has(v) {
				allByz = false
				break
			}
		}
		if !allByz {
			candidates = append(candidates, c)
		}
	}
	if len(candidates) <= 1 {
		if len(comps) == 0 {
			return nil
		}
		return comps[len(comps)-1]
	}
	return candidates[rng.Intn(len(candidates))]
}

// bfsHalf returns roughly half the vertices, grown by BFS from a random
// pivot — the "one side of the network" a split-brain adversary
// stonewalls when no cut exists.
func bfsHalf(g *graph.Graph, rng *rand.Rand) ids.Set {
	n := g.N()
	half := ids.NewSet()
	if n == 0 {
		return half
	}
	pivot := ids.NodeID(rng.Intn(n))
	queue := []ids.NodeID{pivot}
	seen := ids.NewSet(pivot)
	for len(queue) > 0 && half.Len() < n/2 {
		u := queue[0]
		queue = queue[1:]
		half.Add(u)
		for _, v := range g.Neighbors(u) {
			if !seen.Has(v) {
				seen.Add(v)
				queue = append(queue, v)
			}
		}
	}
	return half
}
