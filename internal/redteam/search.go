package redteam

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sort"

	"github.com/nectar-repro/nectar/internal/graph"
	"github.com/nectar-repro/nectar/internal/ids"
)

// Search parameterizes one placement search over a fixed topology.
type Search struct {
	// Graph is the topology under attack. Required.
	Graph *graph.Graph
	// T is the number of Byzantine slots to place. Required, 0 < T < n.
	T int
	// Budget caps the number of Evaluator calls (cache hits are free).
	// It also picks the search: every placement when C(n,T) ≤ Budget,
	// the annealing walk otherwise.
	Budget int
	// Eval scores a candidate placement. Required.
	Eval Evaluator
	// Rand drives the annealing walk. Required when C(n,T) > Budget; the
	// exact search consumes no randomness.
	Rand *rand.Rand
	// OnStep, when non-nil, receives one trace entry per evaluation.
	OnStep func(Step)
}

func (s *Search) validate() error {
	if s.Graph == nil {
		return fmt.Errorf("redteam: Search.Graph is required")
	}
	if s.Eval == nil {
		return fmt.Errorf("redteam: Search.Eval is required")
	}
	n := s.Graph.N()
	if s.T <= 0 || s.T >= n {
		return fmt.Errorf("redteam: need 0 < T < n, got T=%d n=%d", s.T, n)
	}
	if s.Budget <= 0 {
		return fmt.Errorf("redteam: Search.Budget must be positive, got %d", s.Budget)
	}
	if s.Rand == nil && spaceSize(n, s.T) > s.Budget {
		return fmt.Errorf("redteam: C(%d,%d) placements exceed budget %d: the annealing walk needs Search.Rand",
			n, s.T, s.Budget)
	}
	return nil
}

// Run searches for the damage maximizer. When the space fits the budget
// (C(n,T) ≤ Budget) it scores every T-subset once, in lexicographic
// order, and the outcome is the true optimum; otherwise it spends the
// budget on an annealing walk driven by Rand.
func (s Search) Run() (Outcome, error) {
	if err := s.validate(); err != nil {
		return Outcome{}, err
	}
	b := newBudgetEval(&s)
	n := s.Graph.N()
	var err error
	exact := spaceSize(n, s.T) <= s.Budget
	if exact {
		forEachSubset(n, s.T, func(p Placement) bool {
			_, err = b.eval(p)
			return err == nil
		})
	} else {
		err = anneal(b)
	}
	return b.outcome(err, exact)
}

// anneal is the search beyond the budget (simulated-annealing style):
// starting from the cut seed, it proposes single-slot swaps with a
// uniformly random outside vertex, always accepts improvements, and
// accepts degradations with probability exp(Δ/T) under a geometrically
// cooling temperature (T0 = 0.25, ×0.96 per proposal). Δ is normalized by
// the best damage seen, so acceptance is scale-free across objectives
// (misclassification ∈ [0,1] vs traffic in KB). On a flat landscape it
// degenerates to a random walk, which escapes zero-damage plateaus.
func anneal(b *budgetEval) error {
	s := b.s
	n := s.Graph.N()
	cur := cutSeed(s.Graph, s.T)
	curD, err := b.eval(cur)
	temp := 0.25
	// Revisits are cache hits (free), so bound the proposal count as well
	// as the budget.
	for iter := 0; err == nil && !b.exhausted() && iter < 64*s.Budget; iter++ {
		next := cur.Clone()
		slot := s.Rand.Intn(len(next))
		v := ids.NodeID(s.Rand.Intn(n))
		for next.Has(v) {
			v = ids.NodeID(s.Rand.Intn(n))
		}
		next[slot] = v
		next = NewPlacement(next...)
		var d float64
		if d, err = b.eval(next); err != nil {
			break
		}
		scale := b.bestD
		if scale <= 0 {
			scale = 1
		}
		delta := (d - curD) / scale
		if delta >= 0 || s.Rand.Float64() < math.Exp(delta/temp) {
			cur, curD = next, d
		}
		temp *= 0.96
	}
	return err
}

// cutSeed is the annealing walk's starting placement: the members of a
// minimum vertex cut (Corollary 1 makes κ(G) ≤ t exactly t-Byzantine
// partitionability, so the cut is the graph's weak spot), lowest IDs
// first, padded with minimum-degree vertices (ID ties ascending).
func cutSeed(g *graph.Graph, t int) Placement {
	cut, _ := g.MinVertexCut()
	sort.Slice(cut, func(i, j int) bool { return cut[i] < cut[j] })
	members := make([]ids.NodeID, 0, t)
	taken := ids.NewSet()
	for _, v := range cut {
		if len(members) == t {
			break
		}
		members = append(members, v)
		taken.Add(v)
	}
	if len(members) < t {
		rest := make([]ids.NodeID, 0, g.N())
		for v := 0; v < g.N(); v++ {
			if !taken.Has(ids.NodeID(v)) {
				rest = append(rest, ids.NodeID(v))
			}
		}
		sort.Slice(rest, func(i, j int) bool {
			di, dj := g.Degree(rest[i]), g.Degree(rest[j])
			if di != dj {
				return di < dj
			}
			return rest[i] < rest[j]
		})
		members = append(members, rest[:t-len(members)]...)
	}
	return NewPlacement(members...)
}

// spaceSize returns C(n,t), the number of t-node placements, saturating
// at math.MaxInt instead of overflowing.
func spaceSize(n, t int) int {
	if t < 0 || t > n {
		return 0
	}
	if t > n-t {
		t = n - t
	}
	// c is C(n,i), so c·(n-i) divides by i+1 exactly; C(n,i) grows
	// with i up to n/2, so once a step overflows the answer does too.
	var c uint64 = 1
	for i := 0; i < t; i++ {
		hi, lo := bits.Mul64(c, uint64(n-i))
		if hi >= uint64(i+1) {
			return math.MaxInt
		}
		if c, _ = bits.Div64(hi, lo, uint64(i+1)); c > math.MaxInt {
			return math.MaxInt
		}
	}
	return int(c)
}

// forEachSubset visits every t-subset of [0, n) in lexicographic order,
// a fresh Placement each, until visit returns false.
func forEachSubset(n, t int, visit func(Placement) bool) {
	p := make(Placement, t)
	for i := range p {
		p[i] = ids.NodeID(i)
	}
	for visit(p.Clone()) {
		// Advance the rightmost slot that has room, then reset the
		// slots after it to the smallest values above it.
		i := t - 1
		for i >= 0 && int(p[i]) == n-t+i {
			i--
		}
		if i < 0 {
			return
		}
		p[i]++
		for j := i + 1; j < t; j++ {
			p[j] = p[j-1] + 1
		}
	}
}

// budgetEval wraps the user Evaluator with budget accounting, caching,
// best tracking and trace emission, so the search can never return a
// candidate it did not evaluate.
type budgetEval struct {
	s     *Search
	cache map[string]float64
	evals int
	best  Placement
	bestD float64
}

func newBudgetEval(s *Search) *budgetEval {
	return &budgetEval{s: s, cache: make(map[string]float64), bestD: math.Inf(-1)}
}

// exhausted reports whether the evaluation budget is spent.
func (b *budgetEval) exhausted() bool { return b.evals >= b.s.Budget }

// eval scores p, consuming budget unless cached. It returns errBudget
// once the budget is exhausted.
func (b *budgetEval) eval(p Placement) (float64, error) {
	key := p.Key()
	if d, ok := b.cache[key]; ok {
		return d, nil
	}
	if b.exhausted() {
		return 0, errBudget
	}
	d, err := b.s.Eval(p)
	if err != nil {
		return 0, err
	}
	b.evals++
	b.cache[key] = d
	if d > b.bestD {
		b.bestD = d
		b.best = p.Clone()
	}
	if b.s.OnStep != nil {
		b.s.OnStep(Step{Eval: b.evals, Placement: p.Clone(), Damage: d, Best: b.bestD})
	}
	return d, nil
}

// outcome finalizes the run, mapping budget exhaustion to success.
func (b *budgetEval) outcome(err error, exact bool) (Outcome, error) {
	if err != nil && err != errBudget {
		return Outcome{}, err
	}
	if b.best == nil {
		return Outcome{}, fmt.Errorf("redteam: no candidate evaluated within budget")
	}
	return Outcome{Placement: b.best, Damage: b.bestD, Evals: b.evals, Exact: exact}, nil
}

// RandomPlacement draws a uniform t-subset of [0, n) — the aleatory
// placement of the paper's evaluation, which the harness scores as the
// baseline every search is compared with.
func RandomPlacement(n, t int, rng *rand.Rand) Placement {
	perm := rng.Perm(n)[:t]
	members := make([]ids.NodeID, t)
	for i, v := range perm {
		members[i] = ids.NodeID(v)
	}
	return NewPlacement(members...)
}
