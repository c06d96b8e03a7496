package nectar

import (
	"sync"

	"github.com/nectar-repro/nectar/internal/graph"
)

// DecideCache memoizes the decision phase across nodes, one entry per
// distinct discovered view: its edge list, every vertex's component size and
// its κ ≥ k verdicts. In a correct run every node converges to the same view
// (Lemma 2), so a trial runs the κ max-flow, labels components and copies an
// edge list once instead of once per node; under attack the views that do
// coincide still share them (DESIGN.md §9).
//
// An entry is filed under the view's graph.EdgeSum and taken only on an exact
// match of its edge list: a Byzantine coalition that shapes two views of one
// sum gets two entries, never a shared verdict. DecideCache is safe for
// concurrent use and cheap enough to share across the epochs of a dynamic
// run — stale views simply stop matching.
type DecideCache struct {
	mu      sync.Mutex
	entries map[viewKey][]*viewEntry // entries and their verdicts: guarded by mu
	hits    int64
}

// viewKey files a view's entry; different views may share one.
type viewKey struct {
	n, m int
	sum  uint64
}

// viewEntry is one distinct view. edges and reach never change once the
// entry is filed, so they are read without the lock.
type viewEntry struct {
	edges []graph.Edge // in Edges() order: the snapshot its nodes keep (Node.release)
	reach []int32      // reach[v] is the size of v's component: DetectReachableNode for v
	over  map[int]bool // κ ≥ k, by k
}

// NewDecideCache returns an empty cache.
func NewDecideCache() *DecideCache {
	return &DecideCache{entries: make(map[viewKey][]*viewEntry)}
}

// decide returns g's entry and whether κ(g) ≥ k, filing either on first
// sight. The key is the caller's, so that tests can make views collide.
func (c *DecideCache) decide(key viewKey, g *graph.Graph, k int) (*viewEntry, bool) {
	c.mu.Lock()
	e := c.find(key, g)
	if e != nil {
		if ok, found := e.over[k]; found {
			c.hits++
			c.mu.Unlock()
			return e, ok
		}
	}
	c.mu.Unlock()
	// Computed outside the lock: entry and verdict are pure functions of the
	// view, so concurrent callers of one view may both compute them. The one
	// that comes back second finds the first's verdict and counts the hit,
	// so Hits() is a function of the views decided, not of the schedule.
	var fresh *viewEntry
	if e == nil {
		fresh = newViewEntry(g)
	}
	ok := g.ConnectivityAtLeast(k)
	c.mu.Lock()
	defer c.mu.Unlock()
	if e = c.find(key, g); e == nil {
		e = fresh
		c.entries[key] = append(c.entries[key], e)
	}
	if _, raced := e.over[k]; raced {
		c.hits++
	} else {
		e.over[k] = ok
	}
	return e, ok
}

// find returns the entry under key whose view is g, or nil; mu is held.
func (c *DecideCache) find(key viewKey, g *graph.Graph) *viewEntry {
	for _, e := range c.entries[key] {
		if len(e.reach) == g.N() && g.SameEdges(e.edges) {
			return e
		}
	}
	return nil
}

func newViewEntry(g *graph.Graph) *viewEntry {
	e := &viewEntry{edges: g.Edges(), reach: make([]int32, g.N()), over: make(map[int]bool, 1)}
	for _, comp := range g.Components() {
		for _, v := range comp {
			e.reach[v] = int32(len(comp))
		}
	}
	return e
}

// Hits returns how many connectivity computations the cache saved.
func (c *DecideCache) Hits() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits
}
