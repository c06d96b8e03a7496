package nectar

import (
	"sync"

	"github.com/nectar-repro/nectar/internal/graph"
)

// DecideCache memoizes the decision phase across nodes, one entry per
// distinct discovered view: a copy of its edge set, every vertex's component
// size and its κ ≥ k verdicts. In a correct run every node converges to the
// same view (Lemma 2), so a trial runs the κ max-flow, labels components and
// copies the view once instead of once per node; under attack the views
// that do coincide still share them (DESIGN.md §9).
//
// An entry is filed under the view's size and graph.EdgeSet.Sum and taken
// only when its own copy of the view's set equals the node's: a Byzantine
// coalition that shapes two views of one sum gets two entries, never a
// shared verdict. A view becomes a graph only on a miss — once per distinct
// view, loaded into a pooled graph. DecideCache is safe for concurrent use
// and cheap enough to share across the epochs of a dynamic run — stale
// views simply stop matching.
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

// viewEntry is one distinct view. set and reach never change once the entry
// is filed, so they are read without the lock.
type viewEntry struct {
	set   *graph.EdgeSet // matched against a node's view, and kept as its snapshot (Node.release)
	reach []int32        // reach[v] is the size of v's component: DetectReachableNode for v
	over  map[int]bool   // κ ≥ k, by k
}

// NewDecideCache returns an empty cache.
func NewDecideCache() *DecideCache {
	return &DecideCache{entries: make(map[viewKey][]*viewEntry)}
}

// viewGraphs recycles the graphs a miss loads a view into: each is read by
// one decide and handed back, so no entry or node holds one.
var viewGraphs = sync.Pool{New: func() any { return new(graph.Graph) }}

// decide returns the entry of view s and whether κ(s) ≥ k, filing either on
// first sight. The key is the caller's, so that tests can make views collide.
func (c *DecideCache) decide(key viewKey, s *graph.EdgeSet, k int) (*viewEntry, bool) {
	c.mu.Lock()
	e := c.find(key, s)
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
	g := viewGraphs.Get().(*graph.Graph)
	var fresh *viewEntry
	if e == nil {
		fresh = newViewEntry(g, s)
	} else {
		g.Load(e.set)
	}
	ok := g.ConnectivityAtLeast(k)
	viewGraphs.Put(g)
	c.mu.Lock()
	defer c.mu.Unlock()
	if e = c.find(key, s); e == nil {
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

// find returns the entry under key whose view is s, or nil; mu is held.
func (c *DecideCache) find(key viewKey, s *graph.EdgeSet) *viewEntry {
	for _, e := range c.entries[key] {
		if e.set.Equal(s) {
			return e
		}
	}
	return nil
}

// newViewEntry files view s, loading it into g on the way.
func newViewEntry(g *graph.Graph, s *graph.EdgeSet) *viewEntry {
	g.Load(s)
	return &viewEntry{set: s.Clone(), reach: g.ComponentSizes(), over: make(map[int]bool, 1)}
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
