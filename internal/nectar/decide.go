package nectar

import (
	"sync"

	"github.com/nectar-repro/nectar/internal/graph"
)

// DecideCache memoizes the decision phase's connectivity predicate across
// nodes, keyed by (view fingerprint, threshold). In a correct run every
// node converges to the same discovered view (Lemma 2), so all n max-flow
// computations of a trial collapse to one; under attack the views that do
// coincide still share a single computation (DESIGN.md §9).
//
// The key uses graph.Fingerprint (SHA-256 over the canonical adjacency
// encoding): views are assembled from adversary-influenced messages, so a
// non-collision-resistant fingerprint would let a Byzantine coalition try
// to alias a partitionable view with a non-partitionable one.
//
// DecideCache is safe for concurrent use and is cheap enough to share
// across the epochs of a dynamic run — stale views simply stop matching.
type DecideCache struct {
	mu   sync.Mutex
	m    map[decideKey]bool
	hits int64
}

type decideKey struct {
	fp [32]byte
	k  int
}

// NewDecideCache returns an empty cache.
func NewDecideCache() *DecideCache {
	return &DecideCache{m: make(map[decideKey]bool)}
}

// connectivityAtLeast reports g.ConnectivityAtLeast(k), memoized by view
// fingerprint. A nil receiver computes directly.
func (c *DecideCache) connectivityAtLeast(g *graph.Graph, k int) bool {
	if c == nil {
		return g.ConnectivityAtLeast(k)
	}
	key := decideKey{fp: g.Fingerprint(), k: k}
	c.mu.Lock()
	got, ok := c.m[key]
	if ok {
		c.hits++
		c.mu.Unlock()
		return got
	}
	c.mu.Unlock()
	// Computed outside the lock: the predicate is pure, so concurrent
	// callers of one view may both compute it. The one that comes back
	// second finds the first's entry and counts the hit, so Hits() is a
	// function of the views decided, not of the schedule.
	got = g.ConnectivityAtLeast(k)
	c.mu.Lock()
	if _, raced := c.m[key]; raced {
		c.hits++
	} else {
		c.m[key] = got
	}
	c.mu.Unlock()
	return got
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
