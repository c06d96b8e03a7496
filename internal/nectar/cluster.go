package nectar

import (
	"fmt"

	"github.com/nectar-repro/nectar/internal/graph"
	"github.com/nectar-repro/nectar/internal/ids"
	"github.com/nectar-repro/nectar/internal/sig"
)

// BuildOption customizes the per-node Config produced by BuildNodes.
type BuildOption func(*Config)

// WithParanoidVerify enables the literal Alg.-1 check order (signature
// verification before the duplicate check) on every node: the reference
// the equivalence tests and FuzzNodeDeliver compare the default order
// against (see Config.paranoidVerify).
func WithParanoidVerify() BuildOption {
	return func(c *Config) { c.paranoidVerify = true }
}

// WithVerifyCache shares the signers' boards and the proof ledger of cache
// across every node built — the per-trial cache of the fast path
// (DESIGN.md §9). Outcomes are bit-identical with and without it. The
// nodes must run in lockstep for their boards to pay, and the cache be
// released after them; see Config.VerifyCache.
func WithVerifyCache(cache *sig.VerifyCache) BuildOption {
	return func(c *Config) { c.VerifyCache = cache }
}

// WithSignOnRead has each node built that grant names leave its relays'
// signatures to the first neighbour that checks them (Config.signOnRead).
// The caller vouches that every recipient of such a node's relays either
// is a node built with the same WithVerifyCache and run in the same
// engine, or keeps and sends nothing it has not handed to one unchanged;
// without a cache it changes nothing.
func WithSignOnRead(grant func(ids.NodeID) bool) BuildOption {
	return func(c *Config) { c.signOnRead = grant(c.Me) }
}

// BuildNodes constructs one correct NECTAR node per vertex of g, with
// setup-time proofs of neighborhood built under scheme. t is the assumed
// Byzantine bound handed to every node; roundsOverride (0 = default n-1)
// is forwarded to each node's Config. Every view is reset on one index of
// g's edges (graph.NewEdgeIndex), which the nodes share read-only.
//
// Simulation setup only: a real deployment constructs its one Node from
// NodeConfig (see cmd/nectar-node).
func BuildNodes(g *graph.Graph, t int, scheme sig.Scheme, roundsOverride int, opts ...BuildOption) ([]*Node, error) {
	if scheme.N() < g.N() {
		return nil, fmt.Errorf("nectar: scheme for %d nodes, graph has %d", scheme.N(), g.N())
	}
	proofs, index := BuildProofs(scheme, g), graph.NewEdgeIndex(g)
	nodes := make([]*Node, g.N())
	// One Config is refilled for every node, and every neighbour list is a
	// window of one slab, capped at its length: the build allocates these
	// once per run, where NodeConfig allocates them per node.
	cfg := new(Config)
	lists := make([]ids.NodeID, 0, 2*g.M())
	for i := range nodes {
		me := ids.NodeID(i)
		start := len(lists)
		lists = append(lists, g.Neighbors(me)...)
		fillConfig(cfg, g, t, scheme, proofs, me, lists[start:len(lists):len(lists)], roundsOverride, opts)
		cfg.index = index
		nd, err := NewNode(*cfg)
		if err != nil {
			for _, built := range nodes[:i] {
				built.Release()
			}
			return nil, fmt.Errorf("nectar: node %v: %w", me, err)
		}
		nodes[i] = nd
	}
	return nodes, nil
}

// NodeConfig is node me's Config on g — the one BuildNodes hands NewNode,
// but for the run's edge index: its neighborhood in g, its proofs taken
// from proofs (as BuildProofs makes them), and its signer and the verifier
// from scheme.
func NodeConfig(g *graph.Graph, t int, scheme sig.Scheme, proofs map[graph.Edge]Proof, me ids.NodeID, roundsOverride int, opts ...BuildOption) Config {
	var cfg Config
	fillConfig(&cfg, g, t, scheme, proofs, me, append([]ids.NodeID(nil), g.Neighbors(me)...), roundsOverride, opts)
	return cfg
}

// fillConfig overwrites cfg with node me's Config on g, its neighbour list
// neighbors (a copy of g's, which the node keeps), and applies opts.
func fillConfig(cfg *Config, g *graph.Graph, t int, scheme sig.Scheme, proofs map[graph.Edge]Proof, me ids.NodeID, neighbors []ids.NodeID, roundsOverride int, opts []BuildOption) {
	*cfg = Config{
		N:         g.N(),
		T:         t,
		Me:        me,
		Neighbors: neighbors,
		Proofs:    NeighborProofs(proofs, g, me),
		Signer:    scheme.SignerFor(me),
		Verifier:  scheme.Verifier(),
		Rounds:    roundsOverride,
	}
	for _, opt := range opts {
		opt(cfg)
	}
}
