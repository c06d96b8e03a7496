package nectar

import (
	"fmt"
	"slices"

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
	n, index := g.N(), graph.NewEdgeIndex(g)
	// Node v's neighbour list and its proofs are the windows [off[v],
	// off[v+1]) of two slabs, each capped at its length; every edge is
	// signed once, in g.Edges() order, into one signature slab and its
	// proof stored in both endpoints' windows. The nodes are one array and
	// one Config is refilled for each: the build allocates per run, where
	// NodeConfig allocates per node.
	off := make([]int, n+1)
	for v := range n {
		off[v+1] = off[v] + g.Degree(ids.NodeID(v))
	}
	lists := make([]ids.NodeID, 0, off[n])
	proofs := make([]Proof, off[n])
	slab := make([]byte, 0, scheme.Verifier().SigSize()*off[n])
	stmt := statementWriter()
	for u := range n {
		me := ids.NodeID(u)
		lists = append(lists, g.Neighbors(me)...)
		for k, v := range g.Neighbors(me) {
			if me < v {
				var p Proof
				p, slab = appendProof(slab, &stmt, scheme.SignerFor(me), scheme.SignerFor(v))
				j, _ := slices.BinarySearch(g.Neighbors(v), me)
				proofs[off[u]+k], proofs[off[v]+j] = p, p
			}
		}
	}
	nodes, out := make([]Node, n), make([]*Node, n)
	cfg := new(Config)
	for i := range nodes {
		lo, hi := off[i], off[i+1]
		fillConfig(cfg, g, t, scheme, ids.NodeID(i), lists[lo:hi:hi], proofs[lo:hi:hi], roundsOverride, opts)
		cfg.index = index
		if err := nodes[i].init(*cfg); err != nil {
			for _, built := range out[:i] {
				built.Release()
			}
			return nil, fmt.Errorf("nectar: node %v: %w", ids.NodeID(i), err)
		}
		out[i] = &nodes[i]
	}
	return out, nil
}

// NodeConfig is node me's Config on g — the one BuildNodes hands NewNode,
// but for the run's edge index: its neighborhood in g, its proofs taken
// from proofs (as BuildProofs makes them), and its signer and the verifier
// from scheme.
func NodeConfig(g *graph.Graph, t int, scheme sig.Scheme, proofs map[graph.Edge]Proof, me ids.NodeID, roundsOverride int, opts ...BuildOption) Config {
	var cfg Config
	fillConfig(&cfg, g, t, scheme, me, append([]ids.NodeID(nil), g.Neighbors(me)...), NeighborProofs(proofs, g, me), roundsOverride, opts)
	return cfg
}

// fillConfig overwrites cfg with node me's Config on g, its neighbour list
// neighbors (a copy of g's, which the node keeps) and their proofs, and
// applies opts.
func fillConfig(cfg *Config, g *graph.Graph, t int, scheme sig.Scheme, me ids.NodeID, neighbors []ids.NodeID, proofs []Proof, roundsOverride int, opts []BuildOption) {
	*cfg = Config{
		N:         g.N(),
		T:         t,
		Me:        me,
		Neighbors: neighbors,
		Proofs:    proofs,
		Signer:    scheme.SignerFor(me),
		Verifier:  scheme.Verifier(),
		Rounds:    roundsOverride,
	}
	for _, opt := range opts {
		opt(cfg)
	}
}
