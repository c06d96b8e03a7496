// Package mtg implements the two baselines of the paper's evaluation
// (§V-A):
//
//   - MtG — MindTheGap (Bouget et al. [6]): every node gossips a Bloom
//     filter of the node IDs it believes reachable; after a fixed epoch a
//     node flags a partition when some IDs are still missing. Light on
//     the network, but a single Byzantine node can poison the filters.
//   - MtGv2 — the strengthened variant the paper introduces: Bloom
//     filters are replaced by lists of signed process IDs, and a node
//     sends a given signed ID at most once to each gossip partner per
//     epoch.
//
// Both implement rounds.Protocol and decide after an epoch of E rounds
// (the harness uses E = n-1, aligning with NECTAR's horizon).
package mtg

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/nectar-repro/nectar/internal/bloom"
	"github.com/nectar-repro/nectar/internal/ids"
	"github.com/nectar-repro/nectar/internal/rounds"
)

// Default filter geometry: 768 bits / 3 hashes keeps the false-positive
// rate usable up to the paper's 100-node scale while matching MtG's
// ~2 KB-per-epoch footprint.
const (
	DefaultFilterBits   = 768
	DefaultFilterHashes = 3
)

// Outcome is a baseline node's decision: unlike NECTAR, the baselines only
// distinguish "partitioned" from "connected".
type Outcome struct {
	// Partitioned reports whether the node concluded the network is
	// partitioned (some IDs unreachable).
	Partitioned bool
	// Known is the node's reachable-node estimate.
	Known int
}

// Config parameterizes an MtG node.
type Config struct {
	// N is the total number of processes.
	N int
	// Me is the local identity.
	Me ids.NodeID
	// Neighbors is the local neighborhood.
	Neighbors []ids.NodeID
	// FilterBits and FilterHashes set the Bloom geometry (0 = defaults).
	// All nodes must agree on the geometry (static configuration).
	FilterBits   int
	FilterHashes int
	// Seed keys gossip partner selection.
	Seed int64
}

// Node is a correct MindTheGap process.
type Node struct {
	cfg    Config
	filter bloom.Filter
	// payload and sendBuf hold the round's encoded filter and send; both
	// are reused every round (the rounds.Protocol buffer contract).
	payload []byte
	sendBuf []rounds.Send
}

var _ rounds.Protocol = (*Node)(nil)

// NewNode validates cfg and builds an MtG node knowing only itself.
func NewNode(cfg Config) (*Node, error) {
	n := new(Node)
	if err := n.init(cfg, new(slabs)); err != nil {
		return nil, err
	}
	return n, nil
}

// BuildNodes builds the MtG node of every vertex of g, at the default
// geometry and gossiping by seed, in one array: each node's neighbour
// list, filter words, payload and send are windows of one slab per kind,
// so a build allocates per run where NewNode allocates per node.
func BuildNodes(g Neighborhoods, seed int64) ([]Node, error) {
	n, words := g.N(), bloom.Words(DefaultFilterBits)
	st := newSlabs(g)
	st.words, st.bytes = make([]uint64, n*words), make([]byte, n*8*words)
	nodes := make([]Node, n)
	for i := range nodes {
		me := ids.NodeID(i)
		if err := nodes[i].init(Config{N: n, Me: me, Neighbors: st.list(g, me), Seed: seed}, st); err != nil {
			return nil, err
		}
	}
	return nodes, nil
}

// init is NewNode on a node the caller has allocated, its buffers taken
// from st.
func (n *Node) init(cfg Config, st *slabs) error {
	if err := validateBase(cfg.N, cfg.Me, cfg.Neighbors); err != nil {
		return err
	}
	cfg.FilterBits = cmp.Or(cfg.FilterBits, DefaultFilterBits)
	cfg.FilterHashes = cmp.Or(cfg.FilterHashes, DefaultFilterHashes)
	words := bloom.Words(cfg.FilterBits)
	*n = Node{
		cfg:     cfg,
		filter:  bloom.Over(take(&st.words, words), cfg.FilterHashes),
		payload: take(&st.bytes, 8*words)[:0],
		sendBuf: take(&st.sends, 1)[:0],
	}
	n.filter.Add(cfg.Me)
	return nil
}

// Emit implements rounds.Protocol: each round the node sends its current
// filter to one randomly chosen neighbor. The one partner per round is
// what makes MtG's network cost independent of topology, d and radius
// (Fig. 4).
func (n *Node) Emit(round int) []rounds.Send {
	k := partner(n.cfg.Seed, n.cfg.Me, round, len(n.cfg.Neighbors))
	if k < 0 {
		return nil
	}
	n.payload = n.filter.AppendBinary(n.payload[:0])
	n.sendBuf = append(n.sendBuf[:0], rounds.Send{To: n.cfg.Neighbors[k : k+1 : k+1], Data: n.payload})
	return n.sendBuf
}

// Quiescent implements rounds.Quiescer: MtG gossips its filter every
// round of the epoch unconditionally, so an MtG node is never quiescent —
// runs containing one always execute the full horizon, which is exactly
// the protocol's topology-independent cost profile (Fig. 4's flat line).
func (n *Node) Quiescent() bool { return false }

// Deliver implements rounds.Protocol: merge the received filter in place.
// A payload of the wrong size is ignored (geometries otherwise match by
// construction), so the error needs no handling.
func (n *Node) Deliver(round int, from ids.NodeID, data []byte) {
	_ = n.filter.UnionBinary(data)
}

// Decide returns the node's epoch-end conclusion: partitioned iff its
// reachable estimate misses some IDs. Bloom false positives can only
// overcount, i.e. push MtG toward missing partitions — an inherent
// weakness the evaluation measures.
func (n *Node) Decide() Outcome {
	known := n.filter.CountOf(n.cfg.N)
	return Outcome{Partitioned: known < n.cfg.N, Known: known}
}

// validateBase checks the fields shared by both baselines. A repeat is
// searched for only behind a neighbour that does not ascend, so a graph's
// sorted list is checked in one pass.
func validateBase(n int, me ids.NodeID, neighbors []ids.NodeID) error {
	if n <= 0 {
		return fmt.Errorf("mtg: N must be positive, got %d", n)
	}
	if int(me) >= n {
		return fmt.Errorf("mtg: Me=%v out of range [0,%d)", me, n)
	}
	for k, nb := range neighbors {
		if nb == me || int(nb) >= n {
			return fmt.Errorf("mtg: invalid neighbor %v", nb)
		}
		if k > 0 && nb <= neighbors[k-1] && slices.Contains(neighbors[:k], nb) {
			return fmt.Errorf("mtg: duplicate neighbor %v", nb)
		}
	}
	return nil
}

// Neighborhoods is what the builders read of a network: its size and each
// vertex's neighbour list. A *graph.Graph is one.
type Neighborhoods interface {
	N() int
	Neighbors(v ids.NodeID) []ids.NodeID
}

// slabs is the storage nodes take their buffers from: a build sizes each for
// all its nodes, a lone node's are empty (each take allocates its window).
// A window is capped at its length, so an append to one cannot reach the next.
type slabs struct {
	lists []ids.NodeID
	sends []rounds.Send
	bytes []byte
	words []uint64 // MtG's filters
	known []bool   // MtGv2's credential flags
	sent  []int    // MtGv2's per-neighbour counts
}

// newSlabs returns slabs holding g's neighbour lists and one send per node;
// the builder sizes the rest.
func newSlabs(g Neighborhoods) *slabs {
	total := 0
	for v := range g.N() {
		total += len(g.Neighbors(ids.NodeID(v)))
	}
	return &slabs{lists: make([]ids.NodeID, total), sends: make([]rounds.Send, g.N())}
}

// list returns a copy of v's neighbour list in g, taken from st.
func (st *slabs) list(g Neighborhoods, v ids.NodeID) []ids.NodeID {
	nb := g.Neighbors(v)
	w := take(&st.lists, len(nb))
	copy(w, nb)
	return w
}

// take cuts the next k elements off *slab as a window capped at k, or
// allocates the window when the slab is short.
func take[T any](slab *[]T, k int) []T {
	if len(*slab) < k {
		return make([]T, k)
	}
	w := (*slab)[:k:k]
	*slab = (*slab)[k:]
	return w
}

// partner returns node me's gossip partner in round as a position in its
// neighbour list, or -1 for a node without neighbours: a stateless draw,
// the keys (seed, me, round) mixed by SplitMix64 as the engine's loss draw
// mixes its own, the index drawn as its delivery shuffle draws one. One
// neighbour is picked without a draw.
func partner(seed int64, me ids.NodeID, round, degree int) int {
	if degree < 2 {
		return degree - 1
	}
	x := rounds.SplitMix64(uint64(seed) ^ 0x6d74672d70617274) // "mtg-part"
	x = rounds.SplitMix64(x ^ uint64(me))
	x = rounds.SplitMix64(x ^ uint64(round))
	k, _ := rounds.DrawBelow(x, uint64(degree))
	return int(k)
}
