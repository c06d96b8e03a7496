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
	"fmt"
	"math/rand"

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
	// Seed drives gossip partner selection.
	Seed int64
}

// Node is a correct MindTheGap process.
type Node struct {
	cfg      Config
	filter   *bloom.Filter
	partners partners
	// payload and sendBuf hold the round's encoded filter and send; both
	// are reused every round (the rounds.Protocol buffer contract).
	payload []byte
	sendBuf []rounds.Send
}

var _ rounds.Protocol = (*Node)(nil)

// NewNode validates cfg and builds an MtG node knowing only itself.
func NewNode(cfg Config) (*Node, error) {
	if err := validateBase(cfg.N, cfg.Me, cfg.Neighbors); err != nil {
		return nil, err
	}
	if cfg.FilterBits == 0 {
		cfg.FilterBits = DefaultFilterBits
	}
	if cfg.FilterHashes == 0 {
		cfg.FilterHashes = DefaultFilterHashes
	}
	n := &Node{
		cfg:      cfg,
		filter:   bloom.New(cfg.FilterBits, cfg.FilterHashes),
		partners: newPartners(cfg.Seed, cfg.Me, len(cfg.Neighbors)),
	}
	n.payload = make([]byte, 0, n.filter.ByteSize())
	n.filter.Add(cfg.Me)
	return n, nil
}

// Emit implements rounds.Protocol: each round the node sends its current
// filter to one randomly chosen neighbor. The one partner per round is
// what makes MtG's network cost independent of topology, d and radius
// (Fig. 4).
func (n *Node) Emit(round int) []rounds.Send {
	k := n.partners.pick()
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

// Filter exposes a copy of the node's filter (tests, examples).
func (n *Node) Filter() *bloom.Filter { return n.filter.Clone() }

// validateBase checks the fields shared by both baselines.
func validateBase(n int, me ids.NodeID, neighbors []ids.NodeID) error {
	if n <= 0 {
		return fmt.Errorf("mtg: N must be positive, got %d", n)
	}
	if int(me) >= n {
		return fmt.Errorf("mtg: Me=%v out of range [0,%d)", me, n)
	}
	seen := make(ids.Set, len(neighbors))
	for _, nb := range neighbors {
		if nb == me || int(nb) >= n {
			return fmt.Errorf("mtg: invalid neighbor %v", nb)
		}
		if seen.Has(nb) {
			return fmt.Errorf("mtg: duplicate neighbor %v", nb)
		}
		seen.Add(nb)
	}
	return nil
}

// partners draws a node's gossip partner each round as a position in its
// neighbor list: the first element of a permutation drawn into a scratch
// reused every round. It makes exactly the Intn draws rand.Perm(degree)
// makes, so a node's RNG stream — and with it every later pick — is what a
// fresh permutation per round would give.
type partners struct {
	rng  *rand.Rand
	perm []int
}

func newPartners(seed int64, me ids.NodeID, degree int) partners {
	return partners{rng: rand.New(rand.NewSource(seed ^ int64(me)<<32)), perm: make([]int, degree)}
}

// pick returns this round's partner, or -1 for a node without neighbors. A
// node with one neighbor picks it without a draw.
func (p *partners) pick() int {
	switch len(p.perm) {
	case 0:
		return -1
	case 1:
		return 0
	}
	for i := range p.perm { // rand.Perm, in place
		j := p.rng.Intn(i + 1)
		p.perm[i] = p.perm[j]
		p.perm[j] = i
	}
	return p.perm[0]
}
