package rounds

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"testing"

	"github.com/nectar-repro/nectar/internal/graph"
	"github.com/nectar-repro/nectar/internal/ids"
	"github.com/nectar-repro/nectar/internal/topology"
)

// The per-recipient delivery order is part of the engine's observable
// behaviour (DESIGN.md §6): in the dynamic model a node's KB/node depends
// on which of two same-round messages it sees first, and trace goldens
// record the order. It is a pure function of (Config.Seed, round,
// recipient, sender-major inbox) through shuffleInbox.

// recordingNode floods like floodNode and folds every delivery it receives
// into a running digest, in the order the engine makes the calls.
type recordingNode struct {
	*floodNode
	h hash.Hash
}

func (n *recordingNode) Deliver(round int, from ids.NodeID, data []byte) {
	var hdr [16]byte
	binary.BigEndian.PutUint32(hdr[0:], uint32(round))
	binary.BigEndian.PutUint32(hdr[4:], uint32(n.id))
	binary.BigEndian.PutUint32(hdr[8:], uint32(from))
	binary.BigEndian.PutUint32(hdr[12:], uint32(len(data)))
	n.h.Write(hdr[:])
	n.h.Write(data)
	n.floodNode.Deliver(round, from, data)
}

// recordingNodes returns a recording flood node per vertex of g.
func recordingNodes(g *graph.Graph) []*recordingNode {
	nodes := make([]*recordingNode, g.N())
	for i := range nodes {
		id := ids.NodeID(i)
		nodes[i] = &recordingNode{floodNode: newFloodNode(id, g, fmt.Sprintf("origin-%d", i)), h: sha256.New()}
	}
	return nodes
}

// digestOf returns the SHA-256 over the nodes' per-recipient digests of
// (round, recipient, from, payload) sequences, in recipient order.
func digestOf(nodes []*recordingNode) string {
	total := sha256.New()
	for _, nd := range nodes {
		total.Write(nd.h.Sum(nil))
	}
	return hex.EncodeToString(total.Sum(nil))
}

// deliveryDigest runs a recorded flood and returns its digestOf and metrics.
func deliveryDigest(t *testing.T, g *graph.Graph, cfg Config) (string, *Metrics) {
	t.Helper()
	nodes := recordingNodes(g)
	protos := make([]Protocol, g.N())
	for i, nd := range nodes {
		protos[i] = nd
	}
	cfg.Graph = g
	m, err := Run(cfg, protos)
	if err != nil {
		t.Fatal(err)
	}
	return digestOf(nodes), m
}

// orderCase is a flood whose delivery digest is pinned.
type orderCase struct {
	name   string
	g      *graph.Graph
	rounds int
	seed   int64
	loss   float64
	want   string
}

// pinnedOrderCases are floods on three graph families with digests
// captured from shuffleInbox's SplitMix64 order.
func pinnedOrderCases(t *testing.T) []orderCase {
	t.Helper()
	harary, err := topology.Harary(6, 35)
	if err != nil {
		t.Fatal(err)
	}
	drone, _, err := topology.Drone(60, 2.5, 1.2, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	return []orderCase{
		{"ring16", topology.Ring(16), 16, 1, 0, "0eb0cd318a01c69657001a11fda4f36d71e7196f41ff1a9e533cde96d561b17e"},
		{"harary6-35", harary, 10, 42, 0, "d708cd3dd07c707a54ab2c4bf5bbbff9ef7017fe2bcc37e7420e8ce28482e802"},
		{"harary6-35/negative-seed", harary, 10, -7, 0, "e287a8f97a82115b5960dbcce80d48bc7f04ea52d24e16c46369dfc171465437"},
		{"drone60", drone, 12, 3, 0, "83ee6cd7bd335e6d66e655eb9405f41fd971d37cbc78c84e985090951cf2eec7"},
		{"drone60/lossy", drone, 12, 1 << 40, 0.2, "2b716b6bd3a395e46a545ab6ccfaace038061038f756edef7b23bd34db00f33d"},
	}
}

// TestDeliveryOrderIsPinned compares the delivery sequences of the pinned
// floods with their digests. A change to the shuffle — a different
// generator, seed derivation, or swap order — fails here first.
func TestDeliveryOrderIsPinned(t *testing.T) {
	for _, tc := range pinnedOrderCases(t) {
		for _, workers := range []int{1, 2, 3, 4, 7} {
			cfg := Config{Rounds: tc.rounds, Seed: tc.seed, LossRate: tc.loss, Workers: workers}
			if got, _ := deliveryDigest(t, tc.g, cfg); got != tc.want {
				t.Errorf("%s workers=%d: delivery digest %s, want %s", tc.name, workers, got, tc.want)
			}
		}
	}
}
