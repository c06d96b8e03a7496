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
// recipient, sender-major inbox) through math/rand's generator, which the
// engine reproduces with its own source (shufflesource.go).

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

// deliveryDigest runs a recorded flood and returns the SHA-256 over the
// per-recipient digests of (round, recipient, from, payload) sequences, in
// recipient order.
func deliveryDigest(t *testing.T, g *graph.Graph, cfg Config) string {
	t.Helper()
	nodes := make([]*recordingNode, g.N())
	protos := make([]Protocol, g.N())
	for i := range nodes {
		id := ids.NodeID(i)
		nodes[i] = &recordingNode{floodNode: newFloodNode(id, g, fmt.Sprintf("origin-%d", i)), h: sha256.New()}
		protos[i] = nodes[i]
	}
	cfg.Graph = g
	if _, err := Run(cfg, protos); err != nil {
		t.Fatal(err)
	}
	total := sha256.New()
	for _, nd := range nodes {
		total.Write(nd.h.Sum(nil))
	}
	return hex.EncodeToString(total.Sum(nil))
}

// TestDeliveryOrderIsPinned compares the delivery sequences of floods on
// three graph families with digests captured at the commit before the
// engine's shuffle source replaced math/rand's (PR 15). A change to the
// shuffle — a different generator, seed derivation, or swap order — fails
// here first.
func TestDeliveryOrderIsPinned(t *testing.T) {
	harary, err := topology.Harary(6, 35)
	if err != nil {
		t.Fatal(err)
	}
	drone, _, err := topology.Drone(60, 2.5, 1.2, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		g      *graph.Graph
		rounds int
		seed   int64
		loss   float64
		want   string
	}{
		{"ring16", topology.Ring(16), 16, 1, 0, "8b01727b2dd65cd5f0a75fd900dc5f7d1c0686f2c3ce28ffda2dc5aac12acf1f"},
		{"harary6-35", harary, 10, 42, 0, "7c34837c6d48ac41dce86b8d13578eca2e231b1c71490ebcd1317059775edf7a"},
		{"harary6-35/negative-seed", harary, 10, -7, 0, "d8474042fd1337af1a1eb4c247c94ab6f40198e15c0659e28131fbbdf68181fc"},
		{"drone60", drone, 12, 3, 0, "4cdd2c3a317203989d10bde4de2e86da2b152d84e631a639c7e5adfccc1441f0"},
		{"drone60/lossy", drone, 12, 1 << 40, 0.2, "dda08c6ae914cccfcf61572ed8fe275c88905856a54aa796d44a3c9234f96ad6"},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 2, 3, 4, 7} {
			cfg := Config{Rounds: tc.rounds, Seed: tc.seed, LossRate: tc.loss, Workers: workers}
			if got := deliveryDigest(t, tc.g, cfg); got != tc.want {
				t.Errorf("%s workers=%d: delivery digest %s, want %s", tc.name, workers, got, tc.want)
			}
		}
	}
}
