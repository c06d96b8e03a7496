package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"

	"github.com/nectar-repro/nectar/internal/ids"
)

func TestFingerprintEqualGraphsMatch(t *testing.T) {
	g := New(9)
	h := New(9)
	edges := [][2]ids.NodeID{{0, 1}, {1, 2}, {3, 7}, {2, 8}, {4, 5}}
	for _, e := range edges {
		g.AddEdge(e[0], e[1])
	}
	// Same edge set inserted in a different order.
	for i := len(edges) - 1; i >= 0; i-- {
		h.AddEdge(edges[i][1], edges[i][0])
	}
	if g.Fingerprint() != h.Fingerprint() {
		t.Error("equal graphs produced different fingerprints")
	}
	if !g.Equal(h) {
		t.Fatal("test fixture broken: graphs differ")
	}
}

func TestFingerprintDistinguishes(t *testing.T) {
	base := New(9)
	base.AddEdge(0, 1)
	fp := base.Fingerprint()

	oneMore := base.Clone()
	oneMore.AddEdge(5, 6)
	if oneMore.Fingerprint() == fp {
		t.Error("extra edge not reflected in fingerprint")
	}
	otherEdge := New(9)
	otherEdge.AddEdge(0, 2)
	if otherEdge.Fingerprint() == fp {
		t.Error("different edge not reflected in fingerprint")
	}
	// Same (empty) edge set, different vertex count.
	if New(8).Fingerprint() == New(9).Fingerprint() {
		t.Error("vertex count not reflected in fingerprint")
	}
	// Bit packing must not smear edges across row boundaries: two
	// single-edge graphs whose edges land in adjacent bit positions.
	a, b := New(20), New(20)
	a.AddEdge(0, 18)
	b.AddEdge(0, 19)
	if a.Fingerprint() == b.Fingerprint() {
		t.Error("adjacent bit positions collide")
	}
}

func TestFingerprintMutationTracksState(t *testing.T) {
	g := New(6)
	g.AddEdge(1, 4)
	fp1 := g.Fingerprint()
	g.AddEdge(2, 3)
	g.RemoveEdge(2, 3)
	if g.Fingerprint() != fp1 {
		t.Error("add+remove did not restore the fingerprint")
	}
}

// fingerprintPerEdge is the definition Fingerprint is held to: SHA-256 over
// n as a uint64, then every edge (U < V, by U then V) as two uint32s, one
// Write per edge.
func fingerprintPerEdge(g *Graph) [32]byte {
	h := sha256.New()
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(g.N()))
	h.Write(buf[:])
	for _, e := range g.Edges() {
		binary.BigEndian.PutUint32(buf[:4], uint32(e.U))
		binary.BigEndian.PutUint32(buf[4:], uint32(e.V))
		h.Write(buf[:])
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// TestFingerprintMatchesPerEdgeReference: feeding the hash in chunks changes
// nothing about the value, on random graphs on every side of the storage
// boundaries (64, 192) and with edge counts on every side of the chunk's (the
// first chunk holds n and 511 edges, each later one 512).
func TestFingerprintMatchesPerEdgeReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, n := range []int{1, 2, 63, 64, 65, 192, 193, 500} {
		var pairs []Edge
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				pairs = append(pairs, Edge{U: ids.NodeID(u), V: ids.NodeID(v)})
			}
		}
		for _, m := range []int{0, 1, n - 1, len(pairs) / 3, len(pairs), 510, 511, 512, 513, 1023, 1024, 1535, 1536} {
			if m > len(pairs) {
				continue
			}
			rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
			g := New(n)
			for _, e := range pairs[:m] {
				g.AddEdge(e.V, e.U)
			}
			if g.Fingerprint() != fingerprintPerEdge(g) {
				t.Errorf("n=%d, m=%d: Fingerprint differs from the per-edge reference", n, m)
			}
		}
	}
}

// TestFingerprintKnownAnswer pins the value itself — decision memos and
// tests compare fingerprints across processes and commits — and that the
// chunk buffer stays on the stack.
func TestFingerprintKnownAnswer(t *testing.T) {
	g := New(193)
	for i := 0; i < 193; i++ {
		g.AddEdge(ids.NodeID(i), ids.NodeID((i+1)%193))
		g.AddEdge(ids.NodeID(i), ids.NodeID((i+57)%193))
	}
	fp := g.Fingerprint()
	const want = "0bc8c13e7dec686cd3ad3186c029fe24ad5f90ff01d592b646f1c2ceef009f55"
	if got := hex.EncodeToString(fp[:]); got != want {
		t.Errorf("Fingerprint = %s, want %s", got, want)
	}
	if allocs := testing.AllocsPerRun(20, func() { g.Fingerprint() }); allocs != 0 {
		t.Errorf("Fingerprint allocates %.0f objects, want 0", allocs)
	}
}
