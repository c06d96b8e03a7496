package graph

import (
	"fmt"
	"math/bits"
	"slices"

	"github.com/nectar-repro/nectar/internal/ids"
)

// MaxSetVertices is the largest vertex count an EdgeSet takes: a packed key
// holds each endpoint in 16 bits. It is also the largest n whose default
// NECTAR horizon, n-1 rounds, a chain's 16-bit hop count can carry.
const MaxSetVertices = 1 << 16

// minTableSize is the first size of an EdgeSet's hash table.
const minTableSize = 16

// EdgeSet is a set of edges over the vertices [0, n): a NECTAR node's view
// while it floods (DESIGN.md §9, §14). Propagation asks only whether an
// edge is known and adds it (Alg. 1 ll. 13-15), so a delivery costs one
// probe and an accept one insert; adjacency is left to the decision phase,
// which loads the set into a Graph (Graph.Load).
//
// Membership is the whole bit matrix up to n = 192, as in Graph, one bit
// per edge; above it, an open-addressed table of packed 32-bit keys, kept
// at most half full. Beside it run Sum and a log of the members' keys, from
// which the table is rehashed and a graph loaded.
// The zero value is an empty set over zero vertices; Reset sizes it.
//
// EdgeSet is not safe for concurrent use.
type EdgeSet struct {
	n      int
	stride int      // words per row of dense; 0 when the table holds the set
	dense  []uint64 // bit v of row u for each member {u < v}; nil until the first Add
	table  []uint32 // packed keys, 0 = empty slot; length a power of two
	shift  uint     // 32 - log2(len(table)): a key's hash keeps its top bits
	log    []uint32 // the members' keys
	sum    uint64
}

// Reset makes s the empty set over n vertices (n ≤ MaxSetVertices) while
// keeping what it has allocated: the log's capacity, the table (cleared)
// and the bit matrix (zeroed) when the new n still fits it. A set rebuilt
// run after run — a node's pooled view — stops allocating once it has seen
// its working size.
func (s *EdgeSet) Reset(n int) {
	if n < 0 || n > MaxSetVertices {
		panic(fmt.Sprintf("graph: EdgeSet over %d vertices, want [0, %d]", n, MaxSetVertices))
	}
	s.n, s.stride, s.log, s.sum = n, 0, s.log[:0], 0
	if w := (n + 63) / 64; w <= denseMaxWords {
		s.stride = w
		if size := n * w; size <= cap(s.dense) {
			s.dense = s.dense[:size] // else the first Add allocates it
			clear(s.dense)
		} else {
			s.dense = nil
		}
		return
	}
	clear(s.table)
}

// N returns the number of vertices.
func (s *EdgeSet) N() int { return s.n }

// M returns the number of edges.
func (s *EdgeSet) M() int { return len(s.log) }

// Sum returns a 64-bit key of the set: the wrapping sum of a mix of every
// edge, equal for equal sets. It has no collision resistance, so a match
// found by it is confirmed with Equal (DESIGN.md §9).
func (s *EdgeSet) Sum() uint64 { return s.sum }

// key validates and packs the edge {u, v}: the smaller endpoint in the high
// half, the larger in the low. No edge packs to 0, which marks an empty slot.
func (s *EdgeSet) key(u, v ids.NodeID) uint32 {
	if u == v {
		panic(fmt.Sprintf("graph: self-loop on %v", u))
	}
	if u > v {
		u, v = v, u
	}
	if int(v) >= s.n {
		panic(fmt.Sprintf("graph: vertex %v out of range [0,%d)", v, s.n))
	}
	return uint32(u)<<16 | uint32(v)
}

// bit returns the word and the mask of key k's bit in the matrix.
func (s *EdgeSet) bit(k uint32) (int, uint64) {
	return int(k>>16)*s.stride + int(k&0xFFFF)>>6, 1 << (k & 63)
}

// slot returns the index of k in the table, or of the empty slot that ends
// its probe sequence, and whether k was found there. The table is never
// full, so the sequence ends.
func (s *EdgeSet) slot(k uint32) (int, bool) {
	mask := len(s.table) - 1
	for i := int(k * 0x9E3779B1 >> s.shift); ; i = (i + 1) & mask {
		switch s.table[i] {
		case k:
			return i, true
		case 0:
			return i, false
		}
	}
}

// has is Has on a packed key.
func (s *EdgeSet) has(k uint32) bool {
	if s.stride > 0 {
		if s.dense == nil {
			return false
		}
		w, b := s.bit(k)
		return s.dense[w]&b != 0
	}
	if len(s.table) == 0 {
		return false
	}
	_, found := s.slot(k)
	return found
}

// Has reports whether {u, v} is in the set. It panics on self-loops or
// out-of-range vertices.
func (s *EdgeSet) Has(u, v ids.NodeID) bool { return s.has(s.key(u, v)) }

// Add inserts {u, v} and reports whether it was new. It panics on
// self-loops or out-of-range vertices.
func (s *EdgeSet) Add(u, v ids.NodeID) bool {
	k := s.key(u, v)
	if s.stride > 0 {
		if s.dense == nil {
			s.dense = make([]uint64, s.n*s.stride)
		}
		w, b := s.bit(k)
		if s.dense[w]&b != 0 {
			return false
		}
		s.dense[w] |= b
	} else {
		if 2*(len(s.log)+1) > len(s.table) {
			if s.has(k) {
				return false
			}
			s.grow()
		}
		i, found := s.slot(k)
		if found {
			return false
		}
		s.table[i] = k
	}
	s.log = append(s.log, k)
	s.sum += edgeMix(k)
	return true
}

// grow doubles the table.
func (s *EdgeSet) grow() { s.rehash(max(2*len(s.table), minTableSize)) }

// rehash makes the table size slots, a power of two, within its capacity
// when it has the room, and inserts the members into it from the log.
func (s *EdgeSet) rehash(size int) {
	if size <= cap(s.table) {
		s.table = s.table[:size]
		clear(s.table)
	} else {
		s.table = make([]uint32, size)
	}
	s.shift = uint(32 - bits.TrailingZeros(uint(size)))
	for _, k := range s.log {
		i, _ := s.slot(k)
		s.table[i] = k
	}
}

// Equal reports whether s and t hold the same edges over the same vertices.
// Of equal sizes, they do when s has every member of t: Equal reads t's log
// in order and probes s, so a set that many are matched against — a
// decision memo's entry — stays in cache while it serves them.
func (s *EdgeSet) Equal(t *EdgeSet) bool {
	if s.n != t.n || len(s.log) != len(t.log) {
		return false
	}
	for _, k := range t.log {
		if !s.has(k) {
			return false
		}
	}
	return true
}

// Clone returns a copy of s that shares no storage with it, its table no
// larger than its members need, however far s's grew before a Reset.
func (s *EdgeSet) Clone() *EdgeSet {
	c := &EdgeSet{n: s.n, stride: s.stride, log: slices.Clone(s.log), sum: s.sum}
	if s.stride > 0 {
		c.dense = slices.Clone(s.dense)
	} else if m := len(s.log); m > 0 {
		c.rehash(max(minTableSize, 1<<bits.Len(uint(2*m-1)))) // at most half full
	}
	return c
}

// Load makes g the graph of the edge set s, reusing g's storage as Reset
// does, and leaves s as it was, so one set can be loaded by many readers.
// The lists are consecutive windows of one backing array, each capped at
// its length so an AddEdge on g copies the list it grows; behind them the
// array holds Load's scratch: the degrees, and the keys in sorted order,
// from which sorted lists fill in one pass. A graph loaded view after view
// stops allocating once it has held its largest.
func (g *Graph) Load(s *EdgeSet) {
	n, m := s.n, len(s.log)
	g.Reset(n)
	if size := 3*m + n; size > cap(g.flat) {
		g.flat = make([]ids.NodeID, size)
	} else {
		g.flat = g.flat[:size]
	}
	deg, keys := g.flat[2*m:2*m+n], g.flat[2*m+n:]
	clear(deg)
	for i, k := range s.log {
		keys[i] = ids.NodeID(k)
		deg[k>>16]++
		deg[k&0xFFFF]++
	}
	slices.Sort(keys)
	off := 0
	for v, d := range deg {
		g.nbr[v] = g.flat[off : off : off+int(d)]
		off += int(d)
	}
	// Sorted edges fill sorted lists: v's neighbors below it arrive in
	// order of the edges {u, v}, and then those above in order of {v, w}.
	for _, k := range keys {
		u, v := k>>16, k&0xFFFF
		g.nbr[u] = append(g.nbr[u], v)
		g.nbr[v] = append(g.nbr[v], u)
		g.setBit(u, v)
		g.setBit(v, u)
	}
	g.m = m
}

// edgeMix is a packed key's term of Sum: splitmix64's finalizer over the
// edge's endpoints.
func edgeMix(k uint32) uint64 {
	z := uint64(k>>16)<<32 | uint64(k&0xFFFF)
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}
