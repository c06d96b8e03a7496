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

// denseMaxWords is the largest row width, in 64-bit words, at which a set
// keeps its whole adjacency matrix as bits: up to n = 192, every view at the
// paper's scale, where the n×⌈n/64⌉-word matrix is at most 4.5 KB.
const denseMaxWords = 3

// minTableSize is the first size of an EdgeSet's hash table.
const minTableSize = 16

// tableSize is the size of a table that holds m keys at most half full.
func tableSize(m int) int {
	if m <= minTableSize/2 {
		return minTableSize
	}
	return 1 << bits.Len(uint(2*m-1))
}

// home is the first slot of key k's probe sequence in a table of
// 1<<(32-shift) slots.
func home(k uint32, shift uint) int { return int(k * 0x9E3779B1 >> shift) }

// EdgeIndex numbers the edges of one graph G, 0 to m-1: the shared half of
// the views over G (EdgeSet.ResetOn). A view keeps each edge of G as the
// bit of its number, so its membership test is one probe of this table —
// the same for every view of a run, so it stays in cache — and one bit
// test. It is built once and never written again: safe for concurrent use.
type EdgeIndex struct {
	n, m  int
	slots []uint64 // key<<32 | number, 0 = empty slot; length a power of two, at most half full
	shift uint     // 32 - log2(len(slots)), as EdgeSet's
}

// NewEdgeIndex returns the index of g's edges, or nil where a view over
// g's vertices keeps the whole bit matrix instead (n ≤ 192; DESIGN.md §14)
// and where no view can be built (n > MaxSetVertices).
func NewEdgeIndex(g *Graph) *EdgeIndex {
	n := g.N()
	if (n+63)/64 <= denseMaxWords || n > MaxSetVertices {
		return nil
	}
	size := tableSize(g.M())
	x := &EdgeIndex{n: n, m: g.M(), slots: make([]uint64, size), shift: uint(32 - bits.TrailingZeros(uint(size)))}
	number := uint64(0)
	for u, nbr := range g.nbr {
		for _, v := range nbr {
			if ids.NodeID(u) > v {
				continue
			}
			k := uint32(u)<<16 | uint32(v)
			i := home(k, x.shift)
			for x.slots[i] != 0 {
				i = (i + 1) & (size - 1)
			}
			x.slots[i] = uint64(k)<<32 | number
			number++
		}
	}
	return x
}

// number returns the number of the edge packed as k, or -1 when it is not
// an edge of G.
func (x *EdgeIndex) number(k uint32) int {
	for i := home(k, x.shift); ; i = (i + 1) & (len(x.slots) - 1) {
		switch e := x.slots[i]; uint32(e >> 32) {
		case k:
			return int(uint32(e))
		case 0:
			return -1
		}
	}
}

// EdgeSet is a set of edges over the vertices [0, n): a NECTAR node's view
// while it floods (DESIGN.md §9, §14). Propagation asks only whether an
// edge is known and adds it (Alg. 1 ll. 13-15), so a delivery costs one
// probe and an accept one insert; adjacency is left to the decision phase,
// which loads the set into a Graph (Graph.Load).
//
// Membership takes one of three forms. Up to n = 192 it is the whole bit
// matrix, one bit per pair. Above, a set reset on the index of a graph G
// (ResetOn) keeps each edge of G as one bit of ⌈m/64⌉ words, and only the
// edges outside G — a Byzantine coalition's fake edges — in an
// open-addressed table of packed 32-bit keys, kept at most half full; a set
// with no index keeps every member in the table. Beside it run Sum and a
// log of the members' keys, from which the table is rehashed and a graph
// loaded. The zero value is an empty set over zero vertices; Reset sizes
// it.
//
// EdgeSet is not safe for concurrent use.
type EdgeSet struct {
	n      int
	stride int        // words per row of the bit matrix; 0 when the index and the table hold the set
	index  *EdgeIndex // with stride 0, the edges kept in words; nil when the table holds every member
	words  []uint64   // the bit matrix (bit v of row u for each member {u < v}), or bit i for the index's edge i
	table  []uint32   // packed keys of the members words do not hold, 0 = empty slot; length a power of two
	tabled int        // keys in table
	shift  uint       // 32 - log2(len(table)): a key's hash keeps its top bits
	log    []uint32   // the members' keys
	sum    uint64
}

// Reset makes s the empty set over n vertices (n ≤ MaxSetVertices), with
// no index, while keeping what it has allocated: the log's capacity, the
// table (cleared) and the bit words (zeroed) when the new size still fits
// them. A set rebuilt run after run — a node's pooled view — stops
// allocating once it has seen its working size.
func (s *EdgeSet) Reset(n int) { s.ResetOn(n, nil) }

// ResetOn is Reset with the edges that x numbers kept as bits; x is nil or
// the index of a graph over n vertices, and the set reads it, never writes
// it, for as long as it is reset on it.
func (s *EdgeSet) ResetOn(n int, x *EdgeIndex) {
	if n < 0 || n > MaxSetVertices {
		panic(fmt.Sprintf("graph: EdgeSet over %d vertices, want [0, %d]", n, MaxSetVertices))
	}
	if x != nil && x.n != n {
		panic(fmt.Sprintf("graph: EdgeSet over %d vertices on the index of a graph over %d", n, x.n))
	}
	s.n, s.stride, s.index, s.log, s.sum = n, 0, x, s.log[:0], 0
	words := 0
	if x != nil {
		words = (x.m + 63) / 64
	} else if w := (n + 63) / 64; w <= denseMaxWords {
		s.stride, words = w, n*w
	}
	if words <= cap(s.words) {
		s.words = s.words[:words]
		clear(s.words)
	} else {
		s.words = make([]uint64, words)
	}
	if s.tabled > 0 {
		clear(s.table)
		s.tabled = 0
	}
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
	lo, hi := min(u, v), max(u, v)
	if lo == hi || int(hi) >= s.n {
		panic(badPair{hi, s.n})
	}
	return uint32(lo)<<16 | uint32(hi)
}

// badPair is key's panic: a self-loop on v, or v out of range.
type badPair struct {
	v ids.NodeID
	n int
}

func (p badPair) Error() string {
	if int(p.v) < p.n {
		return fmt.Sprintf("graph: self-loop on %v", p.v)
	}
	return fmt.Sprintf("graph: vertex %v out of range [0,%d)", p.v, p.n)
}

// bit returns the position of key k's bit in words, or -1 when the table
// holds k instead.
func (s *EdgeSet) bit(k uint32) int {
	if s.index != nil {
		return s.index.number(k)
	}
	if s.stride == 0 {
		return -1
	}
	return int(k>>16)*s.stride<<6 + int(k&0xFFFF)
}

// slot returns the index of k in the table, or of the empty slot that ends
// its probe sequence, and whether k was found there. The table is never
// full, so the sequence ends.
func (s *EdgeSet) slot(k uint32) (int, bool) {
	mask := len(s.table) - 1
	for i := home(k, s.shift); ; i = (i + 1) & mask {
		switch s.table[i] {
		case k:
			return i, true
		case 0:
			return i, false
		}
	}
}

// tableHas reports whether the table holds k.
func (s *EdgeSet) tableHas(k uint32) bool {
	if s.tabled == 0 {
		return false
	}
	_, found := s.slot(k)
	return found
}

// has is Has on a packed key.
func (s *EdgeSet) has(k uint32) bool {
	if i := s.bit(k); i >= 0 {
		return s.words[i>>6]&(1<<(i&63)) != 0
	}
	return s.tableHas(k)
}

// Has reports whether {u, v} is in the set. It panics on self-loops or
// out-of-range vertices.
func (s *EdgeSet) Has(u, v ids.NodeID) bool { return s.has(s.key(u, v)) }

// Add inserts {u, v} and reports whether it was new. It panics on
// self-loops or out-of-range vertices.
func (s *EdgeSet) Add(u, v ids.NodeID) bool {
	k := s.key(u, v)
	if i := s.bit(k); i >= 0 {
		w, b := i>>6, uint64(1)<<(i&63)
		if s.words[w]&b != 0 {
			return false
		}
		s.words[w] |= b
	} else {
		if 2*(s.tabled+1) > len(s.table) {
			if s.tableHas(k) {
				return false
			}
			s.grow()
		}
		i, found := s.slot(k)
		if found {
			return false
		}
		s.table[i] = k
		s.tabled++
	}
	s.log = append(s.log, k)
	s.sum += edgeMix(k)
	return true
}

// grow doubles the table.
func (s *EdgeSet) grow() { s.rehash(max(2*len(s.table), minTableSize)) }

// rehash makes the table size slots, a power of two, within its capacity
// when it has the room, and inserts the members it holds into it from the
// log.
func (s *EdgeSet) rehash(size int) {
	if size <= cap(s.table) {
		s.table = s.table[:size]
		clear(s.table)
	} else {
		s.table = make([]uint32, size)
	}
	s.shift = uint(32 - bits.TrailingZeros(uint(size)))
	for _, k := range s.log {
		if s.bit(k) < 0 {
			i, _ := s.slot(k)
			s.table[i] = k
		}
	}
}

// Equal reports whether s and t hold the same edges over the same vertices.
// Of equal sizes, they do when s has every member of t. Sets whose bits
// mean the same edges — two bit matrices of n, or two sets on one index —
// compare their words and then t's table members, few or none; otherwise
// Equal reads t's log in order and probes s.
func (s *EdgeSet) Equal(t *EdgeSet) bool {
	if s.n != t.n || len(s.log) != len(t.log) {
		return false
	}
	if s.index != t.index || s.index == nil && s.stride == 0 {
		for _, k := range t.log {
			if !s.has(k) {
				return false
			}
		}
		return true
	}
	if !slices.Equal(s.words, t.words) {
		return false
	}
	// As many members in words, so as many in the tables.
	if t.tabled > 0 {
		for _, k := range t.table {
			if k != 0 && !s.tableHas(k) {
				return false
			}
		}
	}
	return true
}

// Clone returns a copy of s that shares no storage with it but the index,
// its table no larger than its members need, however far s's grew before a
// Reset.
func (s *EdgeSet) Clone() *EdgeSet {
	c := &EdgeSet{n: s.n, stride: s.stride, index: s.index, words: slices.Clone(s.words), tabled: s.tabled, log: slices.Clone(s.log), sum: s.sum}
	if s.tabled > 0 {
		c.rehash(tableSize(s.tabled))
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
