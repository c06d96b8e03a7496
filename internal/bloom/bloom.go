// Package bloom implements the Bloom filters MindTheGap uses to gossip
// reachable-node sets (§V-A; Bouget et al. [6]). Filters over node IDs
// support insertion, membership, union (the gossip merge), and the
// all-ones poisoning that §V-D's Byzantine attack exploits.
package bloom

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/bits"

	"github.com/nectar-repro/nectar/internal/ids"
)

// Filter is a fixed-size Bloom filter over node IDs.
type Filter struct {
	bits   []uint64
	mBits  int
	hashes int
}

// New returns an empty filter with mBits bits (rounded up to a multiple of
// 64) and the given number of hash functions. It panics on non-positive
// parameters (filter geometry is static configuration, not runtime input).
func New(mBits, hashes int) *Filter {
	f := Over(make([]uint64, Words(mBits)), hashes)
	return &f
}

// Words returns the number of 64-bit words a filter of mBits bits takes.
func Words(mBits int) int { return (mBits + 63) / 64 }

// Over returns an empty filter of len(words)·64 bits stored in words, which
// must be zero, so many filters can be windows of one slab. It panics on
// empty words or non-positive hashes, as New does.
func Over(words []uint64, hashes int) Filter {
	if len(words) == 0 || hashes <= 0 {
		panic(fmt.Sprintf("bloom: invalid geometry mBits=%d hashes=%d", 64*len(words), hashes))
	}
	return Filter{bits: words, mBits: 64 * len(words), hashes: hashes}
}

// MBits returns the filter width in bits.
func (f *Filter) MBits() int { return f.mBits }

// Hashes returns the number of hash functions.
func (f *Filter) Hashes() int { return f.hashes }

// indexes yields the probe positions for id via double hashing over
// FNV-1a.
func (f *Filter) indexes(id ids.NodeID, probe func(int)) {
	h := fnv.New64a()
	var buf [4]byte
	buf[0] = byte(id >> 24)
	buf[1] = byte(id >> 16)
	buf[2] = byte(id >> 8)
	buf[3] = byte(id)
	h.Write(buf[:])
	h1 := h.Sum64()
	h.Write([]byte{0x9e})
	h2 := h.Sum64() | 1
	for i := 0; i < f.hashes; i++ {
		probe(int((h1 + uint64(i)*h2) % uint64(f.mBits)))
	}
}

// Add inserts id.
func (f *Filter) Add(id ids.NodeID) {
	f.indexes(id, func(i int) {
		f.bits[i/64] |= 1 << (i % 64)
	})
}

// MightContain reports whether id may have been inserted. False positives
// are possible; false negatives are not.
func (f *Filter) MightContain(id ids.NodeID) bool {
	ok := true
	f.indexes(id, func(i int) {
		if f.bits[i/64]&(1<<(i%64)) == 0 {
			ok = false
		}
	})
	return ok
}

// Fill sets every bit — the §V-D Byzantine poisoning: a full filter claims
// every node is reachable.
func (f *Filter) Fill() {
	for i := range f.bits {
		f.bits[i] = ^uint64(0)
	}
}

// CountOf returns how many of the IDs 0..n-1 the filter might contain —
// MindTheGap's reachable-node estimate.
func (f *Filter) CountOf(n int) int {
	count := 0
	for id := 0; id < n; id++ {
		if f.MightContain(ids.NodeID(id)) {
			count++
		}
	}
	return count
}

// PopCount returns the number of set bits.
func (f *Filter) PopCount() int {
	total := 0
	for _, w := range f.bits {
		total += bits.OnesCount64(w)
	}
	return total
}

// ByteSize returns the wire size of the bit array.
func (f *Filter) ByteSize() int { return f.mBits / 8 }

// MarshalBinary serializes the bit array (geometry travels out of band:
// all MtG nodes share static configuration).
func (f *Filter) MarshalBinary() []byte {
	return f.AppendBinary(make([]byte, 0, f.ByteSize()))
}

// AppendBinary appends MarshalBinary's encoding to dst and returns the
// extended slice, so a gossiping node can reuse one buffer every round.
func (f *Filter) AppendBinary(dst []byte) []byte {
	for _, w := range f.bits {
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	return dst
}

// UnmarshalInto parses data produced by MarshalBinary into f. The data
// must match f's geometry.
func (f *Filter) UnmarshalInto(data []byte) error {
	if len(data) != f.ByteSize() {
		return fmt.Errorf("bloom: %d bytes for a %d-byte filter", len(data), f.ByteSize())
	}
	for i := range f.bits {
		var w uint64
		for b := 7; b >= 0; b-- {
			w = w<<8 | uint64(data[i*8+b])
		}
		f.bits[i] = w
	}
	return nil
}

// UnionBinary merges a MarshalBinary encoding into f in place: the bitwise
// OR with the filter UnmarshalInto would decode, without building it. data
// must match f's geometry; on a length mismatch f is left unchanged.
func (f *Filter) UnionBinary(data []byte) error {
	if len(data) != f.ByteSize() {
		return fmt.Errorf("bloom: %d bytes for a %d-byte filter", len(data), f.ByteSize())
	}
	for i := range f.bits {
		f.bits[i] |= binary.LittleEndian.Uint64(data[i*8:])
	}
	return nil
}

// Clone returns an independent copy.
func (f *Filter) Clone() *Filter {
	c := New(f.mBits, f.hashes)
	copy(c.bits, f.bits)
	return c
}

// Equal reports whether two filters have identical geometry and bits.
func (f *Filter) Equal(other *Filter) bool {
	if other.mBits != f.mBits || other.hashes != f.hashes {
		return false
	}
	for i := range f.bits {
		if f.bits[i] != other.bits[i] {
			return false
		}
	}
	return true
}
