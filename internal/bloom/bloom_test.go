package bloom

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/nectar-repro/nectar/internal/ids"
)

// Union merges other into f: the reference UnionBinary is held to. Filters
// must share geometry.
func (f *Filter) Union(other *Filter) error {
	if other.mBits != f.mBits || other.hashes != f.hashes {
		return fmt.Errorf("bloom: geometry mismatch (%d/%d vs %d/%d)",
			f.mBits, f.hashes, other.mBits, other.hashes)
	}
	for i := range f.bits {
		f.bits[i] |= other.bits[i]
	}
	return nil
}

func TestNoFalseNegatives(t *testing.T) {
	f := New(256, 3)
	for id := ids.NodeID(0); id < 50; id++ {
		f.Add(id)
		if !f.MightContain(id) {
			t.Fatalf("false negative for %v immediately after Add", id)
		}
	}
	for id := ids.NodeID(0); id < 50; id++ {
		if !f.MightContain(id) {
			t.Errorf("false negative for %v", id)
		}
	}
}

func TestQuickNoFalseNegatives(t *testing.T) {
	f := func(raw []uint16) bool {
		fl := New(512, 3)
		for _, r := range raw {
			fl.Add(ids.NodeID(r))
		}
		for _, r := range raw {
			if !fl.MightContain(ids.NodeID(r)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEmptyFilterContainsNothingMuch(t *testing.T) {
	f := New(768, 3)
	if got := f.CountOf(100); got != 0 {
		t.Errorf("empty filter claims %d members", got)
	}
	if f.PopCount() != 0 {
		t.Errorf("empty filter PopCount = %d", f.PopCount())
	}
}

func TestFalsePositiveRateReasonable(t *testing.T) {
	// The MtG defaults (768 bits, 3 hashes) must keep the FP rate usable
	// at 50 inserted IDs: well under 10% over a 1000-ID probe.
	f := New(768, 3)
	for id := ids.NodeID(0); id < 50; id++ {
		f.Add(id)
	}
	fp := 0
	for id := ids.NodeID(1000); id < 2000; id++ {
		if f.MightContain(id) {
			fp++
		}
	}
	if fp > 100 {
		t.Errorf("false positive rate %d/1000 too high", fp)
	}
}

func TestUnionMergesMemberships(t *testing.T) {
	a := New(256, 3)
	b := New(256, 3)
	a.Add(1)
	b.Add(2)
	if err := a.Union(b); err != nil {
		t.Fatal(err)
	}
	if !a.MightContain(1) || !a.MightContain(2) {
		t.Error("union lost members")
	}
	if b.MightContain(1) {
		t.Error("union mutated operand")
	}
}

func TestUnionGeometryMismatch(t *testing.T) {
	if err := New(256, 3).Union(New(512, 3)); err == nil {
		t.Error("geometry mismatch accepted")
	}
	if err := New(256, 3).Union(New(256, 4)); err == nil {
		t.Error("hash-count mismatch accepted")
	}
}

func TestFillPoisoning(t *testing.T) {
	// §V-D: a full filter claims everything is reachable.
	f := New(256, 3)
	f.Fill()
	if got := f.CountOf(1000); got != 1000 {
		t.Errorf("poisoned filter claims only %d/1000", got)
	}
	if f.PopCount() != 256 {
		t.Errorf("PopCount = %d, want 256", f.PopCount())
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		f := New(320, 3)
		for i := 0; i < rng.Intn(40); i++ {
			f.Add(ids.NodeID(rng.Intn(200)))
		}
		g := New(320, 3)
		if err := g.UnmarshalInto(f.MarshalBinary()); err != nil {
			t.Fatal(err)
		}
		if !f.Equal(g) {
			t.Fatal("marshal round trip changed filter")
		}
	}
}

// TestInPlaceCodecMatchesReference: AppendBinary appends exactly
// MarshalBinary's bytes, and UnionBinary leaves a filter exactly as
// UnmarshalInto followed by Union does.
func TestInPlaceCodecMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	fill := func(f *Filter) *Filter {
		for i := rng.Intn(60); i > 0; i-- {
			f.Add(ids.NodeID(rng.Intn(500)))
		}
		return f
	}
	for trial := 0; trial < 50; trial++ {
		f, other := fill(New(768, 3)), fill(New(768, 3))
		prefix := []byte{0xAB, 0xCD}
		if got := f.AppendBinary(prefix); !bytes.Equal(got[:2], prefix) || !bytes.Equal(got[2:], f.MarshalBinary()) {
			t.Fatal("AppendBinary differs from MarshalBinary")
		}
		want := f.Clone()
		decoded := New(768, 3)
		if err := decoded.UnmarshalInto(other.MarshalBinary()); err != nil {
			t.Fatal(err)
		}
		if err := want.Union(decoded); err != nil {
			t.Fatal(err)
		}
		if err := f.UnionBinary(other.MarshalBinary()); err != nil {
			t.Fatal(err)
		}
		if !f.Equal(want) {
			t.Fatal("UnionBinary differs from UnmarshalInto + Union")
		}
	}
	f := fill(New(256, 3))
	before := f.Clone()
	for _, size := range []int{0, 7, 31, 33} {
		if err := f.UnionBinary(bytes.Repeat([]byte{0xFF}, size)); err == nil {
			t.Errorf("%d-byte payload accepted by a 32-byte filter", size)
		}
	}
	if !f.Equal(before) {
		t.Error("rejected payload changed the filter")
	}
}

func TestUnmarshalSizeMismatch(t *testing.T) {
	f := New(256, 3)
	if err := f.UnmarshalInto(make([]byte, 7)); err == nil {
		t.Error("wrong-size payload accepted")
	}
}

func TestCloneIndependence(t *testing.T) {
	f := New(256, 3)
	f.Add(1)
	c := f.Clone()
	c.Add(2)
	if f.MightContain(2) && !f.MightContain(1) {
		t.Error("clone shares bits with original")
	}
	if !f.Equal(f.Clone()) {
		t.Error("clone not equal to source")
	}
}

func TestRoundsUpToWordSize(t *testing.T) {
	f := New(100, 2)
	if f.MBits() != 128 {
		t.Errorf("MBits = %d, want 128", f.MBits())
	}
	if f.ByteSize() != 16 {
		t.Errorf("ByteSize = %d, want 16", f.ByteSize())
	}
	if f.Hashes() != 2 {
		t.Errorf("Hashes = %d", f.Hashes())
	}
}

func TestNewPanicsOnBadGeometry(t *testing.T) {
	for _, tc := range []struct{ m, h int }{{0, 3}, {256, 0}, {-1, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d) did not panic", tc.m, tc.h)
				}
			}()
			New(tc.m, tc.h)
		}()
	}
}
