package mtg

import (
	"encoding/binary"

	"github.com/nectar-repro/nectar/internal/ids"
	"github.com/nectar-repro/nectar/internal/sig"
	"github.com/nectar-repro/nectar/internal/wire"
)

// The reference codec: an MtGv2 batch built and read through allocating
// values, and the credential signed and checked on fresh statements. NodeV2
// writes and reads the same bytes in place; these tests hold it to them.

// SignID returns the signer's signed-ID credential.
func SignID(s sig.Signer) []byte { return s.Sign(appendIDStatement(nil, s.ID())) }

// VerifyID reports whether sg is id's valid signed-ID credential.
func VerifyID(v sig.Verifier, id ids.NodeID, sg []byte) bool {
	return v.Verify(id, appendIDStatement(nil, id), sg)
}

// SignedID is one flooded credential.
type SignedID struct {
	ID  ids.NodeID
	Sig []byte
}

// EncodeBatch serializes a batch of signed IDs: u16 count, then fixed
// (id, signature) entries. With DecodeBatch it is the reference codec that
// NodeV2's in-place Emit and Deliver are tested against.
func EncodeBatch(batch []SignedID, sigSize int) []byte {
	w := wire.NewWriter(2 + len(batch)*(4+sigSize))
	w.U16(uint16(len(batch)))
	for _, e := range batch {
		w.NodeID(e.ID)
		if len(e.Sig) != sigSize {
			fixed := make([]byte, sigSize)
			copy(fixed, e.Sig)
			w.Raw(fixed)
			continue
		}
		w.Raw(e.Sig)
	}
	return w.Bytes()
}

// DecodeBatch parses an EncodeBatch payload.
func DecodeBatch(data []byte, sigSize int) ([]SignedID, error) {
	r := wire.NewReader(data)
	count := int(r.U16())
	if r.Err() != nil {
		return nil, r.Err()
	}
	if count*(4+sigSize) > r.Remaining() {
		return nil, wire.ErrTruncated
	}
	out := make([]SignedID, 0, count)
	for i := 0; i < count; i++ {
		e := SignedID{ID: r.NodeID()}
		raw := r.Raw(sigSize)
		if r.Err() != nil {
			return nil, r.Err()
		}
		e.Sig = append([]byte(nil), raw...)
		out = append(out, e)
	}
	if err := r.Close(); err != nil {
		return nil, err
	}
	return out, nil
}

// Known returns the set of IDs whose credentials the node holds.
func (n *NodeV2) Known() ids.Set {
	out := make(ids.Set, n.held())
	for e := n.creds; len(e) > 0; e = e[n.entry:] {
		out.Add(ids.NodeID(binary.BigEndian.Uint32(e)))
	}
	return out
}
