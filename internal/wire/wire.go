// Package wire implements the deterministic, reflection-free binary
// encoding used by every protocol message. Hand-rolled encoding keeps the
// byte accounting exact — the evaluation's "data sent per node" figures
// meter precisely these bytes — and avoids any nondeterminism that
// map-order or reflection-based encoders could introduce into signatures.
//
// All integers are big-endian and fixed width. Variable-length byte
// strings are length-prefixed with a uint32.
package wire

import (
	"encoding/binary"
	"errors"
	"slices"

	"github.com/nectar-repro/nectar/internal/ids"
)

// ErrTruncated is returned when a decoder runs past the end of input.
var ErrTruncated = errors.New("wire: truncated input")

// ErrTrailing is returned by Reader.Close when input bytes remain.
var ErrTrailing = errors.New("wire: trailing bytes after message")

// maxLenBytes bounds length-prefixed fields to keep malformed (or
// malicious) inputs from driving huge allocations.
const maxLenBytes = 1 << 24

// Writer accumulates an encoded message. The zero value is ready to use.
type Writer struct {
	buf []byte
}

// NewWriter returns a Writer with the given capacity hint.
func NewWriter(capacity int) *Writer {
	return &Writer{buf: make([]byte, 0, capacity)}
}

// MakeWriter returns a by-value Writer with the given capacity hint. Value
// writers let hot paths encode without heap-allocating the Writer itself
// (only the byte buffer escapes, and only if the caller retains it).
func MakeWriter(capacity int) Writer {
	return Writer{buf: make([]byte, 0, capacity)}
}

// Reset truncates the Writer to empty while keeping its capacity, so one
// Writer can serve as a reusable encode arena across rounds.
func (w *Writer) Reset() { w.buf = w.buf[:0] }

// Bytes returns the encoded bytes. The slice is owned by the Writer until
// the Writer is discarded.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the number of bytes written so far.
func (w *Writer) Len() int { return len(w.buf) }

// U8 appends a byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// U16 appends a big-endian uint16.
func (w *Writer) U16(v uint16) {
	w.buf = binary.BigEndian.AppendUint16(w.buf, v)
}

// U32 appends a big-endian uint32.
func (w *Writer) U32(v uint32) {
	w.buf = binary.BigEndian.AppendUint32(w.buf, v)
}

// U64 appends a big-endian uint64.
func (w *Writer) U64(v uint64) {
	w.buf = binary.BigEndian.AppendUint64(w.buf, v)
}

// NodeID appends a node identifier (4 bytes).
func (w *Writer) NodeID(id ids.NodeID) { w.U32(uint32(id)) }

// Raw appends b with no length prefix (for fixed-size fields such as
// signatures).
func (w *Writer) Raw(b []byte) { w.buf = append(w.buf, b...) }

// Extend appends n bytes of unspecified content and returns them for the
// caller to fill in place: a fixed-layout region of known size costs one
// capacity check, not one per field. Valid until the Writer next grows.
func (w *Writer) Extend(n int) []byte {
	w.buf = slices.Grow(w.buf, n)[:len(w.buf)+n]
	return w.buf[len(w.buf)-n:]
}

// LenBytes appends a uint32 length prefix followed by b.
func (w *Writer) LenBytes(b []byte) {
	w.U32(uint32(len(b)))
	w.Raw(b)
}

// Reader decodes a message produced by Writer. It is error-sticky: after
// the first failure every accessor returns zero values and Err reports the
// failure, so call sites can decode unconditionally and check once.
type Reader struct {
	data []byte
	off  int
	err  error
}

// NewReader returns a Reader over data. The Reader does not copy data.
func NewReader(data []byte) *Reader { return &Reader{data: data} }

// ReaderOf returns a by-value Reader over data. Value readers decode
// sub-slices of a message without any heap allocation — the header-first
// lazy decode of the NECTAR hot path peeks at message prefixes this way
// (DESIGN.md §9). The Reader does not copy data.
func ReaderOf(data []byte) Reader { return Reader{data: data} }

// Sub returns a by-value Reader over the next n bytes and advances r past
// them, allowing a framed sub-message to be decoded without copying. On
// truncation r enters its sticky error state and the returned Reader
// reports the same error.
func (r *Reader) Sub(n int) Reader {
	b := r.take(n)
	if b == nil {
		return Reader{err: r.err}
	}
	return Reader{data: b}
}

// Err returns the first decoding error, if any.
func (r *Reader) Err() error { return r.err }

// Fail puts the reader into the sticky error state (first error wins).
// Decoders use it to reject structurally invalid input they detect before
// consuming it.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.data) - r.off }

// Close verifies the input was fully consumed and error-free.
func (r *Reader) Close() error {
	if r.err != nil {
		return r.err
	}
	if r.Remaining() != 0 {
		return ErrTrailing
	}
	return nil
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.Remaining() < n {
		r.err = ErrTruncated
		return nil
	}
	out := r.data[r.off : r.off+n]
	r.off += n
	return out
}

// U8 reads a byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U16 reads a big-endian uint16.
func (r *Reader) U16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

// U32 reads a big-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

// U64 reads a big-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// NodeID reads a node identifier.
func (r *Reader) NodeID() ids.NodeID { return ids.NodeID(r.U32()) }

// Raw reads exactly n bytes without copying; the result aliases the input.
func (r *Reader) Raw(n int) []byte { return r.take(n) }

// LenBytes reads a uint32-length-prefixed byte string without copying.
func (r *Reader) LenBytes() []byte {
	n := r.U32()
	if r.err != nil {
		return nil
	}
	if n > maxLenBytes {
		r.err = ErrTruncated
		return nil
	}
	return r.take(int(n))
}
