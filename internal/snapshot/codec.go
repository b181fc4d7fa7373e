// Package snapshot captures a frontend's post-warmup architectural state
// into a versioned, checksummed, content-addressed blob, so repeated
// specs on the same workload skip warmup entirely (the "warm-state
// snapshot" rung of the fidelity ladder; see docs/ARCHITECTURE.md).
//
// The encoding is a hand-rolled little-endian binary format rather than
// encoding/gob: the simulator state lives in unexported fields, maps must
// serialize in sorted order for determinism, and a decoder facing bytes
// from disk must never panic — every length is bounds-checked against the
// remaining input before allocation.
package snapshot

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"xbc/internal/isa"
)

// Writer serializes state into a growing byte buffer. The zero value is
// ready to use. Writes cannot fail; the buffer is handed to Seal which
// wraps it in the checksummed envelope.
type Writer struct {
	buf []byte
}

// Bytes returns the raw encoded payload (without envelope).
func (w *Writer) Bytes() []byte { return w.buf }

// U64 appends a little-endian uint64.
func (w *Writer) U64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

// U32 appends a little-endian uint32.
func (w *Writer) U32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }

// U8 appends one byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// I64 appends a two's-complement int64.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Int appends an int as an int64.
func (w *Writer) Int(v int) { w.I64(int64(v)) }

// Bool appends a bool as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// F64 appends the IEEE-754 bits of a float64 (bit-exact round trip).
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Len appends a length prefix for a slice or map about to be written.
func (w *Writer) Len(n int) { w.U32(uint32(n)) }

// U64s appends a length-prefixed []uint64.
func (w *Writer) U64s(s []uint64) {
	w.Len(len(s))
	for _, v := range s {
		w.U64(v)
	}
}

// U8s appends a length-prefixed []uint8.
func (w *Writer) U8s(s []uint8) {
	w.Len(len(s))
	w.buf = append(w.buf, s...)
}

// Bools appends a length-prefixed []bool.
func (w *Writer) Bools(s []bool) {
	w.Len(len(s))
	for _, v := range s {
		w.Bool(v)
	}
}

// StringMapF64 appends a map[string]float64 in sorted key order, so equal
// maps encode to equal bytes regardless of insertion history.
func (w *Writer) StringMapF64(m map[string]float64) {
	keys := make([]string, 0, len(m))
	//xbc:ignore nondeterm key collection; sorted before encoding
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	w.Len(len(keys))
	for _, k := range keys {
		w.String(k)
		w.F64(m[k])
	}
}

// String appends a length-prefixed string.
func (w *Writer) String(s string) {
	w.Len(len(s))
	w.buf = append(w.buf, s...)
}

// Reader decodes a payload written by Writer. Every read checks the
// remaining input first and latches the first error; once failed, all
// subsequent reads return zero values, so decoding straight-line code can
// defer the error check to the end. A Reader never panics on hostile
// input — truncation, bit flips and absurd lengths all surface as errors.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader wraps an encoded payload.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Err returns the first decode error, or nil.
func (r *Reader) Err() error { return r.err }

// Remaining reports how many bytes are left unread.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("snapshot: "+format, args...)
	}
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.buf)-r.off {
		r.fail("truncated: want %d bytes at offset %d of %d", n, r.off, len(r.buf))
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// Addr reads an instruction address, which the format stores as a uint64.
// A value that does not fit isa.Addr is a decode error, not a truncated
// address that would restore a different state.
func (r *Reader) Addr() isa.Addr {
	v := r.U64()
	if v > math.MaxUint32 {
		r.fail("address %#x at offset %d outside the 32-bit address space", v, r.off-8)
		return 0
	}
	return isa.Addr(v)
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// I64 reads a two's-complement int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Int reads an int64 and narrows it to int, failing on overflow.
func (r *Reader) Int() int {
	v := r.I64()
	if int64(int(v)) != v {
		r.fail("int64 %d overflows int", v)
		return 0
	}
	return int(v)
}

// Bool reads a bool; any byte other than 0 or 1 is a decode error (it
// means the stream is corrupt, not merely truthy).
func (r *Reader) Bool() bool {
	switch r.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail("bad bool byte at offset %d", r.off-1)
		return false
	}
}

// F64 reads IEEE-754 float64 bits.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Len reads a length prefix, bounding it by the bytes actually remaining
// (each element needs at least elemSize bytes), so a corrupt length can
// never drive an absurd allocation.
func (r *Reader) Len(elemSize int) int {
	n := int(r.U32())
	if elemSize < 1 {
		elemSize = 1
	}
	if n < 0 || n > r.Remaining()/elemSize+1 {
		r.fail("implausible length %d with %d bytes remaining", n, r.Remaining())
		return 0
	}
	return n
}

// LenExact reads a length prefix and requires it to equal want — for
// fixed-geometry state (cache arrays) whose size is determined by the
// config, not the blob.
func (r *Reader) LenExact(want int) {
	n := int(r.U32())
	if r.err == nil && n != want {
		r.fail("length %d, want %d (geometry mismatch)", n, want)
	}
}

// U64s reads a length-prefixed []uint64.
func (r *Reader) U64s() []uint64 {
	n := r.Len(8)
	if r.err != nil || n == 0 {
		return nil
	}
	s := make([]uint64, n)
	for i := range s {
		s[i] = r.U64()
	}
	return s
}

// U64sInto reads a length-prefixed []uint64 whose length must match the
// destination, decoding in place without allocating.
func (r *Reader) U64sInto(dst []uint64) {
	r.LenExact(len(dst))
	for i := range dst {
		dst[i] = r.U64()
	}
}

// U8sInto decodes a fixed-length []uint8 in place.
func (r *Reader) U8sInto(dst []uint8) {
	r.LenExact(len(dst))
	b := r.take(len(dst))
	if b != nil {
		copy(dst, b)
	}
}

// U8s reads a length-prefixed []uint8.
func (r *Reader) U8s() []uint8 {
	n := r.Len(1)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]uint8, n)
	b := r.take(n)
	if b == nil {
		return nil
	}
	copy(out, b)
	return out
}

// BoolsInto decodes a fixed-length []bool in place.
func (r *Reader) BoolsInto(dst []bool) {
	r.LenExact(len(dst))
	for i := range dst {
		dst[i] = r.Bool()
	}
}

// StringMapF64 reads a map written by Writer.StringMapF64. Returns nil
// for an empty map, matching the simulator's lazily-allocated maps.
func (r *Reader) StringMapF64() map[string]float64 {
	n := r.Len(5) // 4-byte key length + at least 1 byte key, 8-byte value
	if r.err != nil || n == 0 {
		return nil
	}
	m := make(map[string]float64, n)
	for i := 0; i < n; i++ {
		k := r.String()
		v := r.F64()
		if r.err != nil {
			return nil
		}
		m[k] = v
	}
	return m
}

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := r.Len(1)
	b := r.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}
