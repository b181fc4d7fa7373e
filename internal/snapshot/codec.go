// Package snapshot captures a frontend's post-warmup architectural state
// into a versioned, checksummed, content-addressed blob, so repeated
// specs on the same workload skip warmup entirely (the "warm-state
// snapshot" rung of the fidelity ladder; see docs/ARCHITECTURE.md).
//
// The encoding is a hand-rolled compact binary format rather than
// encoding/gob: the simulator state lives in unexported fields, maps must
// serialize in sorted order for determinism, and a decoder facing bytes
// from disk must never panic — every length is bounds-checked against the
// remaining input before allocation.
//
// A blob holds only the information in the state. Integers are varints
// (unsigned LEB128; signed values zigzag first, so the many -1 sentinels
// take one byte), floats are their 8 fixed IEEE-754 bytes (bit-exact),
// tables of bools are packed bitmaps, tables of 2-bit saturating counters
// pack four to a byte, and a sparse table writes the bitmap of its valid
// entries, their count, and then the fields of the valid entries only.
// Every value has exactly one encoding: the reader rejects padded
// varints, non-zero padding bits and a bitmap whose count disagrees with
// it, so equal states encode to equal bytes.
package snapshot

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"

	"xbc/internal/isa"
)

// Writer serializes state into a growing byte buffer whose first
// headerSize bytes are reserved for the envelope, so Seal fills the
// header in place instead of copying the payload. The zero value is ready
// to use. Writes cannot fail.
type Writer struct {
	buf []byte
}

// grow returns the buffer with the envelope header reserved.
func (w *Writer) grow() []byte {
	if w.buf == nil {
		w.buf = make([]byte, headerSize, 4096)
	}
	return w.buf
}

// Bytes returns the raw encoded payload (without envelope).
func (w *Writer) Bytes() []byte { return w.grow()[headerSize:] }

// U64 appends an unsigned varint.
func (w *Writer) U64(v uint64) { w.buf = binary.AppendUvarint(w.grow(), v) }

// U32 appends an unsigned varint.
func (w *Writer) U32(v uint32) { w.U64(uint64(v)) }

// U8 appends one byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.grow(), v) }

// I64 appends a zigzag varint: small magnitudes of either sign are short.
func (w *Writer) I64(v int64) { w.U64(uint64(v<<1) ^ uint64(v>>63)) }

// AddrFrom appends address a as a zigzag delta from base, an address the
// reader knows when it reads a (the previous instruction of a block, say),
// so nearby addresses take a byte or two.
func (w *Writer) AddrFrom(base, a isa.Addr) { w.I64(int64(a) - int64(base)) }

// Int appends an int as a zigzag varint.
func (w *Writer) Int(v int) { w.I64(int64(v)) }

// Bool appends a bool as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// F64 appends the 8 little-endian IEEE-754 bytes of a float64 (bit-exact
// round trip).
func (w *Writer) F64(v float64) {
	w.buf = binary.LittleEndian.AppendUint64(w.grow(), math.Float64bits(v))
}

// Len appends a length prefix for a slice or map about to be written.
func (w *Writer) Len(n int) { w.U64(uint64(n)) }

// Counters appends a length-prefixed table of 2-bit saturating counters,
// four to a byte (element i in bits 2*(i%4) of byte i/4), with the unused
// bits of the last byte zero. A value above 3 is not a 2-bit counter and
// panics: it would otherwise be silently truncated.
func (w *Writer) Counters(s []uint8) {
	w.Len(len(s))
	buf := w.grow()
	n, k := len(buf), (len(s)+3)/4
	buf = slices.Grow(buf, k)[:n+k]
	var tail [8]uint8
	for i, out := 0, buf[n:]; i < k; i += 2 {
		q := s[4*i:]
		if len(q) < 8 {
			copy(tail[:], q)
			q = tail[:]
		}
		// Eight counters, one per byte of x; each half folds into one
		// byte.
		x := binary.LittleEndian.Uint64(q)
		if x&0xfcfcfcfcfcfcfcfc != 0 {
			panic(fmt.Sprintf("snapshot: counters from %d hold % x, not 2-bit values", 4*i, q[:8]))
		}
		out[i] = fold4(uint32(x))
		if i+1 < k {
			out[i+1] = fold4(uint32(x >> 32))
		}
	}
	w.buf = buf
}

// fold4 packs four 2-bit counters, one per byte of x, into one byte.
func fold4(x uint32) uint8 { return uint8(x | x>>6 | x>>12 | x>>18) }

// bitmap appends n bits, bit i = set(i), eight to a byte (bit i%8 of byte
// i/8), and returns how many were set.
func (w *Writer) bitmap(n int, set func(int) bool) int {
	buf, k := w.grow(), 0
	for i := 0; i < n; i += 8 {
		var b uint8
		for j := i; j < min(i+8, n); j++ {
			if set(j) {
				b |= 1 << (j - i)
				k++
			}
		}
		buf = append(buf, b)
	}
	w.buf = buf
	return k
}

// Bools appends a length-prefixed []bool as a packed bitmap.
func (w *Writer) Bools(s []bool) {
	w.Len(len(s))
	w.bitmap(len(s), func(i int) bool { return s[i] })
}

// Sparse opens a sparse table of n entries: it appends n, the bitmap of
// the valid entries and their count. The caller then writes the fields of
// each valid entry, in index order, and nothing for the others.
func (w *Writer) Sparse(n int, valid func(int) bool) {
	w.Len(n)
	w.Len(w.bitmap(n, valid))
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

// U64 reads an unsigned varint. A varint cut short by the end of the
// input, one past 64 bits and one padded with a redundant zero group are
// all decode errors, so every value has exactly one encoding.
func (r *Reader) U64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.off < len(r.buf) && r.buf[r.off] < 0x80 {
		v := r.buf[r.off]
		r.off++
		return uint64(v)
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	switch {
	case n == 0:
		r.fail("truncated varint at offset %d of %d", r.off, len(r.buf))
		return 0
	case n < 0:
		r.fail("varint at offset %d overflows 64 bits", r.off)
		return 0
	case r.buf[r.off+n-1] == 0:
		r.fail("overlong varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

// Addr reads an instruction address, which the format stores as an
// unsigned varint. A value that does not fit isa.Addr is a decode error,
// not a truncated address that would restore a different state.
func (r *Reader) Addr() isa.Addr {
	at := r.off
	v := r.U64()
	if v > math.MaxUint32 {
		r.fail("address %#x at offset %d outside the 32-bit address space", v, at)
		return 0
	}
	return isa.Addr(v)
}

// AddrFrom reads an address written by Writer.AddrFrom against the same
// base. A delta that leaves the 32-bit address space is a decode error.
func (r *Reader) AddrFrom(base isa.Addr) isa.Addr {
	at := r.off
	v := int64(base) + r.I64()
	if v < 0 || v > math.MaxUint32 {
		r.fail("address delta at offset %d leaves the 32-bit address space from %#x", at, base)
		return 0
	}
	return isa.Addr(v)
}

// U32 reads an unsigned varint that must fit in 32 bits.
func (r *Reader) U32() uint32 {
	at := r.off
	v := r.U64()
	if v > math.MaxUint32 {
		r.fail("value %#x at offset %d overflows uint32", v, at)
		return 0
	}
	return uint32(v)
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// I64 reads a zigzag varint.
func (r *Reader) I64() int64 {
	u := r.U64()
	return int64(u>>1) ^ -int64(u&1)
}

// Int reads a zigzag varint and narrows it to int, failing on overflow.
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

// F64 reads 8 little-endian IEEE-754 bytes.
func (r *Reader) F64() float64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

// Len reads a length prefix of elements that follow it, each encoded in
// at least elemSize bytes, and bounds it by the bytes actually remaining,
// so a corrupt length can never drive an absurd allocation. elemSize must
// be the smallest encoding an element can have, or valid input is
// refused.
func (r *Reader) Len(elemSize int) int {
	at := r.off
	n := r.U64()
	if elemSize < 1 {
		elemSize = 1
	}
	if r.err == nil && n > uint64(r.Remaining()/elemSize) {
		r.fail("implausible length %d at offset %d with %d bytes remaining", n, at, r.Remaining())
		return 0
	}
	return int(n)
}

// LenExact reads a length prefix and requires it to equal want — for
// fixed-geometry state (cache arrays) whose size is determined by the
// config, not the blob.
func (r *Reader) LenExact(want int) {
	n := r.U64()
	if r.err == nil && n != uint64(want) {
		r.fail("length %d, want %d (geometry mismatch)", n, want)
	}
}

// packed reads the ceil(n*width/8) bytes of n width-bit fields and
// rejects non-zero padding bits after the last one.
func (r *Reader) packed(n, width int) []byte {
	b := r.take((n*width + 7) / 8)
	if b == nil {
		return nil
	}
	if used := n * width % 8; used != 0 && b[len(b)-1]>>used != 0 {
		r.fail("non-zero padding bits at offset %d", r.off-1)
		return nil
	}
	return b
}

// CountersInto decodes a table written by Counters in place; its length
// must match the destination. The encoding cannot express a counter
// outside 0..3.
func (r *Reader) CountersInto(dst []uint8) {
	r.LenExact(len(dst))
	if r.err != nil {
		return
	}
	b := r.packed(len(dst), 2)
	if b == nil {
		return
	}
	full := len(dst) / 4
	for i, x := range b[:full] {
		binary.LittleEndian.PutUint32(dst[4*i:], unpacked[x])
	}
	for i := 4 * full; i < len(dst); i++ {
		dst[i] = b[i/4] >> (2 * (i % 4)) & 3
	}
}

// unpacked maps a byte of four packed counters to the four counter bytes,
// little-endian, so decoding a table writes a word per packed byte.
var unpacked = func() (t [256]uint32) {
	for x := range t {
		for j := range 4 {
			t[x] |= uint32(x>>(2*j)&3) << (8 * j)
		}
	}
	return t
}()

// BoolsInto decodes a bitmap written by Bools in place; its length must
// match the destination.
func (r *Reader) BoolsInto(dst []bool) {
	r.LenExact(len(dst))
	if r.err != nil {
		return
	}
	b := r.packed(len(dst), 1)
	if b == nil {
		return
	}
	for i := range dst {
		dst[i] = b[i/8]>>(i%8)&1 != 0
	}
}

// Bitmap is the valid-entry bitmap of a sparse table, aliasing the
// payload it was read from.
type Bitmap []byte

// Has reports whether entry i is valid. The zero Bitmap (what a failed
// read returns) has no valid entries.
func (b Bitmap) Has(i int) bool { return i/8 < len(b) && b[i/8]>>(i%8)&1 != 0 }

// Sparse reads the header Writer.Sparse wrote for a table of n entries
// whose valid entries each take at least entrySize bytes. The count must
// equal the bitmap's population and fit in the remaining input; the
// caller then reads the valid entries in index order and resets the
// others to their fresh state.
func (r *Reader) Sparse(n, entrySize int) Bitmap {
	r.LenExact(n)
	if r.err != nil {
		return nil
	}
	b := r.packed(n, 1)
	k := r.Len(entrySize)
	if r.err != nil {
		return nil
	}
	pop := 0
	for _, x := range b {
		pop += bits.OnesCount8(x)
	}
	if pop != k {
		r.fail("bitmap marks %d valid entries, count says %d", pop, k)
		return nil
	}
	return Bitmap(b)
}

// StringMapF64 reads a map written by Writer.StringMapF64, whose keys
// must be in strictly increasing order. Returns nil for an empty map,
// matching the simulator's lazily-allocated maps.
func (r *Reader) StringMapF64() map[string]float64 {
	n := r.Len(9) // one-byte key length (the key may be empty), 8-byte value
	if r.err != nil || n == 0 {
		return nil
	}
	m := make(map[string]float64, n)
	prev := ""
	for i := 0; i < n; i++ {
		k := r.String()
		v := r.F64()
		if r.err == nil && i > 0 && k <= prev {
			r.fail("map key %q after %q: keys out of order", k, prev)
		}
		if r.err != nil {
			return nil
		}
		m[k], prev = v, k
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
