package snapshot

import (
	"bytes"
	"testing"
)

// FuzzOpen drives the envelope decoder with arbitrary blobs: truncations,
// bit flips, version skew, hostile lengths. Open must never panic, and
// whenever it does accept a blob the payload must round-trip through Seal
// to the same envelope (the CRC makes acceptance of a damaged blob a
// one-in-2^32 event, not a code path).
func FuzzOpen(f *testing.F) {
	f.Add([]byte{})
	f.Add(Seal(nil))
	f.Add(Seal([]byte("payload")))
	var w Writer
	w.U64(42)
	w.String("seed")
	w.U64s([]uint64{1, 2, 3})
	sealed := Seal(w.Bytes())
	f.Add(sealed)
	// Version skew: future version field.
	skew := append([]byte(nil), sealed...)
	skew[4] = 0xff
	f.Add(skew)
	// Bit flip in the payload.
	flip := append([]byte(nil), sealed...)
	flip[len(flip)-1] ^= 0x01
	f.Add(flip)
	f.Add(sealed[:len(sealed)-3])

	f.Fuzz(func(t *testing.T, blob []byte) {
		payload, err := Open(blob)
		if err != nil {
			return
		}
		if !bytes.Equal(Seal(payload), blob) {
			t.Fatalf("accepted blob does not round-trip: %d payload bytes", len(payload))
		}
	})
}

// FuzzReader drives the codec reader with arbitrary payloads through a
// fixed read script covering every decoder. The invariant is memory
// safety plus error latching: once Err() is non-nil every later read
// returns a zero value and the error never clears.
func FuzzReader(f *testing.F) {
	var w Writer
	w.U64(7)
	w.U32(9)
	w.U8(1)
	w.I64(-5)
	w.Int(12)
	w.Bool(true)
	w.F64(3.5)
	w.U64(0x1000) // an address
	w.U64s([]uint64{4, 5})
	w.U8s([]uint8{6})
	w.Bools([]bool{true, false})
	w.StringMapF64(map[string]float64{"a": 1})
	w.String("tail")
	f.Add(w.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, payload []byte) {
		r := NewReader(payload)
		_ = r.U64()
		_ = r.U32()
		_ = r.U8()
		_ = r.I64()
		_ = r.Int()
		_ = r.Bool()
		_ = r.F64()
		_ = r.Addr()
		_ = r.U64s()
		_ = r.U8s()
		var bools [2]bool
		r.BoolsInto(bools[:])
		_ = r.StringMapF64()
		_ = r.String()
		if err := r.Err(); err != nil {
			// Latched: further reads must keep failing with the same error.
			_ = r.U64()
			if r.Err() != err {
				t.Fatalf("error not latched: %v -> %v", err, r.Err())
			}
		}
	})
}
