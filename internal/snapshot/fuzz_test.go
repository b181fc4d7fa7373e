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
	w.Counters([]uint8{1, 2, 3})
	sealed := w.Seal()
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
// fixed read script covering every decoder. The invariants are memory
// safety, error latching (once Err() is non-nil every later read returns
// a zero value and the error never clears) and one encoding per value: a
// payload the script reads without error is exactly what writing the
// values back produces.
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
	w.AddrFrom(0x1000, 0xff0)
	w.Counters([]uint8{3, 1, 2, 0, 1})
	w.Bools([]bool{true, false})
	w.Sparse(10, func(i int) bool { return i%3 == 0 })
	for _, v := range []uint64{0, 300, 1, 1 << 40} {
		w.U64(v) // the four valid entries
	}
	w.StringMapF64(map[string]float64{"a": 1})
	w.String("tail")
	f.Add(w.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, payload []byte) {
		r := NewReader(payload)
		u64, u32, u8 := r.U64(), r.U32(), r.U8()
		i64, n, b := r.I64(), r.Int(), r.Bool()
		f64, addr := r.F64(), r.Addr()
		near := r.AddrFrom(0x1000)
		var counters [5]uint8
		r.CountersInto(counters[:])
		for _, c := range counters {
			if c > 3 {
				t.Fatalf("counter decoded as %d", c)
			}
		}
		var bools [2]bool
		r.BoolsInto(bools[:])
		valid := r.Sparse(10, 1)
		var entries []uint64
		for i := 0; i < 10; i++ {
			if valid.Has(i) {
				entries = append(entries, r.U64())
			}
		}
		m := r.StringMapF64()
		str := r.String()
		if err := r.Err(); err != nil {
			// Latched: further reads must keep failing with the same error.
			_ = r.U64()
			if r.Err() != err {
				t.Fatalf("error not latched: %v -> %v", err, r.Err())
			}
			return
		}
		var w Writer
		w.U64(u64)
		w.U32(u32)
		w.U8(u8)
		w.I64(i64)
		w.Int(n)
		w.Bool(b)
		w.F64(f64)
		w.U64(uint64(addr))
		w.AddrFrom(0x1000, near)
		w.Counters(counters[:])
		w.Bools(bools[:])
		w.Sparse(10, valid.Has)
		for _, e := range entries {
			w.U64(e)
		}
		w.StringMapF64(m)
		w.String(str)
		if read := payload[:len(payload)-r.Remaining()]; !bytes.Equal(w.Bytes(), read) {
			t.Fatalf("payload % x re-encodes as % x", read, w.Bytes())
		}
	})
}
