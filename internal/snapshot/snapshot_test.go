package snapshot

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestCodecRoundTrip(t *testing.T) {
	var w Writer
	w.U64(0xdeadbeefcafef00d)
	w.U64(math.MaxUint64)
	w.U32(42)
	w.U32(math.MaxUint32)
	w.U8(7)
	w.U8(0xff)
	w.I64(-9)
	w.I64(math.MinInt64)
	w.I64(math.MaxInt64)
	w.Int(123456)
	w.Int(-1)
	w.Bool(true)
	w.Bool(false)
	w.F64(3.14159)
	w.F64(math.Copysign(0, -1))
	w.Len(3)
	for _, v := range []uint64{1, 2, 300} {
		w.U64(v)
	}
	w.Counters([]uint8{3, 0, 1, 2, 2})
	w.Bools([]bool{true, false, true})
	valid := []bool{false, true, false, false, true, false, false, false, true}
	w.Sparse(len(valid), func(i int) bool { return valid[i] })
	w.StringMapF64(map[string]float64{"b": 2, "a": 1, "": -0.5})
	w.String("hello")

	r := NewReader(w.Bytes())
	if got := r.U64(); got != 0xdeadbeefcafef00d {
		t.Fatalf("U64 = %#x", got)
	}
	if got := r.U64(); got != math.MaxUint64 {
		t.Fatalf("U64 max = %#x", got)
	}
	if got := r.U32(); got != 42 {
		t.Fatalf("U32 = %d", got)
	}
	if got := r.U32(); got != math.MaxUint32 {
		t.Fatalf("U32 max = %d", got)
	}
	if got := r.U8(); got != 7 {
		t.Fatalf("U8 = %d", got)
	}
	if got := r.U8(); got != 0xff {
		t.Fatalf("U8 max = %d", got)
	}
	for _, want := range []int64{-9, math.MinInt64, math.MaxInt64} {
		if got := r.I64(); got != want {
			t.Fatalf("I64 = %d, want %d", got, want)
		}
	}
	if got := r.Int(); got != 123456 {
		t.Fatalf("Int = %d", got)
	}
	if got := r.Int(); got != -1 {
		t.Fatalf("Int = %d", got)
	}
	if !r.Bool() || r.Bool() {
		t.Fatal("bool round trip")
	}
	if got := r.F64(); got != 3.14159 {
		t.Fatalf("F64 = %v", got)
	}
	if got := r.F64(); math.Float64bits(got) != math.Float64bits(math.Copysign(0, -1)) {
		t.Fatalf("F64 -0 = %v (bits %#x)", got, math.Float64bits(got))
	}
	if n := r.Len(1); n != 3 {
		t.Fatalf("Len = %d", n)
	}
	for _, want := range []uint64{1, 2, 300} {
		if got := r.U64(); got != want {
			t.Fatalf("U64 = %d, want %d", got, want)
		}
	}
	cs := make([]uint8, 5)
	r.CountersInto(cs)
	if !bytes.Equal(cs, []uint8{3, 0, 1, 2, 2}) {
		t.Fatalf("Counters = %v", cs)
	}
	bs := make([]bool, 3)
	r.BoolsInto(bs)
	if !bs[0] || bs[1] || !bs[2] {
		t.Fatalf("Bools = %v", bs)
	}
	bm := r.Sparse(len(valid), 1)
	for i, v := range valid {
		if bm.Has(i) != v {
			t.Fatalf("Sparse bit %d = %v, want %v", i, bm.Has(i), v)
		}
	}
	m := r.StringMapF64()
	if len(m) != 3 || m["a"] != 1 || m["b"] != 2 || m[""] != -0.5 {
		t.Fatalf("map = %v", m)
	}
	if got := r.String(); got != "hello" {
		t.Fatalf("String = %q", got)
	}
	if err := r.Err(); err != nil {
		t.Fatalf("Err = %v", err)
	}
	if r.Remaining() != 0 {
		t.Fatalf("%d bytes left over", r.Remaining())
	}
}

// Small values take one byte: the point of the varint encoding.
func TestCodecVarintSizes(t *testing.T) {
	for _, c := range []struct {
		name  string
		write func(*Writer)
		size  int
	}{
		{"U64 0", func(w *Writer) { w.U64(0) }, 1},
		{"U64 127", func(w *Writer) { w.U64(127) }, 1},
		{"U64 128", func(w *Writer) { w.U64(128) }, 2},
		{"U64 max", func(w *Writer) { w.U64(math.MaxUint64) }, 10},
		{"Int -1", func(w *Writer) { w.Int(-1) }, 1},
		{"Int 63", func(w *Writer) { w.Int(63) }, 1},
		{"Int -65", func(w *Writer) { w.Int(-65) }, 2},
		{"F64", func(w *Writer) { w.F64(1) }, 8},
		{"9 counters", func(w *Writer) { w.Counters(make([]uint8, 9)) }, 1 + 3},
		{"9 bools", func(w *Writer) { w.Bools(make([]bool, 9)) }, 1 + 2},
		{"empty sparse 16", func(w *Writer) { w.Sparse(16, func(int) bool { return false }) }, 1 + 2 + 1},
	} {
		var w Writer
		c.write(&w)
		if got := len(w.Bytes()); got != c.size {
			t.Errorf("%s: %d bytes, want %d", c.name, got, c.size)
		}
	}
}

// A counter table whose length is not a multiple of four leaves padding
// bits in its last byte; they are zero on write and must be zero on read.
func TestCountersPadding(t *testing.T) {
	for n := 0; n <= 9; n++ {
		src := make([]uint8, n)
		for i := range src {
			src[i] = uint8(3 - i%4)
		}
		var w Writer
		w.Counters(src)
		p := w.Bytes()
		dst := make([]uint8, n)
		r := NewReader(p)
		r.CountersInto(dst)
		if r.Err() != nil || r.Remaining() != 0 || !bytes.Equal(dst, src) {
			t.Fatalf("n=%d: got %v err %v, want %v", n, dst, r.Err(), src)
		}
		if n%4 == 0 {
			continue
		}
		bad := append([]byte(nil), p...)
		bad[len(bad)-1] |= 0x80
		r = NewReader(bad)
		r.CountersInto(make([]uint8, n))
		if r.Err() == nil || !strings.Contains(r.Err().Error(), "padding") {
			t.Fatalf("n=%d: padding bits accepted: %v", n, r.Err())
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("writing a counter of 4 did not panic")
		}
	}()
	var w Writer
	w.Counters([]uint8{0, 4})
}

func TestBoolsPaddingRejected(t *testing.T) {
	var w Writer
	w.Bools([]bool{true, false, true})
	bad := append([]byte(nil), w.Bytes()...)
	bad[len(bad)-1] |= 0x08
	r := NewReader(bad)
	r.BoolsInto(make([]bool, 3))
	if r.Err() == nil || !strings.Contains(r.Err().Error(), "padding") {
		t.Fatalf("padding bits accepted: %v", r.Err())
	}
}

// A varint cut short, one running past 64 bits and one padded with a
// redundant zero group are all rejected, so each value has one encoding.
func TestVarintRejects(t *testing.T) {
	for _, c := range []struct {
		name string
		in   []byte
		want string
	}{
		{"empty", nil, "truncated"},
		{"cut short", []byte{0x80}, "truncated"},
		{"cut short after two", []byte{0xff, 0xff}, "truncated"},
		{"past 64 bits", []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}, "overflows"},
		{"eleven bytes", []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00}, "overflows"},
		{"padded zero", []byte{0x80, 0x00}, "overlong"},
		{"padded one", []byte{0x81, 0x80, 0x00}, "overlong"},
	} {
		r := NewReader(c.in)
		if v := r.U64(); v != 0 || r.Err() == nil || !strings.Contains(r.Err().Error(), c.want) {
			t.Errorf("%s: read %d, err %v; want a %q error", c.name, v, r.Err(), c.want)
		}
	}
	// U32 and Int narrow after decoding; a wider value is an error.
	var w Writer
	w.U64(1 << 32)
	if r := NewReader(w.Bytes()); r.U32() != 0 || r.Err() == nil {
		t.Errorf("U32 accepted 2^32: %v", r.Err())
	}
}

// The bitmap's population must equal the count of valid entries the
// table states; any disagreement, or a count the remaining input cannot
// hold, is rejected before a single entry is read.
func TestSparseCountMismatch(t *testing.T) {
	valid := []bool{true, false, true, true, false}
	var w Writer
	w.Sparse(len(valid), func(i int) bool { return valid[i] })
	for i, v := range valid {
		if v {
			w.U64(uint64(100 + i))
		}
	}
	good := w.Bytes()
	// Layout: n, one bitmap byte, count, three entries.
	if len(good) != 3+3 || good[2] != 3 {
		t.Fatalf("unexpected layout % x", good)
	}
	r := NewReader(good)
	if bm := r.Sparse(len(valid), 1); r.Err() != nil || !bm.Has(3) || bm.Has(4) {
		t.Fatalf("good table: err %v", r.Err())
	}

	for _, c := range []struct {
		name string
		mut  func([]byte)
		want string
	}{
		{"count too low", func(b []byte) { b[2] = 2 }, "count says 2"},
		{"count too high", func(b []byte) { b[2] = 3; b[1] |= 0x02 }, "count says 3"},
		{"bit cleared", func(b []byte) { b[1] &^= 0x01 }, "marks 2"},
		{"count past the input", func(b []byte) { b[1] = 0x1f; b[2] = 5 }, "implausible"},
		{"padding bit", func(b []byte) { b[1] |= 0x40 }, "padding"},
	} {
		bad := append([]byte(nil), good...)
		c.mut(bad)
		r := NewReader(bad)
		if bm := r.Sparse(len(valid), 1); bm != nil || r.Err() == nil || !strings.Contains(r.Err().Error(), c.want) {
			t.Errorf("%s: bitmap %v, err %v; want a %q error", c.name, bm, r.Err(), c.want)
		}
	}
	r = NewReader(good)
	r.Sparse(len(valid)+1, 1)
	if r.Err() == nil || !strings.Contains(r.Err().Error(), "geometry") {
		t.Errorf("geometry mismatch accepted: %v", r.Err())
	}
}

func TestDeterministicMapEncoding(t *testing.T) {
	var w1, w2 Writer
	w1.StringMapF64(map[string]float64{"x": 1, "y": 2, "z": 3})
	m := map[string]float64{}
	m["z"] = 3
	m["x"] = 1
	m["y"] = 2
	w2.StringMapF64(m)
	if !bytes.Equal(w1.Bytes(), w2.Bytes()) {
		t.Fatal("map encoding depends on insertion order")
	}
}

func TestReaderTruncation(t *testing.T) {
	var w Writer
	w.U64(1 << 40)
	w.String("four")
	w.F64(2.5)
	w.Counters([]uint8{1, 2, 3, 0, 1})
	w.Sparse(9, func(i int) bool { return i%2 == 0 })
	full := w.Bytes()
	for cut := 0; cut < len(full); cut++ {
		r := NewReader(full[:cut])
		_ = r.U64()
		_ = r.String()
		_ = r.F64()
		r.CountersInto(make([]uint8, 5))
		_ = r.Sparse(9, 1)
		if r.Err() == nil {
			t.Fatalf("truncation at %d not detected", cut)
		}
	}
}

func TestReaderImplausibleLength(t *testing.T) {
	var w Writer
	w.Len(0xffffffff) // claims 4 billion elements
	r := NewReader(w.Bytes())
	if s := r.String(); s != "" || r.Err() == nil {
		t.Fatalf("absurd length accepted: %q, err %v", s, r.Err())
	}
	// One element more than the input can hold at its smallest encoding:
	// a map entry takes at least a one-byte key length and 8 value bytes.
	w = Writer{}
	w.Len(2)
	w.String("")
	w.F64(1)
	w.U64(7)
	r = NewReader(w.Bytes())
	if m := r.StringMapF64(); m != nil || r.Err() == nil || !strings.Contains(r.Err().Error(), "implausible") {
		t.Fatalf("2 map entries over 10 bytes accepted: %v, err %v", m, r.Err())
	}
	// Exactly enough smallest elements is plausible.
	w = Writer{}
	w.Len(2)
	w.String("")
	w.F64(1)
	w.String("a")
	w.F64(2)
	if m := NewReader(w.Bytes()).StringMapF64(); len(m) != 2 || m["a"] != 2 {
		t.Fatalf("2 map entries over their 19 bytes refused: %v", m)
	}
	// The bound also holds for a sparse table's count of valid entries.
	w = Writer{}
	w.Sparse(8, func(int) bool { return true })
	r = NewReader(w.Bytes())
	if bm := r.Sparse(8, 1); bm != nil || r.Err() == nil || !strings.Contains(r.Err().Error(), "implausible") {
		t.Fatalf("8 valid entries over 0 bytes accepted: err %v", r.Err())
	}
}

func TestReaderAddrRange(t *testing.T) {
	var w Writer
	w.U64(0xffffffff)
	w.U64(1 << 32)
	w.U64(7)
	r := NewReader(w.Bytes())
	if a := r.Addr(); a != 0xffffffff || r.Err() != nil {
		t.Fatalf("highest address: got %#x, err %v", a, r.Err())
	}
	at := len(w.Bytes()) - 1 - 5 // 2^32 takes five varint bytes, 7 one
	if a := r.Addr(); a != 0 || r.Err() == nil {
		t.Fatalf("2^32 read as %#x, err %v; want a decode error", a, r.Err())
	}
	if want := fmt.Sprintf("at offset %d ", at); !strings.Contains(r.Err().Error(), want) {
		t.Fatalf("error %q does not name the address's offset (%q)", r.Err(), want)
	}
	if a := r.Addr(); a != 0 {
		t.Fatalf("read %#x after a failed Addr; want the latched zero", a)
	}
}

func TestReaderLatchesFirstError(t *testing.T) {
	r := NewReader(nil)
	_ = r.U64()
	first := r.Err()
	if first == nil {
		t.Fatal("no error on empty input")
	}
	_ = r.U32()
	_ = r.Bool()
	if r.Err() != first {
		t.Fatal("error not latched")
	}
}

func TestEnvelopeRoundTrip(t *testing.T) {
	payload := []byte("state bytes")
	blob := Seal(payload)
	got, err := Open(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload = %q", got)
	}
}

// A Writer seals in place: the blob is its own buffer, header included,
// byte-identical to sealing a copy of the payload.
func TestWriterSealInPlace(t *testing.T) {
	for _, build := range []func(*Writer){
		func(*Writer) {},
		func(w *Writer) { w.String("state bytes"); w.Int(-1) },
	} {
		var w Writer
		build(&w)
		payload := w.Bytes()
		want := Seal(payload)
		blob := w.Seal()
		if !bytes.Equal(blob, want) {
			t.Fatalf("in-place seal % x, copy % x", blob, want)
		}
		if len(payload) > 0 && &blob[headerSize] != &payload[0] {
			t.Fatal("Writer.Seal copied the payload")
		}
		if got, err := Open(blob); err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("Open = %q, %v", got, err)
		}
	}
}

func TestEnvelopeRejectsDefects(t *testing.T) {
	blob := Seal([]byte("some snapshot payload"))

	if _, err := Open(blob[:3]); err == nil {
		t.Fatal("short blob accepted")
	}
	bad := append([]byte(nil), blob...)
	bad[0] ^= 0xff
	if _, err := Open(bad); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("bad magic accepted: %v", err)
	}
	bad = append([]byte(nil), blob...)
	bad[4] = Version + 1
	if _, err := Open(bad); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("version skew accepted: %v", err)
	}
	bad = append([]byte(nil), blob...)
	bad[len(bad)-1] ^= 0x01
	if _, err := Open(bad); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("bit flip accepted: %v", err)
	}
	if _, err := Open(blob[:len(blob)-2]); err == nil {
		t.Fatal("truncated payload accepted")
	}
}

type mapBacking struct{ m map[string][]byte }

func (b *mapBacking) Load(key string) ([]byte, bool) { v, ok := b.m[key]; return v, ok }
func (b *mapBacking) Save(key string, val []byte)    { b.m[key] = val }

func TestManager(t *testing.T) {
	back := &mapBacking{m: map[string][]byte{}}
	m := NewManager(2, back)

	if _, ok := m.Load("a"); ok {
		t.Fatal("hit on empty manager")
	}
	m.Save("a", []byte("A"))
	if v, ok := m.Load("a"); !ok || string(v) != "A" {
		t.Fatal("memory hit failed")
	}
	if string(back.m["a"]) != "A" {
		t.Fatal("save did not reach backing")
	}

	// Evict "a" from memory; it must still load through the backing.
	m.Save("b", []byte("B"))
	m.Save("c", []byte("C"))
	if v, ok := m.Load("a"); !ok || string(v) != "A" {
		t.Fatal("backing read-through failed")
	}

	m.Invalidate("c")
	st := m.Stats()
	if st.Saves != 3 || st.Misses != 1 || st.DecodeErrors != 1 || st.Hits < 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestManagerNilBacking(t *testing.T) {
	m := NewManager(4, nil)
	m.Save("k", []byte("v"))
	if v, ok := m.Load("k"); !ok || string(v) != "v" {
		t.Fatal("memory-only manager broken")
	}
	if _, ok := m.Load("missing"); ok {
		t.Fatal("phantom hit")
	}
}
