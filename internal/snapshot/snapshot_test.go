package snapshot

import (
	"bytes"
	"strings"
	"testing"
)

func TestCodecRoundTrip(t *testing.T) {
	var w Writer
	w.U64(0xdeadbeefcafef00d)
	w.U32(42)
	w.U8(7)
	w.I64(-9)
	w.Int(123456)
	w.Bool(true)
	w.Bool(false)
	w.F64(3.14159)
	w.U64s([]uint64{1, 2, 3})
	w.U8s([]uint8{9, 8})
	w.Bools([]bool{true, false, true})
	w.StringMapF64(map[string]float64{"b": 2, "a": 1})
	w.String("hello")

	r := NewReader(w.Bytes())
	if got := r.U64(); got != 0xdeadbeefcafef00d {
		t.Fatalf("U64 = %#x", got)
	}
	if got := r.U32(); got != 42 {
		t.Fatalf("U32 = %d", got)
	}
	if got := r.U8(); got != 7 {
		t.Fatalf("U8 = %d", got)
	}
	if got := r.I64(); got != -9 {
		t.Fatalf("I64 = %d", got)
	}
	if got := r.Int(); got != 123456 {
		t.Fatalf("Int = %d", got)
	}
	if !r.Bool() || r.Bool() {
		t.Fatal("bool round trip")
	}
	if got := r.F64(); got != 3.14159 {
		t.Fatalf("F64 = %v", got)
	}
	u := r.U64s()
	if len(u) != 3 || u[2] != 3 {
		t.Fatalf("U64s = %v", u)
	}
	if b := r.U8s(); len(b) != 2 || b[1] != 8 {
		t.Fatalf("U8s = %v", b)
	}
	bs := make([]bool, 3)
	r.BoolsInto(bs)
	if !bs[0] || bs[1] || !bs[2] {
		t.Fatalf("Bools = %v", bs)
	}
	m := r.StringMapF64()
	if m["a"] != 1 || m["b"] != 2 {
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
	w.U64s([]uint64{1, 2, 3, 4})
	full := w.Bytes()
	for cut := 0; cut < len(full); cut++ {
		r := NewReader(full[:cut])
		_ = r.U64s()
		if r.Err() == nil && cut < len(full) {
			t.Fatalf("truncation at %d not detected", cut)
		}
	}
}

func TestReaderImplausibleLength(t *testing.T) {
	var w Writer
	w.U32(0xffffffff) // claims 4 billion elements
	r := NewReader(w.Bytes())
	if s := r.U64s(); s != nil || r.Err() == nil {
		t.Fatalf("absurd length accepted: %v, err %v", s, r.Err())
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
	if a := r.Addr(); a != 0 || r.Err() == nil {
		t.Fatalf("2^32 read as %#x, err %v; want a decode error", a, r.Err())
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
