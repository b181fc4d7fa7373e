package trace

import (
	"bytes"
	"encoding/binary"
	"testing"

	"xbc/internal/isa"
)

// FuzzRead ensures the binary trace parser never panics and never returns
// an inconsistent stream on arbitrary input: it either errors or yields
// records that re-serialize to a parseable stream.
func FuzzRead(f *testing.F) {
	// Seed with a real serialized stream and a few corruptions.
	s := &Stream{Name: "seed"}
	ip := isa.Addr(0x1000)
	for i := 0; i < 32; i++ {
		r := Rec{IP: ip, Class: isa.Seq, NumUops: 1, Size: 4}
		r.Next = r.FallThrough()
		s.Recs = append(s.Recs, r)
		ip += 4
	}
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		f.Fatal(err)
	}
	good := buf.Bytes()
	f.Add(good)
	f.Add([]byte("XTR1"))
	f.Add([]byte{})
	if len(good) > 8 {
		bad := append([]byte(nil), good...)
		bad[7] ^= 0xFF
		f.Add(bad)
	}
	for _, c := range wideAddrs {
		f.Add(oneRecord(c.ipDelta, c.nextDelta))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Whatever parsed must round-trip.
		var out bytes.Buffer
		if err := Write(&out, got); err != nil {
			t.Fatalf("re-serialize failed: %v", err)
		}
		again, err := Read(&out)
		if err != nil {
			t.Fatalf("re-parse failed: %v", err)
		}
		if again.Len() != got.Len() {
			t.Fatalf("round trip changed length: %d vs %d", again.Len(), got.Len())
		}
	})
}

// wideAddrs are single-record files whose IP or Next lies outside the
// 32-bit address space, as a foreign or corrupt .xtr may carry.
var wideAddrs = []struct {
	name               string
	ipDelta, nextDelta int64
}{
	{"ip 2^32", 1 << 32, 0},
	{"ip -1", -1, 0},
	{"ip 2^62", 1 << 62, 0},
	{"next 2^32", 0x1000, 1<<32 - 0x1000 - 4},
	{"next -1", 0x1000, -0x1000 - 4 - 1},
}

// oneRecord encodes an .xtr holding one 4-byte, 1-uop Seq record by hand:
// Write cannot produce an address that does not fit isa.Addr.
func oneRecord(ipDelta, nextDelta int64) []byte {
	b := []byte(magic)
	b = binary.AppendUvarint(b, 0) // name length
	b = binary.AppendUvarint(b, 1) // record count
	b = binary.AppendVarint(b, ipDelta)
	b = binary.AppendVarint(b, nextDelta)
	return append(b, byte(isa.Seq)<<3, 4)
}

func TestReadRejectsWideAddresses(t *testing.T) {
	// The encoder itself is right: the same record at in-range addresses
	// reads back.
	if s, err := Read(bytes.NewReader(oneRecord(0x1000, 0))); err != nil || s.Recs[0].Next != 0x1004 {
		t.Fatalf("in-range record: %v, %+v", err, s)
	}
	if s, err := Read(bytes.NewReader(oneRecord(1<<32-8, 0))); err != nil || s.Recs[0].Next != 1<<32-4 {
		t.Fatalf("highest in-range record: %v, %+v", err, s)
	}
	for _, c := range wideAddrs {
		if s, err := Read(bytes.NewReader(oneRecord(c.ipDelta, c.nextDelta))); err == nil {
			t.Errorf("%s: read as %+v, want an error", c.name, s.Recs)
		}
	}
}
