package trace

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"

	"xbc/internal/isa"
	"xbc/internal/program"
	"xbc/internal/workload"
)

func testStream(t *testing.T, seed int64, uops uint64) *Stream {
	t.Helper()
	spec := program.DefaultSpec("trace-test", seed)
	spec.Functions = 40
	s, err := Generate(spec, uops)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestGenerateDeterministic(t *testing.T) {
	a := testStream(t, 5, 50_000)
	b := testStream(t, 5, 50_000)
	if a.Len() != b.Len() {
		t.Fatalf("lengths differ: %d vs %d", a.Len(), b.Len())
	}
	for i := range a.Recs {
		if a.Recs[i] != b.Recs[i] {
			t.Fatalf("record %d differs", i)
		}
	}
}

func TestGenerateMeetsUopTarget(t *testing.T) {
	s := testStream(t, 6, 30_000)
	if got := s.Uops(); got < 30_000 {
		t.Fatalf("stream has %d uops, want >= 30000", got)
	}
}

func TestStreamValidate(t *testing.T) {
	s := testStream(t, 7, 50_000)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// Break continuity and check detection.
	bad := &Stream{Name: "bad", Recs: append([]Rec(nil), s.Recs[:10]...)}
	bad.Recs[4].Next += 2
	if err := bad.Validate(); err == nil {
		t.Fatal("continuity violation not detected")
	}
}

func TestIORoundTrip(t *testing.T) {
	s := testStream(t, 9, 40_000)
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != s.Name || got.Len() != s.Len() {
		t.Fatalf("header mismatch: %q/%d vs %q/%d", got.Name, got.Len(), s.Name, s.Len())
	}
	for i := range s.Recs {
		if got.Recs[i] != s.Recs[i] {
			t.Fatalf("record %d corrupted: %+v vs %+v", i, got.Recs[i], s.Recs[i])
		}
	}
}

func TestIORoundTripProperty(t *testing.T) {
	f := func(seed int64, n uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n%500) + 1
		s := &Stream{Name: "prop"}
		ip := isa.Addr(0x1000)
		for i := 0; i < count; i++ {
			size := uint8(1 + rng.Intn(8))
			r := Rec{
				IP:      ip,
				Class:   isa.Class(rng.Intn(isa.NumClasses)),
				NumUops: uint8(1 + rng.Intn(isa.MaxUopsPerInst)),
				Size:    size,
				Taken:   rng.Intn(2) == 0,
			}
			if r.Class == isa.Seq {
				r.Taken = false
				r.Next = r.FallThrough()
			} else if r.Taken {
				r.Next = isa.Addr(0x1000 + rng.Intn(1<<20))
			} else {
				r.Next = r.FallThrough()
			}
			s.Recs = append(s.Recs, r)
			ip = r.Next
		}
		var buf bytes.Buffer
		if err := Write(&buf, s); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil || got.Len() != s.Len() {
			return false
		}
		for i := range s.Recs {
			if got.Recs[i] != s.Recs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("NOPE"))); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := Read(bytes.NewReader([]byte("XT"))); err == nil {
		t.Fatal("truncated magic accepted")
	}
	// Valid magic, truncated body.
	s := testStream(t, 10, 2_000)
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, err := Read(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated stream accepted")
	}
}

// TestGenerateAllocs holds the allocations of one trace.Generate of gcc
// at 150k uops as an exact count: the program's blocks, instructions and
// behaviours, the seeded sources of the branches the walk reaches, and
// the pre-sized record slice. The count includes slice growth, so it is
// that of the Go 1.24 runtime; a Go release that moves it is re-measured
// here, and the count may not rise.
func TestGenerateAllocs(t *testing.T) {
	w, _ := workload.ByName("gcc")
	got := testing.AllocsPerRun(2, func() {
		if _, err := Generate(w.Spec, 150_000); err != nil {
			t.Fatal(err)
		}
	})
	if got != 28738 {
		t.Fatalf("Generate(gcc, 150k): %v allocs, want exactly %v", got, 28738)
	}
}

// TestRecSize pins the record at 12 bytes: two 32-bit addresses and four
// bytes of flags. The corpus holds millions of records, so a wider
// address or a field that adds padding shows up directly in its heap.
func TestRecSize(t *testing.T) {
	if got := unsafe.Sizeof(Rec{}); got != 12 {
		t.Fatalf("trace.Rec is %d bytes, want 12", got)
	}
}
