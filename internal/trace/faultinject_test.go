package trace

import (
	"testing"

	"xbc/internal/isa"
	"xbc/internal/program"
)

func faultBase(t *testing.T) *Stream {
	t.Helper()
	s, err := Generate(program.DefaultSpec("fault", 42), 30_000)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestTruncate(t *testing.T) {
	s := faultBase(t)
	for _, n := range []int{0, 1, 17, s.Len(), s.Len() + 100} {
		ts := Truncate(s, n)
		want := n
		if want > s.Len() {
			want = s.Len()
		}
		if ts.Len() != want {
			t.Errorf("Truncate(%d): len %d, want %d", n, ts.Len(), want)
		}
	}
	// The original must be untouched.
	trunc := Truncate(s, 1)
	trunc.Recs[0].IP ^= 0xff
	if s.Recs[0].IP == trunc.Recs[0].IP {
		t.Error("Truncate aliases the source records")
	}
}

func TestBitFlipDeterministicAndCorrupting(t *testing.T) {
	s := faultBase(t)
	a := BitFlip(s, 7, 0.05)
	b := BitFlip(s, 7, 0.05)
	changed := 0
	for i := range a.Recs {
		if a.Recs[i] != b.Recs[i] {
			t.Fatal("BitFlip is not deterministic in its seed")
		}
		if a.Recs[i] != s.Recs[i] {
			changed++
		}
	}
	if changed == 0 {
		t.Fatal("BitFlip(rate=0.05) corrupted nothing")
	}
	if changed > s.Len()/5 {
		t.Fatalf("BitFlip(rate=0.05) corrupted %d of %d records", changed, s.Len())
	}
	// At rate 1 every record takes one flip, and every flip must land:
	// a flipped record equal to its source is a corruption that did not
	// happen.
	all := BitFlip(s, 7, 1)
	for i := range all.Recs {
		if all.Recs[i] == s.Recs[i] {
			t.Fatalf("BitFlip(rate=1) left record %d equal to its source: %+v", i, s.Recs[i])
		}
	}
	// A corrupted stream must fail validation (that is the point).
	if err := a.Validate(); err == nil {
		t.Error("bit-flipped stream still validates")
	}
	if err := s.Validate(); err != nil {
		t.Errorf("source stream damaged: %v", err)
	}
}

func TestBitFlipProducesHostileUopCounts(t *testing.T) {
	s := faultBase(t)
	a := BitFlip(s, 1234, 0.3)
	hostile := false
	for _, r := range a.Recs {
		if r.NumUops == 0 || r.NumUops > isa.MaxUopsPerInst {
			hostile = true
			break
		}
	}
	if !hostile {
		t.Skip("seed produced no hostile uop counts; adjust seed")
	}
}

func TestDiscontinuities(t *testing.T) {
	s := faultBase(t)
	d := Discontinuities(s, 100)
	if err := d.Validate(); err == nil {
		t.Error("discontinuous stream still validates")
	}
	broken := 0
	for i := 0; i+1 < len(d.Recs); i++ {
		if d.Recs[i].Next != d.Recs[i+1].IP {
			broken++
		}
	}
	if broken < d.Len()/200 {
		t.Errorf("only %d discontinuities in %d records", broken, d.Len())
	}
}
