package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(17)
	h.Add(3)
	h.Add(3)
	h.Add(8)
	if h.Total() != 3 {
		t.Fatalf("Total = %d", h.Total())
	}
	if h.Count(3) != 2 || h.Count(8) != 1 {
		t.Fatalf("counts wrong: %d %d", h.Count(3), h.Count(8))
	}
	wantMean := (3.0 + 3 + 8) / 3
	if math.Abs(h.Mean()-wantMean) > 1e-12 {
		t.Fatalf("Mean = %v, want %v", h.Mean(), wantMean)
	}
	if f := h.Fraction(3); math.Abs(f-2.0/3) > 1e-12 {
		t.Fatalf("Fraction(3) = %v", f)
	}
}

func TestHistogramClamping(t *testing.T) {
	h := NewHistogram(4)
	h.Add(-5)
	h.Add(100)
	if h.Count(0) != 1 || h.Count(3) != 1 {
		t.Fatalf("clamping failed: %v %v", h.Count(0), h.Count(3))
	}
	if h.Total() != 2 {
		t.Fatalf("Total = %d", h.Total())
	}
}

func TestHistogramPercentile(t *testing.T) {
	h := NewHistogram(10)
	for v := 1; v <= 9; v++ {
		h.Add(v)
	}
	if p := h.Percentile(0.5); p != 5 {
		t.Fatalf("P50 = %d, want 5", p)
	}
	if p := h.Percentile(1.0); p != 9 {
		t.Fatalf("P100 = %d, want 9", p)
	}
	if p := h.Percentile(0); p != 1 {
		t.Fatalf("P0 = %d, want 1", p)
	}
}

func TestHistogramMergeAndReset(t *testing.T) {
	a := NewHistogram(8)
	b := NewHistogram(8)
	a.Add(1)
	b.Add(2)
	b.Add(2)
	a.Merge(b)
	if a.Total() != 3 || a.Count(2) != 2 {
		t.Fatalf("merge wrong: total=%d count2=%d", a.Total(), a.Count(2))
	}
	a.Reset()
	if a.Total() != 0 || a.Mean() != 0 {
		t.Fatal("reset did not clear")
	}
}

func TestHistogramMergeSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on size mismatch")
		}
	}()
	NewHistogram(4).Merge(NewHistogram(5))
}

func TestHistogramPropertyMeanInRange(t *testing.T) {
	f := func(vals []uint8) bool {
		h := NewHistogram(256)
		for _, v := range vals {
			h.Add(int(v))
		}
		if len(vals) == 0 {
			return h.Mean() == 0
		}
		min, max := 255, 0
		for _, v := range vals {
			if int(v) < min {
				min = int(v)
			}
			if int(v) > max {
				max = int(v)
			}
		}
		return h.Mean() >= float64(min) && h.Mean() <= float64(max)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramPropertyTotalMatches(t *testing.T) {
	f := func(vals []uint8) bool {
		h := NewHistogram(300)
		for _, v := range vals {
			h.Add(int(v))
		}
		var sum uint64
		for v := 0; v < h.Buckets(); v++ {
			sum += h.Count(v)
		}
		return sum == h.Total() && h.Total() == uint64(len(vals))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMeans(t *testing.T) {
	xs := []float64{2, 4, 8}
	if m := Mean(xs); math.Abs(m-14.0/3) > 1e-12 {
		t.Errorf("Mean = %v", m)
	}
	if Mean(nil) != 0 {
		t.Error("the mean of an empty slice must be 0")
	}
}

func TestRatioAndPct(t *testing.T) {
	if Ratio(1, 0) != 0 || Pct(1, 0) != 0 {
		t.Fatal("zero denominator must give 0")
	}
	if Ratio(3, 4) != 0.75 || Pct(3, 4) != 75 {
		t.Fatal("ratio math wrong")
	}
}

func TestTableRender(t *testing.T) {
	tb := NewTable("Demo", "name", "value")
	tb.AddRowf("alpha", 1.5)
	tb.AddSeparator()
	tb.AddRow("beta", "x")
	out := tb.String()
	for _, want := range []string{"Demo", "name", "alpha", "1.500", "beta"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q in:\n%s", want, out)
		}
	}
	if tb.NumRows() != 2 {
		t.Errorf("NumRows = %d, want 2", tb.NumRows())
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("T", "a", "b")
	tb.AddRow("x,y", "plain")
	tb.AddSeparator()
	tb.AddRow(`has "quote"`, "z")
	var b strings.Builder
	if err := tb.RenderCSV(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV lines = %d, want 3 (header + 2 rows):\n%s", len(lines), out)
	}
	if lines[1] != `"x,y",plain` {
		t.Errorf("escaped comma row = %q", lines[1])
	}
	if lines[2] != `"has ""quote""",z` {
		t.Errorf("escaped quote row = %q", lines[2])
	}
}

func TestHistogramStringSmoke(t *testing.T) {
	h := NewHistogram(4)
	h.Add(1)
	h.Add(2)
	if s := h.String(); !strings.Contains(s, "mean") {
		t.Errorf("String output suspicious: %q", s)
	}
}
