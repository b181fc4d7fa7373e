package stats

import (
	"strings"
	"testing"
)

func TestPlotRender(t *testing.T) {
	p := NewPlot("Miss rate vs size", "miss %", "8K", "16K", "32K", "64K")
	p.AddSeries("XBC", 17.0, 11.5, 7.4, 4.8)
	p.AddSeries("TC", 20.6, 14.1, 9.5, 6.4)
	out := p.String()
	for _, want := range []string{"Miss rate vs size", "x = XBC", "o = TC", "8K", "64K", "miss %"} {
		if !strings.Contains(out, want) {
			t.Errorf("plot missing %q:\n%s", want, out)
		}
	}
	// Both series' markers must appear.
	if !strings.Contains(out, "x") || !strings.Contains(out, "o") {
		t.Error("markers missing")
	}
}

func TestPlotOrdering(t *testing.T) {
	// A strictly higher series must render above (earlier rows than) a
	// lower one in the same column.
	p := NewPlot("t", "", "a", "b")
	p.AddSeries("hi", 10, 10)
	p.AddSeries("lo", 1, 1)
	lines := strings.Split(p.String(), "\n")
	rowOf := func(marker string) int {
		for i, l := range lines {
			if strings.Contains(l, marker) && strings.Contains(l, "|") {
				return i
			}
		}
		return -1
	}
	if hi, lo := rowOf("x"), rowOf("o"); hi < 0 || lo < 0 || hi >= lo {
		t.Fatalf("vertical ordering wrong: hi row %d, lo row %d\n%s", hi, lo, p.String())
	}
}

func TestPlotEmpty(t *testing.T) {
	p := NewPlot("empty", "")
	if out := p.String(); !strings.Contains(out, "no data") {
		t.Errorf("empty plot output: %q", out)
	}
}

func TestPlotFlatSeries(t *testing.T) {
	p := NewPlot("flat", "", "a", "b", "c")
	p.AddSeries("s", 5, 5, 5)
	out := p.String()
	if strings.Count(out, "x") < 3 {
		t.Errorf("flat series lost points:\n%s", out)
	}
}
