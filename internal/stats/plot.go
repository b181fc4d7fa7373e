package stats

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Plot renders numeric series as a plain-text line/scatter chart, good
// enough to eyeball the paper's figures straight from a terminal. Series
// share the X axis (categorical labels) and the Y axis is scaled to the
// data range.
type Plot struct {
	Title  string
	YLabel string
	xs     []string
	series []plotSeries
}

type plotSeries struct {
	name   string
	marker byte
	ys     []float64
}

// NewPlot creates a chart with the given title and X-axis labels.
func NewPlot(title, ylabel string, xs ...string) *Plot {
	return &Plot{Title: title, YLabel: ylabel, xs: xs}
}

// markers cycled through for successive series.
var markers = []byte{'x', 'o', '*', '+', '#', '@'}

// AddSeries appends one line of data; ys must have one value per X
// label (shorter series are allowed and simply stop early).
func (p *Plot) AddSeries(name string, ys ...float64) {
	m := markers[len(p.series)%len(markers)]
	cp := make([]float64, len(ys))
	copy(cp, ys)
	p.series = append(p.series, plotSeries{name: name, marker: m, ys: cp})
}

// Render writes the chart.
func (p *Plot) Render(w io.Writer) error {
	if len(p.xs) == 0 || len(p.series) == 0 {
		_, err := fmt.Fprintln(w, p.Title, "(no data)")
		return err
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, s := range p.series {
		for _, y := range s.ys {
			if math.IsNaN(y) {
				continue
			}
			lo = math.Min(lo, y)
			hi = math.Max(hi, y)
		}
	}
	if math.IsInf(lo, 1) {
		lo, hi = 0, 1
	}
	//xbc:ignore floatcmp degenerate-range guard; any nonzero spread must pass through
	if hi == lo {
		hi = lo + 1
	}
	// Pad the range slightly so extremes are visible.
	pad := (hi - lo) * 0.05
	lo -= pad
	hi += pad
	if lo > 0 && lo < (hi-lo)*0.5 {
		lo = 0 // rates read better from a zero baseline
	}

	const colW = 10
	const rows = 16 // chart height
	grid := make([][]byte, rows)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", colW*len(p.xs)))
	}
	rowOf := func(y float64) int {
		frac := (y - lo) / (hi - lo)
		r := int(math.Round(frac * float64(rows-1)))
		if r < 0 {
			r = 0
		}
		if r >= rows {
			r = rows - 1
		}
		return rows - 1 - r
	}
	for _, s := range p.series {
		for i, y := range s.ys {
			if i >= len(p.xs) || math.IsNaN(y) {
				continue
			}
			col := i*colW + colW/2
			grid[rowOf(y)][col] = s.marker
		}
	}

	if p.Title != "" {
		if _, err := fmt.Fprintf(w, "%s\n", p.Title); err != nil {
			return err
		}
	}
	for r := 0; r < rows; r++ {
		yAt := hi - (hi-lo)*float64(r)/float64(rows-1)
		label := "        "
		if r == 0 || r == rows-1 || r == rows/2 {
			label = fmt.Sprintf("%8.2f", yAt)
		}
		if _, err := fmt.Fprintf(w, "%s |%s\n", label, string(grid[r])); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s +%s\n", strings.Repeat(" ", 8), strings.Repeat("-", colW*len(p.xs))); err != nil {
		return err
	}
	var xr strings.Builder
	for _, x := range p.xs {
		fmt.Fprintf(&xr, "%-*s", colW, centered(x, colW))
	}
	if _, err := fmt.Fprintf(w, "%s  %s\n", strings.Repeat(" ", 8), xr.String()); err != nil {
		return err
	}
	var legend strings.Builder
	for i, s := range p.series {
		if i > 0 {
			legend.WriteString("   ")
		}
		fmt.Fprintf(&legend, "%c = %s", s.marker, s.name)
	}
	if p.YLabel != "" {
		fmt.Fprintf(&legend, "   (y: %s)", p.YLabel)
	}
	_, err := fmt.Fprintf(w, "%s  %s\n", strings.Repeat(" ", 8), legend.String())
	return err
}

// String renders the chart to a string.
func (p *Plot) String() string {
	var b strings.Builder
	_ = p.Render(&b)
	return b.String()
}

func centered(s string, w int) string {
	if len(s) >= w {
		return s[:w]
	}
	left := (w - len(s)) / 2
	return strings.Repeat(" ", left) + s
}
