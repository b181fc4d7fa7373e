package stats

import (
	"fmt"
	"io"
	"strings"
)

// Table accumulates rows of formatted cells and renders them with aligned
// columns, as plain text or CSV. The experiment harness uses it to print
// the same rows/series the paper's figures report.
type Table struct {
	Title   string
	header  []string
	rows    [][]string
	isSep   []bool // parallel to rows: true for separator rows
	numCols int
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, header: header, numCols: len(header)}
}

// AddRow appends a row. Cells beyond the header width extend the table.
func (t *Table) AddRow(cells ...string) {
	if len(cells) > t.numCols {
		t.numCols = len(cells)
	}
	t.rows = append(t.rows, cells)
	t.isSep = append(t.isSep, false)
}

// AddRowf appends a row where each value is formatted with the default
// formatting (%v for strings, %.3f for floats, %d for ints).
func (t *Table) AddRowf(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = formatCell(c)
	}
	t.AddRow(row...)
}

// AddSeparator appends a horizontal rule between row groups.
func (t *Table) AddSeparator() {
	t.rows = append(t.rows, nil)
	t.isSep = append(t.isSep, true)
}

func formatCell(c any) string {
	switch v := c.(type) {
	case float64:
		return fmt.Sprintf("%.3f", v)
	case float32:
		return fmt.Sprintf("%.3f", v)
	default:
		return fmt.Sprintf("%v", v)
	}
}

// Render writes the table as aligned plain text.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, t.numCols)
	measure := func(cells []string) {
		for i, c := range cells {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	measure(t.header)
	for i, r := range t.rows {
		if !t.isSep[i] {
			measure(r)
		}
	}
	totalWidth := 0
	for _, wd := range widths {
		totalWidth += wd + 2
	}
	line := func(cells []string) string {
		var b strings.Builder
		for i := 0; i < t.numCols; i++ {
			cell := ""
			if i < len(cells) {
				cell = cells[i]
			}
			fmt.Fprintf(&b, "%-*s", widths[i]+2, cell)
		}
		return strings.TrimRight(b.String(), " ")
	}
	if t.Title != "" {
		if _, err := fmt.Fprintf(w, "%s\n%s\n", t.Title, strings.Repeat("=", len(t.Title))); err != nil {
			return err
		}
	}
	if len(t.header) > 0 {
		if _, err := fmt.Fprintln(w, line(t.header)); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w, strings.Repeat("-", totalWidth)); err != nil {
			return err
		}
	}
	for i, r := range t.rows {
		var err error
		if t.isSep[i] {
			_, err = fmt.Fprintln(w, strings.Repeat("-", totalWidth))
		} else {
			_, err = fmt.Fprintln(w, line(r))
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// RenderCSV writes the table as CSV (header first, separators skipped).
func (t *Table) RenderCSV(w io.Writer) error {
	writeRow := func(cells []string) error {
		escaped := make([]string, len(cells))
		for i, c := range cells {
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			escaped[i] = c
		}
		_, err := fmt.Fprintln(w, strings.Join(escaped, ","))
		return err
	}
	if len(t.header) > 0 {
		if err := writeRow(t.header); err != nil {
			return err
		}
	}
	for i, r := range t.rows {
		if t.isSep[i] {
			continue
		}
		if err := writeRow(r); err != nil {
			return err
		}
	}
	return nil
}

// String renders the table as plain text.
func (t *Table) String() string {
	var b strings.Builder
	_ = t.Render(&b)
	return b.String()
}
