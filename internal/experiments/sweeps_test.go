package experiments

import (
	"strings"
	"testing"

	"xbc/internal/stats"
)

// dataRows counts tb's data rows: the lines of its CSV after the header.
func dataRows(t *testing.T, tb *stats.Table) int {
	t.Helper()
	var b strings.Builder
	if err := tb.RenderCSV(&b); err != nil {
		t.Fatal(err)
	}
	return strings.Count(b.String(), "\n") - 1
}

func TestXBTBSweep(t *testing.T) {
	o := smallOpts()
	o.UopsPerTrace = 80_000
	tb, err := XBTBSweep(o)
	if err != nil {
		t.Fatal(err)
	}
	if dataRows(t, tb) != 5 {
		t.Fatalf("rows = %d", dataRows(t, tb))
	}
	if !strings.Contains(tb.String(), "8192") {
		t.Error("paper's 8K point missing")
	}
}

func TestRenamerSweep(t *testing.T) {
	o := smallOpts()
	o.UopsPerTrace = 80_000
	tb, err := RenamerSweep(o)
	if err != nil {
		t.Fatal(err)
	}
	if dataRows(t, tb) != 4 {
		t.Fatalf("rows = %d", dataRows(t, tb))
	}
}

func TestContextSwitch(t *testing.T) {
	o := smallOpts()
	o.UopsPerTrace = 80_000
	tb, err := ContextSwitch(o)
	if err != nil {
		t.Fatal(err)
	}
	if dataRows(t, tb) != 9 { // 3 pairs x 3 quanta
		t.Fatalf("rows = %d", dataRows(t, tb))
	}
}

func TestPathAssociativityStudy(t *testing.T) {
	o := smallOpts()
	o.UopsPerTrace = 80_000
	tb, err := PathAssociativity(o)
	if err != nil {
		t.Fatal(err)
	}
	if dataRows(t, tb) != 3 { // 2 workloads + mean
		t.Fatalf("rows = %d", dataRows(t, tb))
	}
}
