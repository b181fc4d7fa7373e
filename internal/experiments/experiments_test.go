package experiments

import (
	"strings"
	"testing"

	"xbc/internal/trace"
	"xbc/internal/workload"
)

// smallOpts keeps experiment tests fast: two workloads, short streams.
func smallOpts() Options {
	o := DefaultOptions()
	o.UopsPerTrace = 120_000
	ws := []workload.Workload{}
	for _, name := range []string{"m88ksim", "doom"} {
		w, ok := workload.ByName(name)
		if !ok {
			panic("unknown test workload " + name)
		}
		ws = append(ws, w)
	}
	o.Workloads = ws
	o.Parallel = 2
	return o
}

func TestFigure1(t *testing.T) {
	r, err := Figure1(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []trace.BlockKind{trace.BasicBlock, trace.XB, trace.XBPromoted, trace.DualXB} {
		if r.Hist[k] == nil || r.Hist[k].Total() == 0 {
			t.Fatalf("%v histogram empty", k)
		}
	}
	if r.Means[trace.BasicBlock] > r.Means[trace.XB]+1e-9 {
		t.Errorf("BB mean %.2f > XB mean %.2f", r.Means[trace.BasicBlock], r.Means[trace.XB])
	}
	if r.Means[trace.XB] > r.Means[trace.XBPromoted]+1e-9 {
		t.Errorf("XB mean %.2f > promoted mean %.2f", r.Means[trace.XB], r.Means[trace.XBPromoted])
	}
	if !strings.Contains(r.Table.String(), "Figure 1") {
		t.Error("table title missing")
	}
}

func TestFigure8(t *testing.T) {
	r, err := Figure8(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.XBC <= 0 || row.TC <= 0 || row.XBC > 8 || row.TC > 8 {
			t.Fatalf("bandwidth out of range: %+v", row)
		}
		// The paper's finding: the difference is small. Allow a wide band
		// at test scale.
		ratio := row.XBC / row.TC
		if ratio < 0.6 || ratio > 1.6 {
			t.Errorf("%s bandwidth ratio %.2f far from parity", row.Workload, ratio)
		}
	}
}

func TestFigure9(t *testing.T) {
	o := smallOpts()
	o.Sizes = []int{4 * 1024, 32 * 1024}
	r, err := Figure9(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.AvgXBC) != 2 || len(r.AvgTC) != 2 {
		t.Fatalf("size points = %d/%d", len(r.AvgXBC), len(r.AvgTC))
	}
	// Miss rate must fall with size for both structures.
	if r.AvgXBC[0] <= r.AvgXBC[1] {
		t.Errorf("XBC miss did not fall with size: %v", r.AvgXBC)
	}
	if r.AvgTC[0] <= r.AvgTC[1] {
		t.Errorf("TC miss did not fall with size: %v", r.AvgTC)
	}
	// The headline result at the capacity-pressured point: XBC misses
	// less than the TC.
	if r.AvgXBC[0] >= r.AvgTC[0] {
		t.Errorf("at 4K: XBC %.2f%% >= TC %.2f%% (headline inverted)", r.AvgXBC[0], r.AvgTC[0])
	}
}

func TestFigure10(t *testing.T) {
	o := smallOpts()
	o.Budget = 8 * 1024
	r, err := Figure10(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.AvgXBC) != 3 {
		t.Fatalf("assoc points = %d", len(r.AvgXBC))
	}
	// Associativity must help: direct-mapped misses most.
	if !(r.AvgXBC[0] > r.AvgXBC[1]) {
		t.Errorf("XBC: 1-way (%.2f) not worse than 2-way (%.2f)", r.AvgXBC[0], r.AvgXBC[1])
	}
	if !(r.AvgTC[0] > r.AvgTC[1]) {
		t.Errorf("TC: 1-way (%.2f) not worse than 2-way (%.2f)", r.AvgTC[0], r.AvgTC[1])
	}
}

func TestRedundancyStudy(t *testing.T) {
	tb, err := Redundancy(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if dataRows(t, tb) < 3 { // 2 workloads + mean
		t.Fatalf("rows = %d", dataRows(t, tb))
	}
}

func TestFrontendsStudy(t *testing.T) {
	tb, err := Frontends(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if dataRows(t, tb) != 2 {
		t.Fatalf("rows = %d", dataRows(t, tb))
	}
}

func TestAblationStudy(t *testing.T) {
	o := smallOpts()
	o.UopsPerTrace = 60_000
	tb, err := Ablation(o)
	if err != nil {
		t.Fatal(err)
	}
	if dataRows(t, tb) != len(ablations) {
		t.Fatalf("rows = %d, want %d", dataRows(t, tb), len(ablations))
	}
}

func TestOptionsDefaults(t *testing.T) {
	var o Options
	d := o.withDefaults()
	if d.UopsPerTrace == 0 || d.Budget == 0 || len(d.Sizes) == 0 ||
		len(d.Assocs) == 0 || len(d.Workloads) != 21 || d.Parallel <= 0 {
		t.Fatalf("defaults incomplete: %+v", d)
	}
}
