package main

import (
	"bytes"
	"strings"
	"testing"

	"xbc/internal/service/jobspec"
)

// TestReportReusesRepeatedCells: the report's sections plan some cells
// more than once (Figure 8's cells recur in Figure 9 and the later
// studies). With the options main runs with, each such cell is simulated
// once and served from the run's memory after that.
func TestReportReusesRepeatedCells(t *testing.T) {
	opts := options()
	opts.UopsPerTrace = 20_000
	opts.Parallel = 2
	ws, err := jobspec.ParseWorkloadList("gcc")
	if err != nil {
		t.Fatal(err)
	}
	opts.Workloads = ws
	if opts.Plan == nil {
		t.Fatal("the run has no plan tally, so it has no memory to reuse cells from")
	}
	sections, err := selectSections("all", "all")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if failed, err := render(&out, opts, sections, format{md: true, plot: true}); failed != 0 || err != nil {
		t.Fatalf("%d sections failed (%v)", failed, err)
	}
	if !strings.Contains(out.String(), "## Estimated IPC") {
		t.Fatalf("report lacks its last section:\n%s", out.String())
	}
	p := opts.Plan.Snapshot()
	if p.Reused == 0 || p.Simulated+p.Reused+p.Deduped != p.Planned {
		t.Errorf("plan %s: want the repeated cells reused, every cell accounted for", p.String())
	}
	t.Logf("plan: %s", p.String())
}
