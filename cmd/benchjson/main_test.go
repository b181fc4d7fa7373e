package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func file(benchmarks map[string]Result) *File {
	return &File{Bench: "BenchmarkFrontend", BenchTime: "5x", Benchmarks: benchmarks}
}

func TestCompareFilesMissingInNew(t *testing.T) {
	oldF := file(map[string]Result{
		"Frontend/xbc":  {AllocsPerOp: 10, UopsPerS: 1e6},
		"Frontend/bbtc": {AllocsPerOp: 12, UopsPerS: 9e5},
	})
	newF := file(map[string]Result{
		"Frontend/xbc": {AllocsPerOp: 10, UopsPerS: 1e6},
	})
	var sb strings.Builder
	reg, missing, err := compareFiles(oldF, newF, 10, 10, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if reg != 0 {
		t.Errorf("regressions = %d, want 0", reg)
	}
	if len(missing) != 1 || missing[0] != "Frontend/bbtc" {
		t.Errorf("missing = %v, want [Frontend/bbtc]", missing)
	}
	if !strings.Contains(sb.String(), "Frontend/xbc") {
		t.Errorf("table does not list the common benchmark:\n%s", sb.String())
	}
}

func TestCompareFilesZeroAllocBaseline(t *testing.T) {
	oldF := file(map[string]Result{
		"Frontend/xbc": {AllocsPerOp: 0, UopsPerS: 1e6},
	})
	newF := file(map[string]Result{
		"Frontend/xbc": {AllocsPerOp: 3, UopsPerS: 1e6},
	})
	var sb strings.Builder
	reg, missing, err := compareFiles(oldF, newF, 10, 10, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if len(missing) != 0 {
		t.Errorf("missing = %v, want none", missing)
	}
	// Growth from a zero-alloc baseline must trip the gate even though a
	// percentage is undefined, and the undefined ratio must render as n/a
	// rather than dividing by zero.
	if reg != 1 {
		t.Errorf("regressions = %d, want 1", reg)
	}
	out := sb.String()
	if !strings.Contains(out, "zero-alloc baseline") {
		t.Errorf("regression line missing:\n%s", out)
	}
	if !strings.Contains(out, "n/a") {
		t.Errorf("zero baseline should render as n/a:\n%s", out)
	}
	if strings.Contains(out, "Inf") || strings.Contains(out, "NaN") {
		t.Errorf("divide-by-zero leaked into the table:\n%s", out)
	}
}

func TestCompareFilesZeroBaselineStaysZero(t *testing.T) {
	oldF := file(map[string]Result{"Frontend/xbc": {AllocsPerOp: 0}})
	newF := file(map[string]Result{"Frontend/xbc": {AllocsPerOp: 0}})
	var sb strings.Builder
	reg, _, err := compareFiles(oldF, newF, 10, 10, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if reg != 0 {
		t.Errorf("regressions = %d, want 0 for an unchanged zero-alloc benchmark", reg)
	}
}

func TestCompareFilesGateBoundary(t *testing.T) {
	oldF := file(map[string]Result{
		"InGate":  {AllocsPerOp: 100},
		"Regress": {AllocsPerOp: 100},
	})
	newF := file(map[string]Result{
		"InGate":  {AllocsPerOp: 110}, // exactly the 10% gate: allowed
		"Regress": {AllocsPerOp: 112}, // past it
	})
	var sb strings.Builder
	reg, _, err := compareFiles(oldF, newF, 10, 10, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if reg != 1 {
		t.Errorf("regressions = %d, want 1:\n%s", reg, sb.String())
	}
}

func TestCompareFilesThroughputGate(t *testing.T) {
	oldF := file(map[string]Result{
		"AtGate":   {AllocsPerOp: 5, UopsPerS: 1e6},
		"PastGate": {AllocsPerOp: 5, UopsPerS: 1e6},
		"Faster":   {AllocsPerOp: 5, UopsPerS: 1e6},
	})
	newF := file(map[string]Result{
		"AtGate":   {AllocsPerOp: 5, UopsPerS: 9e5},   // exactly -10%: allowed
		"PastGate": {AllocsPerOp: 5, UopsPerS: 8.9e5}, // past it
		"Faster":   {AllocsPerOp: 5, UopsPerS: 2e6},
	})
	var sb strings.Builder
	reg, _, err := compareFiles(oldF, newF, 10, 10, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if reg != 1 {
		t.Errorf("regressions = %d, want 1 (only PastGate):\n%s", reg, sb.String())
	}
	if !strings.Contains(sb.String(), "uops/s fell past the 10% gate") {
		t.Errorf("throughput regression line missing:\n%s", sb.String())
	}
}

func TestCompareFilesThroughputGateWidens(t *testing.T) {
	oldF := file(map[string]Result{"F": {AllocsPerOp: 5, UopsPerS: 1e6}})
	newF := file(map[string]Result{"F": {AllocsPerOp: 5, UopsPerS: 7e5}})
	var sb strings.Builder
	// A -30% slowdown trips the default gate but passes a widened one, so
	// noisy CI runners can loosen -maxslow without editing the tool.
	if reg, _, err := compareFiles(oldF, newF, 10, 10, &sb); err != nil || reg != 1 {
		t.Errorf("default gate: regressions = %d, err = %v, want 1, nil", reg, err)
	}
	if reg, _, err := compareFiles(oldF, newF, 10, 35, &sb); err != nil || reg != 0 {
		t.Errorf("widened gate: regressions = %d, err = %v, want 0, nil", reg, err)
	}
}

func TestCompareFilesThroughputMetricDisappeared(t *testing.T) {
	oldF := file(map[string]Result{"F": {AllocsPerOp: 5, UopsPerS: 1e6}})
	newF := file(map[string]Result{"F": {AllocsPerOp: 5}})
	var sb strings.Builder
	reg, _, err := compareFiles(oldF, newF, 10, 10, &sb)
	if err != nil {
		t.Fatal(err)
	}
	// A recording whose uops/s metric vanished must gate, not pass: the
	// slowdown is unmeasurable, which is worse than measurable.
	if reg != 1 {
		t.Errorf("regressions = %d, want 1:\n%s", reg, sb.String())
	}
	if !strings.Contains(sb.String(), "metric disappeared") {
		t.Errorf("disappeared-metric line missing:\n%s", sb.String())
	}
}

func TestCompareFilesThroughputNeverRecorded(t *testing.T) {
	// Benchmarks that never report uops/s (e.g. the figure regenerators)
	// must not trip the throughput gate on either side.
	oldF := file(map[string]Result{"Figure1": {AllocsPerOp: 5}})
	newF := file(map[string]Result{"Figure1": {AllocsPerOp: 5}})
	var sb strings.Builder
	reg, _, err := compareFiles(oldF, newF, 10, 10, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if reg != 0 {
		t.Errorf("regressions = %d, want 0:\n%s", reg, sb.String())
	}
}

func TestCompareFilesBothGatesTrip(t *testing.T) {
	oldF := file(map[string]Result{"F": {AllocsPerOp: 10, UopsPerS: 1e6}})
	newF := file(map[string]Result{"F": {AllocsPerOp: 100, UopsPerS: 1e5}})
	var sb strings.Builder
	reg, _, err := compareFiles(oldF, newF, 10, 10, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if reg != 2 {
		t.Errorf("regressions = %d, want 2 (alloc and throughput):\n%s", reg, sb.String())
	}
}

func TestCompareFilesNoCommon(t *testing.T) {
	oldF := file(map[string]Result{"A": {AllocsPerOp: 1}})
	newF := file(map[string]Result{"B": {AllocsPerOp: 1}})
	var sb strings.Builder
	_, missing, err := compareFiles(oldF, newF, 10, 10, &sb)
	if err == nil {
		t.Fatal("want error when the recordings share no benchmarks")
	}
	if len(missing) != 1 || missing[0] != "A" {
		t.Errorf("missing = %v, want [A]", missing)
	}
}

func TestLoadMalformedJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte(`{"benchmarks": {`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := load(path); err == nil {
		t.Fatal("want error for malformed JSON")
	} else if !strings.Contains(err.Error(), path) {
		t.Errorf("error %q does not name the offending file", err)
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := load(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Fatal("want error for a missing file")
	}
}

func TestParsePairsFields(t *testing.T) {
	log := `goos: linux
BenchmarkFrontend/xbc-8   	       5	 123456 ns/op	  42.5 uops/s	    1024 B/op	       7 allocs/op
PASS
`
	got, err := parse(strings.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	r, ok := got["Frontend/xbc"]
	if !ok {
		t.Fatalf("parse = %v, want Frontend/xbc entry", got)
	}
	if r.NsPerOp != 123456 || r.UopsPerS != 42.5 || r.BytesPerOp != 1024 || r.AllocsPerOp != 7 {
		t.Errorf("parsed %+v", r)
	}
}

func TestParseRecordsMedians(t *testing.T) {
	log := `BenchmarkFidelityEstimate-2   3   5700000 ns/op   155.0 uops/s   40006 simuops/op
BenchmarkFidelityEstimate-2   3   4000000 ns/op   268.0 uops/s   40006 simuops/op
BenchmarkFidelityEstimate-2   3   5000000 ns/op   200.0 uops/s   40006 simuops/op
BenchmarkFrontendIC-2   5   100 ns/op   20 allocs/op
BenchmarkFrontendIC-2   5   300 ns/op   22 allocs/op
`
	got, err := parse(strings.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	if r := got["FidelityEstimate"]; r.NsPerOp != 5000000 || r.UopsPerS != 200 || r.SimUopsPerOp != 40006 {
		t.Errorf("odd count: parsed %+v, want the middle run", r)
	}
	if r := got["FrontendIC"]; r.NsPerOp != 200 || r.AllocsPerOp != 21 {
		t.Errorf("even count: parsed %+v, want the mean of the middle two", r)
	}
}
