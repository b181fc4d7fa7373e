package runner

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

func cell(i int) Cell {
	return Cell{Figure: "test", Workload: fmt.Sprintf("w%d", i), Config: "cfg"}
}

// runAll runs the tasks one after another through RunOne. The pool that
// runs cells concurrently is planner.Run (see pool_test.go).
func runAll(o Options, tasks []Task) []CellResult {
	results := make([]CellResult, len(tasks))
	for i, t := range tasks {
		results[i] = RunOne(context.Background(), o, t)
	}
	return results
}

// TestPanicToCellError verifies panic isolation: a panicking cell degrades
// into a structured CellError with the cell identity and a stack trace,
// and sibling cells are unaffected.
func TestPanicToCellError(t *testing.T) {
	tasks := []Task{
		{Cell: cell(0), Run: func(context.Context) (any, error) { return "ok", nil }},
		{Cell: cell(1), Run: func(context.Context) (any, error) { panic("bad configuration") }},
		{Cell: cell(2), Run: func(context.Context) (any, error) { return "ok", nil }},
	}
	rep := &Report{}
	results := runAll(Options{Report: rep}, tasks)
	if results[0].Status != StatusDone || results[2].Status != StatusDone {
		t.Fatalf("sibling cells degraded: %v / %v", results[0].Status, results[2].Status)
	}
	r := results[1]
	if r.Status != StatusFailed || r.Err == nil {
		t.Fatalf("panicking cell: %+v", r)
	}
	var ce *CellError
	if !errors.As(r.Err, &ce) {
		t.Fatalf("error %T does not unwrap to *CellError", r.Err)
	}
	if ce.Cell != cell(1) {
		t.Errorf("CellError names %v, want %v", ce.Cell, cell(1))
	}
	if !strings.Contains(ce.Error(), "bad configuration") {
		t.Errorf("error text %q lacks panic value", ce.Error())
	}
	if !strings.Contains(ce.Stack, "runner_test.go") {
		t.Errorf("stack does not point at the panic site:\n%s", ce.Stack)
	}
	if err := rep.Err(); err == nil {
		t.Error("report.Err() = nil with a failed cell")
	}
	if done, failed, _ := rep.Counts(); done != 2 || failed != 1 {
		t.Errorf("report counts done=%d failed=%d", done, failed)
	}
}

// TestCellTimeout verifies the per-cell deadline: a cell that honors its
// context fails with DeadlineExceeded, and one that ignores it is
// abandoned rather than hanging the sweep.
func TestCellTimeout(t *testing.T) {
	hang := make(chan struct{})
	defer close(hang)
	tasks := []Task{
		{Cell: cell(0), Run: func(ctx context.Context) (any, error) {
			<-ctx.Done() // cooperative simulation checking its context
			return nil, ctx.Err()
		}},
		{Cell: cell(1), Run: func(context.Context) (any, error) {
			<-hang // pathological cell that never checks its context
			return nil, nil
		}},
	}
	start := time.Now()
	results := runAll(Options{CellTimeout: 30 * time.Millisecond}, tasks)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("sweep hung for %v on a non-cooperative cell", elapsed)
	}
	for i, r := range results {
		if r.Status != StatusFailed || !errors.Is(r.Err, context.DeadlineExceeded) {
			t.Errorf("cell %d: %+v, want failed with DeadlineExceeded", i, r)
		}
	}
}
