package runner_test

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"xbc/internal/planner"
	"xbc/internal/runner"
)

// TestCancellationMidSweep cancels the context from inside the first cell
// of a sweep on the worker pool (planner.Run over runner.RunOne): the
// first cell still completes (graceful drain), every queued cell is
// marked aborted, and no cell vanishes from the runner's report.
func TestCancellationMidSweep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran atomic.Int32
	cells := make([]planner.Cell, 6)
	for i := range cells {
		i := i
		rc := runner.Cell{Figure: "test", Workload: fmt.Sprintf("w%d", i), Config: "cfg"}
		cells[i] = planner.Cell{Key: rc.String(), RCell: rc, Run: func(context.Context) (any, error) {
			ran.Add(1)
			if i == 0 {
				cancel() // SIGINT arrives while cell 0 is in flight
			}
			return i, nil
		}}
	}
	rep := &runner.Report{}
	results, _ := planner.Run(ctx, cells, planner.Options{Parallel: 1, Runner: runner.Options{Report: rep}})
	if len(results) != len(cells) {
		t.Fatalf("got %d results for %d cells", len(results), len(cells))
	}
	if results[0].Status != planner.StatusSimulated {
		t.Errorf("in-flight cell: status %v, want simulated (graceful drain)", results[0].Status)
	}
	aborted := 0
	for _, r := range results[1:] {
		if r.Status == planner.StatusAborted {
			aborted++
		}
	}
	if aborted != len(cells)-1 {
		t.Errorf("aborted %d of %d queued cells, want all", aborted, len(cells)-1)
	}
	if got := ran.Load(); got != 1 {
		t.Errorf("%d cells ran after cancellation, want 1", got)
	}
	if done, _, ab := rep.Counts(); done != 1 || ab != len(cells)-1 {
		t.Errorf("report counts done=%d aborted=%d, want 1 and %d", done, ab, len(cells)-1)
	}
}
