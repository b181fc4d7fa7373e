package runner

import (
	"context"
	"errors"
	"strings"
	"testing"
)

func TestRunOneSuccess(t *testing.T) {
	report := &Report{}
	res := RunOne(context.Background(), Options{Report: report}, Task{
		Cell: Cell{Figure: "job", Workload: "w"},
		Run:  func(context.Context) (any, error) { return 42, nil },
	})
	if res.Status != StatusDone {
		t.Fatalf("status = %v, want done", res.Status)
	}
	if res.Payload != 42 {
		t.Fatalf("payload = %v, want 42", res.Payload)
	}
	if done, _, _ := report.Counts(); done != 1 {
		t.Fatalf("report done = %d, want 1", done)
	}
}

func TestRunOnePanicIsolation(t *testing.T) {
	res := RunOne(context.Background(), Options{}, Task{
		Cell: Cell{Figure: "job", Workload: "boom"},
		Run:  func(context.Context) (any, error) { panic("hostile") },
	})
	if res.Status != StatusFailed {
		t.Fatalf("status = %v, want failed", res.Status)
	}
	if res.Err == nil || res.Err.Stack == "" {
		t.Fatalf("panic must surface as a CellError with a stack, got %+v", res.Err)
	}
}

// TestRunOneFailsOnce: a cell is a deterministic function of its spec,
// so an error is final — the cell runs once and reports that error.
func TestRunOneFailsOnce(t *testing.T) {
	calls := 0
	res := RunOne(context.Background(), Options{}, Task{
		Cell: Cell{Figure: "job", Workload: "bad"},
		Run: func(context.Context) (any, error) {
			calls++
			return nil, errors.New("invalid spec")
		},
	})
	if res.Status != StatusFailed || calls != 1 {
		t.Fatalf("status=%v calls=%d, want failed after one call", res.Status, calls)
	}
	if res.Err == nil || !strings.Contains(res.Err.Error(), "invalid spec") {
		t.Fatalf("err = %v, want the cell's error", res.Err)
	}
}

func TestRunOneCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := RunOne(ctx, Options{}, Task{
		Cell: Cell{Figure: "job", Workload: "w"},
		Run:  func(context.Context) (any, error) { t.Fatal("must not run"); return nil, nil },
	})
	if res.Status != StatusAborted {
		t.Fatalf("status = %v, want aborted", res.Status)
	}
}
