// Package runner_test holds the single-cell isolation tests under the
// names they have always run under. The code they check lives in
// internal/planner: planner.Isolate runs one cell, and planner.Run is the
// pool that aborts cells a cancelled sweep never started. This directory
// has no non-test code.
package runner_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"xbc/internal/planner"
)

func TestRunOneSuccess(t *testing.T) {
	v, err := planner.Isolate(context.Background(), "job/w", 0, func(context.Context) (any, error) { return 42, nil })
	if err != nil {
		t.Fatalf("err = %v, want nil", err)
	}
	if v != 42 {
		t.Fatalf("payload = %v, want 42", v)
	}
}

func TestRunOnePanicIsolation(t *testing.T) {
	_, err := planner.Isolate(context.Background(), "job/boom", 0, func(context.Context) (any, error) { panic("hostile") })
	if err == nil || err.Stack == "" {
		t.Fatalf("panic must surface as a CellError with a stack, got %+v", err)
	}
	if err.Cell != "job/boom" {
		t.Fatalf("CellError names %q, want job/boom", err.Cell)
	}
}

// TestRunOneFailsOnce: a cell is a deterministic function of its spec,
// so an error is final — the cell runs once and reports that error.
func TestRunOneFailsOnce(t *testing.T) {
	calls := 0
	_, err := planner.Isolate(context.Background(), "job/bad", 0, func(context.Context) (any, error) {
		calls++
		return nil, errors.New("invalid spec")
	})
	if err == nil || calls != 1 {
		t.Fatalf("err=%v calls=%d, want failed after one call", err, calls)
	}
	if !strings.Contains(err.Error(), "invalid spec") {
		t.Fatalf("err = %v, want the cell's error", err)
	}
}

func TestRunOneCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, rep := planner.Run(ctx, []planner.Cell{{
		Key:  "w",
		Name: "job/w",
		Run:  func(context.Context) (any, error) { t.Fatal("must not run"); return nil, nil },
	}}, planner.Options{})
	if results[0].Status != planner.StatusAborted {
		t.Fatalf("status = %v, want aborted", results[0].Status)
	}
	if rep.Aborted != 1 {
		t.Fatalf("report = %+v, want 1 aborted", rep)
	}
}
