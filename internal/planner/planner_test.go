package planner

import (
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"xbc/internal/runner"
)

// cell builds a test cell whose Run returns "val:<key>" and bumps calls.
func cell(key, loc string, calls *atomic.Int64) Cell {
	return Cell{
		Key:      key,
		Locality: loc,
		RCell:    runner.Cell{Figure: "test", Workload: key, Config: loc},
		Run: func(ctx context.Context) (any, error) {
			if calls != nil {
				calls.Add(1)
			}
			return "val:" + key, nil
		},
	}
}

func TestNewPlanDedupsAndGroupsByLocality(t *testing.T) {
	cells := []Cell{
		cell("a", "w1", nil), // 0: unique, group w1
		cell("b", "w2", nil), // 1: unique, group w2
		cell("a", "w1", nil), // 2: dup of 0
		cell("c", "w1", nil), // 3: unique, group w1
		cell("d", "w2", nil), // 4: unique, group w2
		cell("b", "w2", nil), // 5: dup of 1
	}
	p := NewPlan(cells)
	if got := p.Deduped(); got != 2 {
		t.Fatalf("Deduped = %d, want 2", got)
	}
	// Groups in first-appearance order: w1 {0, 3}, then w2 {1, 4}.
	want := []int{0, 3, 1, 4}
	got := p.Unique()
	if len(got) != len(want) {
		t.Fatalf("Unique = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Unique = %v, want %v", got, want)
		}
	}
	for i, wantPrimary := range []int{0, 1, 0, 3, 4, 1} {
		if p.Primary(i) != wantPrimary {
			t.Fatalf("Primary(%d) = %d, want %d", i, p.Primary(i), wantPrimary)
		}
	}
}

func TestRunExecutesUniqueOnceAndAliasesDuplicates(t *testing.T) {
	var calls atomic.Int64
	cells := []Cell{
		cell("a", "w1", &calls),
		cell("a", "w1", &calls),
		cell("b", "w1", &calls),
		cell("a", "w1", &calls),
	}
	results, rep := Run(context.Background(), cells, Options{})
	if got := calls.Load(); got != 2 {
		t.Fatalf("Run invocations = %d, want 2 (unique keys)", got)
	}
	if rep.Planned != 4 || rep.Deduped != 2 || rep.Simulated != 2 {
		t.Fatalf("report = %+v, want planned=4 deduped=2 simulated=2", rep)
	}
	for i, r := range results {
		if r.Status != StatusSimulated {
			t.Fatalf("cell %d status = %v, want simulated", i, r.Status)
		}
		wantVal := "val:" + cells[i].Key
		if r.Value != wantVal {
			t.Fatalf("cell %d value = %v, want %v", i, r.Value, wantVal)
		}
	}
}

func TestRunAbortsUnstartedCellsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var calls atomic.Int64
	rep := &runner.Report{}
	cells := []Cell{cell("a", "w1", &calls), cell("b", "w1", &calls)}
	results, prep := Run(ctx, cells, Options{Runner: runner.Options{Report: rep}})
	if got := calls.Load(); got != 0 {
		t.Fatalf("Run invocations = %d, want 0 after cancel", got)
	}
	for i, r := range results {
		if r.Status != StatusAborted {
			t.Fatalf("cell %d = %+v, want aborted", i, r)
		}
	}
	if prep.Aborted != 2 {
		t.Fatalf("report aborted = %d, want 2", prep.Aborted)
	}
	_, _, _, aborted := rep.Counts()
	if aborted != 2 {
		t.Fatalf("runner report aborted = %d, want 2", aborted)
	}
}

func TestRunFailurePropagatesPerCell(t *testing.T) {
	boom := errors.New("boom")
	cells := []Cell{
		cell("ok", "w1", nil),
		{Key: "bad", Locality: "w1", RCell: runner.Cell{Figure: "test", Workload: "bad"},
			Run: func(ctx context.Context) (any, error) { return nil, boom }},
		{Key: "bad", Locality: "w1", RCell: runner.Cell{Figure: "test", Workload: "bad2"},
			Run: func(ctx context.Context) (any, error) { return nil, boom }},
	}
	rep := &runner.Report{}
	results, prep := Run(context.Background(), cells, Options{Runner: runner.Options{Report: rep}})
	if results[0].Status != StatusSimulated {
		t.Fatalf("ok cell = %+v", results[0])
	}
	if results[1].Status != StatusFailed || !errors.Is(results[1].Err, boom) {
		t.Fatalf("bad cell = %+v, want failed with boom", results[1])
	}
	if results[2].Status != StatusFailed {
		t.Fatalf("duplicate of failed cell = %+v, want failed alias", results[2])
	}
	if prep.Failed != 1 || prep.Simulated != 1 || prep.Deduped != 1 {
		t.Fatalf("report = %+v", prep)
	}
	if rep.Err() == nil {
		t.Fatal("runner report should surface the failure")
	}
}

// TestRunReportAccountsEveryCell: the runner report holds one row per
// unique cell, however it was served — fresh, or replayed from the
// journal on resume. Duplicates get no row of their own: the plan report
// counts them as Deduped.
func TestRunReportAccountsEveryCell(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plan.journal")
	cells := []Cell{
		cell("a", "w1", nil),
		cell("a", "w1", nil), // dup
		cell("b", "w2", nil),
	}
	run := func(resume bool) (Report, *runner.Report, []Result) {
		j, err := runner.OpenJournal(path, resume)
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
		}()
		rep := &runner.Report{}
		results, prep := Run(context.Background(), cells, Options{Runner: runner.Options{Journal: j, Report: rep}})
		return prep, rep, results
	}

	prep, rep, _ := run(false)
	if done, skipped, _, _ := rep.Counts(); done != 2 || skipped != 0 {
		t.Fatalf("first run rows: done=%d skipped=%d, want 2/0", done, skipped)
	}
	if prep.Simulated != 2 || prep.Deduped != 1 || prep.Reused != 0 {
		t.Fatalf("first plan report = %+v", prep)
	}

	prep, rep, results := run(true)
	if done, skipped, _, _ := rep.Counts(); done != 0 || skipped != 2 {
		t.Fatalf("resumed run rows: done=%d skipped=%d, want 0/2", done, skipped)
	}
	if prep.Simulated != 0 || prep.Deduped != 1 || prep.Reused != 2 {
		t.Fatalf("resumed plan report = %+v", prep)
	}
	for i, r := range results {
		var v string
		if err := json.Unmarshal(r.Value.(json.RawMessage), &v); err != nil || v != "val:"+cells[i].Key {
			t.Fatalf("cell %d replayed %s (%v), want val:%s", i, r.Value, err, cells[i].Key)
		}
	}
}

// TestRunLocalityOrderExecution: with Parallel=1, cells must execute
// grouped by locality in first-appearance order, not input order.
func TestRunLocalityOrderExecution(t *testing.T) {
	var mu sync.Mutex
	var order []string
	mk := func(key, loc string) Cell {
		return Cell{Key: key, Locality: loc, RCell: runner.Cell{Figure: "test", Workload: key},
			Run: func(ctx context.Context) (any, error) {
				mu.Lock()
				order = append(order, key)
				mu.Unlock()
				return key, nil
			}}
	}
	cells := []Cell{mk("a1", "A"), mk("b1", "B"), mk("a2", "A"), mk("b2", "B")}
	Run(context.Background(), cells, Options{Parallel: 1})
	want := []string{"a1", "a2", "b1", "b2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("execution order = %v, want %v", order, want)
		}
	}
}

func TestStatusString(t *testing.T) {
	want := map[Status]string{
		StatusSimulated: "simulated",
		StatusReused:    "reused",
		StatusFailed:    "failed",
		StatusAborted:   "aborted",
		Status(99):      "unknown",
	}
	for s, name := range want {
		if s.String() != name {
			t.Fatalf("Status(%d).String() = %q, want %q", int(s), s.String(), name)
		}
	}
}
