package runner

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync/atomic"
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
	if done, _, failed, _ := rep.Counts(); done != 2 || failed != 1 {
		t.Errorf("report counts done=%d failed=%d", done, failed)
	}
}

// TestResumeFromJournal runs a sweep with a journal, then re-runs it: the
// second run must replay every cell from the journal without executing
// anything, and the replayed payloads must round-trip.
func TestResumeFromJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	type payload struct {
		Miss float64 `json:"miss"`
	}
	mk := func(counter *atomic.Int32) []Task {
		tasks := make([]Task, 4)
		for i := range tasks {
			i := i
			tasks[i] = Task{Cell: cell(i), Run: func(context.Context) (any, error) {
				counter.Add(1)
				return payload{Miss: float64(i) + 0.5}, nil
			}}
		}
		return tasks
	}

	j1, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	var ran1 atomic.Int32
	runAll(Options{Journal: j1}, mk(&ran1))
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}
	if ran1.Load() != 4 {
		t.Fatalf("first run executed %d cells", ran1.Load())
	}

	j2, err := OpenJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Len() != 4 {
		t.Fatalf("journal resumed %d cells, want 4", j2.Len())
	}
	var ran2 atomic.Int32
	results := runAll(Options{Journal: j2}, mk(&ran2))
	if ran2.Load() != 0 {
		t.Errorf("resume re-ran %d completed cells", ran2.Load())
	}
	for i, r := range results {
		if r.Status != StatusSkipped {
			t.Fatalf("cell %d status %v, want skipped", i, r.Status)
		}
		raw, ok := r.Payload.(json.RawMessage)
		if !ok {
			t.Fatalf("cell %d payload is %T, want json.RawMessage", i, r.Payload)
		}
		var p payload
		if err := json.Unmarshal(raw, &p); err != nil {
			t.Fatal(err)
		}
		if want := float64(i) + 0.5; p.Miss != want {
			t.Errorf("cell %d replayed %v, want %v", i, p.Miss, want)
		}
	}
}

// TestResumeSkipsOnlyCompleted interleaves a failed cell into the first
// run: on resume, only the completed cells replay; the failed one re-runs.
func TestResumeSkipsOnlyCompleted(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	j1, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	fail := true
	run := func(i int) Task {
		return Task{Cell: cell(i), Run: func(context.Context) (any, error) {
			if i == 1 && fail {
				return nil, errors.New("transient blip")
			}
			return i, nil
		}}
	}
	runAll(Options{Journal: j1}, []Task{run(0), run(1), run(2)})
	j1.Close()

	j2, err := OpenJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	fail = false
	results := runAll(Options{Journal: j2}, []Task{run(0), run(1), run(2)})
	want := []Status{StatusSkipped, StatusDone, StatusSkipped}
	for i, r := range results {
		if r.Status != want[i] {
			t.Errorf("cell %d: status %v, want %v", i, r.Status, want[i])
		}
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

// TestJournalTornLine verifies a journal with a torn trailing line (killed
// mid-write) still resumes its intact prefix.
func TestJournalTornLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	j, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Record(cell(0), 1.0); err != nil {
		t.Fatal(err)
	}
	if err := j.Record(cell(1), 2.0); err != nil {
		t.Fatal(err)
	}
	// Simulate the kill: append half a record.
	if _, err := j.f.WriteString(`{"figure":"test","workl`); err != nil {
		t.Fatal(err)
	}
	j.Close()
	j2, err := OpenJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Len() != 2 {
		t.Fatalf("resumed %d cells from torn journal, want 2", j2.Len())
	}
	if _, ok := j2.Lookup(cell(1)); !ok {
		t.Error("intact cell lost")
	}
}
