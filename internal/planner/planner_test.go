package planner

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// cell builds a test cell whose Run returns "val:<key>" and bumps calls.
func cell(key, loc string, calls *atomic.Int64) Cell {
	return Cell{
		Key:      key,
		Locality: loc,
		Name:     "test/" + key + "/" + loc,
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

// TestRunAbortsUnstartedCellsOnCancel: a plan whose context is cancelled
// before it starts runs nothing, with or without a per-cell deadline, and
// accounts every cell as aborted.
func TestRunAbortsUnstartedCellsOnCancel(t *testing.T) {
	for _, timeout := range []time.Duration{0, time.Minute} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		var calls atomic.Int64
		cells := []Cell{cell("a", "w1", &calls), cell("b", "w1", &calls)}
		results, prep := Run(ctx, cells, Options{Timeout: timeout})
		if got := calls.Load(); got != 0 {
			t.Fatalf("timeout %v: Run invocations = %d, want 0 after cancel", timeout, got)
		}
		for i, r := range results {
			if r.Status != StatusAborted {
				t.Fatalf("timeout %v: cell %d = %+v, want aborted", timeout, i, r)
			}
		}
		if prep.Aborted != 2 || prep.Simulated != 0 || len(prep.Failures) != 0 {
			t.Fatalf("timeout %v: report = %+v, want 2 aborted", timeout, prep)
		}
	}
}

// TestRunFailurePropagatesPerCell: a failing cell fails alone, runs once
// (a cell is a deterministic function of its key, so a failure is
// final), and its duplicates alias the failure.
func TestRunFailurePropagatesPerCell(t *testing.T) {
	boom := errors.New("boom")
	var calls atomic.Int64
	bad := func(ctx context.Context) (any, error) {
		calls.Add(1)
		return nil, boom
	}
	cells := []Cell{
		cell("ok", "w1", nil),
		{Key: "bad", Locality: "w1", Name: "test/bad", Run: bad},
		{Key: "bad", Locality: "w1", Name: "test/bad2", Run: bad},
	}
	results, prep := Run(context.Background(), cells, Options{})
	if results[0].Status != StatusSimulated {
		t.Fatalf("ok cell = %+v", results[0])
	}
	if results[1].Status != StatusFailed || !errors.Is(results[1].Err, boom) {
		t.Fatalf("bad cell = %+v, want failed with boom", results[1])
	}
	if results[2].Status != StatusFailed {
		t.Fatalf("duplicate of failed cell = %+v, want failed alias", results[2])
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("failing cell ran %d times, want once", got)
	}
	if prep.Failed != 1 || prep.Simulated != 1 || prep.Deduped != 1 {
		t.Fatalf("report = %+v", prep)
	}
	if len(prep.Failures) != 1 || prep.Failures[0].Cell != "test/bad" || !errors.Is(prep.Failures[0], boom) {
		t.Fatalf("report failures = %v, want the one failure of test/bad", prep.Failures)
	}
}

// jsonStore is an in-memory Store that keeps each value as JSON and
// decodes it back into T, the shape of a store-backed figure run.
type jsonStore[T any] struct {
	mu sync.Mutex
	m  map[string][]byte
}

func newJSONStore[T any]() *jsonStore[T] { return &jsonStore[T]{m: map[string][]byte{}} }

func (s *jsonStore[T]) Load(key string) (any, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	raw, ok := s.m[key]
	if !ok {
		return nil, false
	}
	var v T
	if err := json.Unmarshal(raw, &v); err != nil {
		return nil, false
	}
	return v, true
}

func (s *jsonStore[T]) Save(key string, v any) {
	raw, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[key] = raw
}

// TestRunReportAccountsEveryCell: the plan report and a tally over
// several plans account for every cell — fresh cells as Simulated, store
// hits as Reused (with no run), duplicates as Deduped.
func TestRunReportAccountsEveryCell(t *testing.T) {
	st := newJSONStore[string]()
	var calls atomic.Int64
	cells := []Cell{
		cell("a", "w1", &calls),
		cell("a", "w1", &calls), // dup
		cell("b", "w2", &calls),
	}
	var tally Tally
	run := func() (Report, []Result) {
		results, prep := Run(context.Background(), cells, Options{Store: st})
		tally.Add(prep)
		return prep, results
	}

	prep, _ := run()
	if prep.Simulated != 2 || prep.Deduped != 1 || prep.Reused != 0 || calls.Load() != 2 {
		t.Fatalf("first plan report = %+v after %d runs", prep, calls.Load())
	}

	prep, results := run()
	if got := calls.Load(); got != 2 {
		t.Fatalf("resumed run ran %d more cells, want 0", got-2)
	}
	if prep.Simulated != 0 || prep.Deduped != 1 || prep.Reused != 2 {
		t.Fatalf("resumed plan report = %+v", prep)
	}
	if sum := tally.Snapshot(); sum.Planned != 6 || sum.Deduped != 2 || sum.Simulated != 2 || sum.Reused != 2 {
		t.Fatalf("tally = %+v, want 6 planned, 2 deduped, 2 simulated, 2 reused", sum)
	}
	for i, r := range results {
		if r.Status != StatusReused || r.Value != "val:"+cells[i].Key {
			t.Fatalf("cell %d served %v (%v), want reused val:%s", i, r.Value, r.Status, cells[i].Key)
		}
	}
}

// TestResumeFromStore runs a plan on a store, then re-runs it: the
// second run must serve every cell from the store without executing
// anything, and the stored payloads must round-trip.
func TestResumeFromStore(t *testing.T) {
	type payload struct {
		Miss float64 `json:"miss"`
	}
	st := newJSONStore[payload]()
	mk := func(counter *atomic.Int32) []Cell {
		cells := make([]Cell, 4)
		for i := range cells {
			i := i
			cells[i] = Cell{Key: fmt.Sprintf("k%d", i), Locality: "w", Run: func(context.Context) (any, error) {
				counter.Add(1)
				return payload{Miss: float64(i) + 0.5}, nil
			}}
		}
		return cells
	}

	var ran1 atomic.Int32
	Run(context.Background(), mk(&ran1), Options{Store: st})
	if ran1.Load() != 4 {
		t.Fatalf("first run executed %d cells", ran1.Load())
	}
	if len(st.m) != 4 {
		t.Fatalf("store holds %d cells, want 4", len(st.m))
	}

	var ran2 atomic.Int32
	results, rep := Run(context.Background(), mk(&ran2), Options{Store: st})
	if ran2.Load() != 0 {
		t.Errorf("resume re-ran %d completed cells", ran2.Load())
	}
	if rep.Reused != 4 || rep.Simulated != 0 {
		t.Errorf("resume plan = %s, want 4 reused", rep.String())
	}
	for i, r := range results {
		if r.Status != StatusReused {
			t.Fatalf("cell %d status %v, want reused", i, r.Status)
		}
		p, ok := r.Value.(payload)
		if !ok {
			t.Fatalf("cell %d payload is %T, want payload", i, r.Value)
		}
		if want := float64(i) + 0.5; p.Miss != want {
			t.Errorf("cell %d served %v, want %v", i, p.Miss, want)
		}
	}
}

// TestResumeSkipsOnlyCompleted interleaves a failed cell into the first
// run: it is never saved, so on resume only the completed cells are
// served from the store and the failed one runs again.
func TestResumeSkipsOnlyCompleted(t *testing.T) {
	st := newJSONStore[int]()
	fail := true
	mk := func() []Cell {
		cells := make([]Cell, 3)
		for i := range cells {
			i := i
			cells[i] = Cell{Key: fmt.Sprintf("k%d", i), Locality: "w", Run: func(context.Context) (any, error) {
				if i == 1 && fail {
					return nil, errors.New("transient blip")
				}
				return i, nil
			}}
		}
		return cells
	}
	Run(context.Background(), mk(), Options{Store: st})
	fail = false
	results, _ := Run(context.Background(), mk(), Options{Store: st})
	want := []Status{StatusReused, StatusSimulated, StatusReused}
	for i, r := range results {
		if r.Status != want[i] {
			t.Errorf("cell %d: status %v, want %v", i, r.Status, want[i])
		}
	}
}

// TestRunLocalityOrderExecution: with Parallel=1, cells must execute
// grouped by locality in first-appearance order, not input order.
func TestRunLocalityOrderExecution(t *testing.T) {
	var mu sync.Mutex
	var order []string
	mk := func(key, loc string) Cell {
		return Cell{Key: key, Locality: loc, Name: "test/" + key,
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

// TestIsolate: the service's path runs a job once through Isolate, with
// and without a deadline. A value comes back as is; an error or a panic
// comes back as a CellError naming the cell, a panic with its stack; and
// a failing cell runs once.
func TestIsolate(t *testing.T) {
	for _, timeout := range []time.Duration{0, time.Minute} {
		v, err := Isolate(context.Background(), "job/w", timeout, func(context.Context) (any, error) { return 42, nil })
		if err != nil || v != 42 {
			t.Errorf("timeout %v: success = (%v, %v), want (42, nil)", timeout, v, err)
		}

		calls := 0
		_, err = Isolate(context.Background(), "job/bad", timeout, func(context.Context) (any, error) {
			calls++
			return nil, errors.New("invalid spec")
		})
		if err == nil || calls != 1 || err.Cell != "job/bad" || err.Stack != "" || !strings.Contains(err.Error(), "invalid spec") {
			t.Errorf("timeout %v: failure = %v after %d calls, want the cell's error after one", timeout, err, calls)
		}

		_, err = Isolate(context.Background(), "job/boom", timeout, func(context.Context) (any, error) { panic("hostile") })
		if err == nil || err.Cell != "job/boom" || !strings.Contains(err.Error(), "panic: hostile") || !strings.Contains(err.Stack, "planner_test.go") {
			t.Errorf("timeout %v: panic = %+v, want a CellError with the panic value and its stack", timeout, err)
		}
	}
}

// TestPanicToCellError: a panicking cell in a plan degrades into a
// CellError with the cell's name and the stack of the panic site, its
// siblings are unaffected, and the report keeps the failure.
func TestPanicToCellError(t *testing.T) {
	cells := []Cell{
		cell("a", "w", nil),
		{Key: "b", Locality: "w", Name: "test/b", Run: func(context.Context) (any, error) { panic("bad configuration") }},
		cell("c", "w", nil),
	}
	results, rep := Run(context.Background(), cells, Options{Parallel: 2})
	if results[0].Status != StatusSimulated || results[2].Status != StatusSimulated {
		t.Fatalf("sibling cells degraded: %v / %v", results[0].Status, results[2].Status)
	}
	ce := results[1].Err
	if results[1].Status != StatusFailed || ce == nil {
		t.Fatalf("panicking cell: %+v", results[1])
	}
	if ce.Cell != "test/b" {
		t.Errorf("CellError names %q, want test/b", ce.Cell)
	}
	if !strings.Contains(ce.Error(), "bad configuration") {
		t.Errorf("error text %q lacks the panic value", ce.Error())
	}
	if !strings.Contains(ce.Stack, "planner_test.go") {
		t.Errorf("stack does not point at the panic site:\n%s", ce.Stack)
	}
	if rep.Simulated != 2 || rep.Failed != 1 || len(rep.Failures) != 1 || rep.Failures[0] != ce {
		t.Errorf("report = %+v, want 2 simulated and the one failure", rep)
	}
}

// TestCellTimeout: under a per-cell deadline, a cell that honors its
// context fails with DeadlineExceeded, and one that ignores it is
// abandoned rather than hanging the sweep.
func TestCellTimeout(t *testing.T) {
	hang := make(chan struct{})
	defer close(hang)
	cells := []Cell{
		{Key: "coop", Name: "test/coop", Run: func(ctx context.Context) (any, error) {
			<-ctx.Done() // cooperative simulation checking its context
			return nil, ctx.Err()
		}},
		{Key: "stuck", Name: "test/stuck", Run: func(context.Context) (any, error) {
			<-hang // pathological cell that never checks its context
			return nil, nil
		}},
	}
	start := time.Now()
	results, rep := Run(context.Background(), cells, Options{Parallel: 1, Timeout: 30 * time.Millisecond})
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("sweep hung for %v on a non-cooperative cell", elapsed)
	}
	for i, r := range results {
		if r.Status != StatusFailed || !errors.Is(r.Err, context.DeadlineExceeded) {
			t.Errorf("cell %d: %+v, want failed with DeadlineExceeded", i, r)
		}
	}
	if rep.Failed != 2 {
		t.Errorf("report = %+v, want 2 failed", rep)
	}
}

// TestCancellationMidSweep cancels the context from inside the first cell
// of a sweep: that cell still completes (graceful drain), every queued
// cell is marked aborted, and no cell vanishes from the report.
func TestCancellationMidSweep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran atomic.Int32
	cells := make([]Cell, 6)
	for i := range cells {
		i := i
		cells[i] = Cell{Key: fmt.Sprintf("w%d", i), Name: fmt.Sprintf("test/w%d", i), Run: func(context.Context) (any, error) {
			ran.Add(1)
			if i == 0 {
				cancel() // SIGINT arrives while cell 0 is in flight
			}
			return i, nil
		}}
	}
	results, rep := Run(ctx, cells, Options{Parallel: 1})
	if len(results) != len(cells) {
		t.Fatalf("got %d results for %d cells", len(results), len(cells))
	}
	if results[0].Status != StatusSimulated {
		t.Errorf("in-flight cell: status %v, want simulated (graceful drain)", results[0].Status)
	}
	for i, r := range results[1:] {
		if r.Status != StatusAborted {
			t.Errorf("queued cell %d: status %v, want aborted", i+1, r.Status)
		}
	}
	if got := ran.Load(); got != 1 {
		t.Errorf("%d cells ran after cancellation, want 1", got)
	}
	if rep.Simulated != 1 || rep.Aborted != len(cells)-1 {
		t.Errorf("report = %+v, want 1 simulated and %d aborted", rep, len(cells)-1)
	}
}
