package planner

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
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
	_, _, aborted := rep.Counts()
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

// TestRunReportAccountsEveryCell: the runner report holds one row per
// unique cell that ran, and the plan report accounts for every cell —
// fresh cells as Simulated, store hits as Reused (with no runner row),
// duplicates as Deduped.
func TestRunReportAccountsEveryCell(t *testing.T) {
	st := newJSONStore[string]()
	cells := []Cell{
		cell("a", "w1", nil),
		cell("a", "w1", nil), // dup
		cell("b", "w2", nil),
	}
	run := func() (Report, *runner.Report, []Result) {
		rep := &runner.Report{}
		results, prep := Run(context.Background(), cells, Options{Runner: runner.Options{Report: rep}, Store: st})
		return prep, rep, results
	}

	prep, rep, _ := run()
	if done, _, _ := rep.Counts(); done != 2 || len(rep.Cells()) != 2 {
		t.Fatalf("first run rows: done=%d of %d, want 2 of 2", done, len(rep.Cells()))
	}
	if prep.Simulated != 2 || prep.Deduped != 1 || prep.Reused != 0 {
		t.Fatalf("first plan report = %+v", prep)
	}

	prep, rep, results := run()
	if n := len(rep.Cells()); n != 0 {
		t.Fatalf("resumed run added %d runner rows, want 0", n)
	}
	if prep.Simulated != 0 || prep.Deduped != 1 || prep.Reused != 2 {
		t.Fatalf("resumed plan report = %+v", prep)
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
