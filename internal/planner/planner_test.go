package planner

import (
	"context"
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

func TestRunProbesSourcesBeforeExecuting(t *testing.T) {
	var calls atomic.Int64
	stored := map[string]any{"a": "stored:a"}
	src := Source{Name: "store", Load: func(key string) (any, bool) {
		v, ok := stored[key]
		return v, ok
	}}
	cells := []Cell{cell("a", "w1", &calls), cell("b", "w1", &calls)}
	results, rep := Run(context.Background(), cells, Options{Sources: []Source{src}})
	if got := calls.Load(); got != 1 {
		t.Fatalf("Run invocations = %d, want 1 (only the store miss)", got)
	}
	if results[0].Status != StatusReused || results[0].Source != "store" || results[0].Value != "stored:a" {
		t.Fatalf("cell a = %+v, want reused from store", results[0])
	}
	if results[1].Status != StatusSimulated {
		t.Fatalf("cell b = %+v, want simulated", results[1])
	}
	if rep.Reused["store"] != 1 || rep.Simulated != 1 {
		t.Fatalf("report = %+v, want store=1 simulated=1", rep)
	}
}

func TestMemoServesSecondPlanWithZeroExecutions(t *testing.T) {
	var calls atomic.Int64
	memo := NewMemo(0)
	cells := []Cell{cell("a", "w1", &calls), cell("b", "w2", &calls)}
	_, rep1 := Run(context.Background(), cells, Options{Memo: memo})
	if rep1.Simulated != 2 {
		t.Fatalf("first plan simulated = %d, want 2", rep1.Simulated)
	}
	results, rep2 := Run(context.Background(), cells, Options{Memo: memo})
	if got := calls.Load(); got != 2 {
		t.Fatalf("total Run invocations = %d, want 2 (second plan fully memoized)", got)
	}
	if rep2.Simulated != 0 || rep2.Reused["memo"] != 2 {
		t.Fatalf("second plan report = %+v, want all memo hits", rep2)
	}
	for i, r := range results {
		if r.Value != "val:"+cells[i].Key {
			t.Fatalf("memoized value %d = %v", i, r.Value)
		}
	}
}

func TestMemoCoalescesConcurrentExecutions(t *testing.T) {
	memo := NewMemo(0)
	entered := make(chan struct{})
	release := make(chan struct{})
	var calls atomic.Int64
	leaderDone := make(chan Result, 1)
	go func() {
		leaderDone <- memo.do(context.Background(), "k", func() Result {
			calls.Add(1)
			close(entered)
			<-release
			return Result{Status: StatusSimulated, Value: "v"}
		})
	}()
	<-entered // the leader is in-flight: the key is in the flight table
	waiterDone := make(chan Result, 1)
	go func() {
		waiterDone <- memo.do(context.Background(), "k", func() Result {
			calls.Add(1)
			return Result{Status: StatusSimulated, Value: "v"}
		})
	}()
	close(release)
	leader, waiter := <-leaderDone, <-waiterDone
	if got := calls.Load(); got != 1 {
		t.Fatalf("executions = %d, want 1", got)
	}
	if leader.Status != StatusSimulated {
		t.Fatalf("leader status = %v", leader.Status)
	}
	// The waiter either attached to the flight (coalesced) or arrived after
	// completion and hit the cache (reused) — never a second execution.
	if waiter.Status != StatusCoalesced && !(waiter.Status == StatusReused && waiter.Source == "memo") {
		t.Fatalf("waiter = %+v, want coalesced or memo hit", waiter)
	}
	if waiter.Value != "v" {
		t.Fatalf("waiter value = %v, want v", waiter.Value)
	}
}

func TestMemoDoesNotCacheFailures(t *testing.T) {
	memo := NewMemo(0)
	boom := errors.New("boom")
	r1 := memo.do(context.Background(), "k", func() Result { return Result{Status: StatusFailed, Err: boom} })
	if r1.Status != StatusFailed {
		t.Fatalf("r1 = %+v", r1)
	}
	r2 := memo.do(context.Background(), "k", func() Result { return Result{Status: StatusSimulated, Value: "ok"} })
	if r2.Status != StatusSimulated || r2.Value != "ok" {
		t.Fatalf("failure was cached: r2 = %+v", r2)
	}
}

// A waiter whose context is cancelled must stop waiting on the flight
// and report the abort, leaving the leader undisturbed.
func TestMemoWaiterAbortsOnCancel(t *testing.T) {
	memo := NewMemo(0)
	entered := make(chan struct{})
	release := make(chan struct{})
	leaderDone := make(chan Result, 1)
	go func() {
		leaderDone <- memo.do(context.Background(), "k", func() Result {
			close(entered)
			<-release
			return Result{Status: StatusSimulated, Value: "v"}
		})
	}()
	<-entered // the leader is in-flight: the key is in the flight table
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := memo.do(ctx, "k", func() Result {
		t.Error("waiter must attach to the flight, not execute")
		return Result{}
	})
	if r.Status != StatusAborted {
		t.Fatalf("cancelled waiter = %+v, want StatusAborted", r)
	}
	close(release)
	if r := <-leaderDone; r.Status != StatusSimulated {
		t.Fatalf("leader = %+v", r)
	}
}

// A leader whose fn panics must still tear down the flight entry and
// close done: the panic propagates to its caller, but later plans for
// the key run fresh instead of parking forever on a channel nobody will
// ever close.
func TestMemoLeaderPanicDoesNotStrand(t *testing.T) {
	memo := NewMemo(0)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("leader panic did not propagate")
			}
		}()
		memo.do(context.Background(), "k", func() Result { panic("boom") })
	}()
	r := memo.do(context.Background(), "k", func() Result {
		return Result{Status: StatusSimulated, Value: "ok"}
	})
	if r.Status != StatusSimulated || r.Value != "ok" {
		t.Fatalf("post-panic do = %+v, want a fresh execution", r)
	}
}

func TestMemoEvictsLRU(t *testing.T) {
	memo := NewMemo(2)
	put := func(key string, v int) {
		memo.do(context.Background(), key, func() Result { return Result{Status: StatusSimulated, Value: v} })
	}
	put("a", 1)
	put("b", 2)
	if _, ok := memo.Get("a"); !ok { // refresh a: b is now LRU
		t.Fatal("a missing")
	}
	put("c", 3)
	if _, ok := memo.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := memo.Get("a"); !ok {
		t.Fatal("a should have survived (refreshed)")
	}
	if memo.Len() != 2 {
		t.Fatalf("Len = %d, want 2", memo.Len())
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

// TestRunReportAccountsEveryCell: the runner report must hold one row per
// input cell regardless of how each was served, so CLI epilogues stay
// complete under reuse.
func TestRunReportAccountsEveryCell(t *testing.T) {
	memo := NewMemo(0)
	rep := &runner.Report{}
	cells := []Cell{
		cell("a", "w1", nil),
		cell("a", "w1", nil), // dup
		cell("b", "w2", nil),
	}
	Run(context.Background(), cells, Options{Memo: memo, Runner: runner.Options{Report: rep}})
	done, skipped, _, _ := rep.Counts()
	if done != 2 || skipped != 1 {
		t.Fatalf("first run rows: done=%d skipped=%d, want 2/1", done, skipped)
	}
	rep2 := &runner.Report{}
	Run(context.Background(), cells, Options{Memo: memo, Runner: runner.Options{Report: rep2}})
	done, skipped, _, _ = rep2.Counts()
	if done != 0 || skipped != 3 {
		t.Fatalf("memoized run rows: done=%d skipped=%d, want 0/3", done, skipped)
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

// TestConcurrentPlansShareMemo drives many overlapping plans through one
// memo under the race detector: total fresh executions must not exceed
// the number of distinct keys, and every cell must see the key's value.
func TestConcurrentPlansShareMemo(t *testing.T) {
	memo := NewMemo(0)
	var calls atomic.Int64
	const plans, keys = 8, 5
	var wg sync.WaitGroup
	errs := make(chan error, plans)
	for p := 0; p < plans; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			var cells []Cell
			for k := 0; k < keys; k++ {
				key := fmt.Sprintf("k%d", (p+k)%keys)
				cells = append(cells, cell(key, "w", &calls))
			}
			results, _ := Run(context.Background(), cells, Options{Parallel: 3, Memo: memo})
			for i, r := range results {
				if r.Err != nil {
					errs <- fmt.Errorf("plan %d cell %d: %v", p, i, r.Err)
					return
				}
				if want := "val:" + cells[i].Key; r.Value != want {
					errs <- fmt.Errorf("plan %d cell %d: value %v, want %v", p, i, r.Value, want)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := calls.Load(); got > keys {
		t.Fatalf("fresh executions = %d, want <= %d (coalesced/memoized)", got, keys)
	}
}

func TestStatusString(t *testing.T) {
	want := map[Status]string{
		StatusSimulated: "simulated",
		StatusReused:    "reused",
		StatusCoalesced: "coalesced",
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

func TestReusedTotal(t *testing.T) {
	r := Report{Reused: map[string]int{"memo": 2, "store": 3}}
	if r.ReusedTotal() != 5 {
		t.Fatalf("ReusedTotal = %d, want 5", r.ReusedTotal())
	}
}
