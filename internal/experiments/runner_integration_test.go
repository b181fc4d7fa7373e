package experiments

import (
	"context"
	"math"
	"testing"

	"xbc/internal/planner"
	"xbc/internal/store"
	"xbc/internal/workload"
)

// These tests cover the experiment layer's integration with the
// planner's cell isolation and the store: cancellation drains a figure
// gracefully, and a store lets a second run serve every finished cell
// without recomputation.

func TestFigureAbortsOnCancelledContext(t *testing.T) {
	o := smallOpts()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: nothing may start
	o.Ctx = ctx
	o.Plan = &planner.Tally{}
	r, err := Figure8(o)
	if err != nil {
		t.Fatalf("cancelled figure errored instead of degrading: %v", err)
	}
	if len(r.Rows) != 0 {
		t.Fatalf("cancelled figure produced %d rows", len(r.Rows))
	}
	p := o.Plan.Snapshot()
	if p.Simulated != 0 || p.Failed != 0 {
		t.Fatalf("plan %s; want all aborted", p.String())
	}
	// Figure 8 plans one cell per spec: the XBC and the TC of each workload.
	if p.Aborted != 2*len(o.Workloads) {
		t.Fatalf("aborted %d cells, want %d", p.Aborted, 2*len(o.Workloads))
	}
}

// openStoreT opens a store in dir and closes it when the test ends.
func openStoreT(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := st.Close(); err != nil {
			t.Error(err)
		}
	})
	return st
}

func TestFigureResumesFromStore(t *testing.T) {
	o := smallOpts()
	o.Store = openStoreT(t, t.TempDir())
	o.Plan = &planner.Tally{}
	first, err := Figure8(o)
	if err != nil {
		t.Fatal(err)
	}
	if d := o.Plan.Snapshot().Simulated; d != 2*len(o.Workloads) {
		t.Fatalf("first run completed %d cells, want %d", d, 2*len(o.Workloads))
	}

	// Second run resumes: every cell is served from the store, and the
	// served figure matches the computed one.
	o2 := smallOpts()
	o2.Store = o.Store
	tally := &planner.Tally{}
	o2.Plan = tally
	second, err := Figure8(o2)
	if err != nil {
		t.Fatal(err)
	}
	if p := tally.Snapshot(); p.Simulated != 0 || p.Reused != 2*len(o2.Workloads) {
		t.Fatalf("resume ran %d cells and reused %d; want all %d reused", p.Simulated, p.Reused, 2*len(o2.Workloads))
	}
	if len(first.Rows) != len(second.Rows) {
		t.Fatalf("row count changed across resume: %d vs %d", len(first.Rows), len(second.Rows))
	}
	for i := range first.Rows {
		a, b := first.Rows[i], second.Rows[i]
		if a.Workload != b.Workload || math.Abs(a.XBC-b.XBC) > 1e-12 || math.Abs(a.TC-b.TC) > 1e-12 {
			t.Fatalf("row %d diverged across resume:\nfresh   %+v\nreplayed %+v", i, a, b)
		}
	}
}

func TestFigure1ResumesHistogramsFromStore(t *testing.T) {
	// Figure 1's payload exercises the Histogram JSON round-trip.
	o := smallOpts()
	o.Store = openStoreT(t, t.TempDir())
	first, err := Figure1(o)
	if err != nil {
		t.Fatal(err)
	}

	o2 := smallOpts()
	o2.Store = o.Store
	tally := &planner.Tally{}
	o2.Plan = tally
	second, err := Figure1(o2)
	if err != nil {
		t.Fatal(err)
	}
	if p := tally.Snapshot(); p.Simulated != 0 || p.Reused == 0 {
		t.Fatalf("resume recomputed %d cells (reused %d)", p.Simulated, p.Reused)
	}
	for k, h := range first.Hist {
		h2 := second.Hist[k]
		if h2 == nil || h2.Total() != h.Total() || math.Abs(h2.Mean()-h.Mean()) > 1e-12 {
			t.Fatalf("kind %v histogram diverged across resume", k)
		}
	}
}

// TestCancelledRunResumesRemainingCells cancels a figure's run after k
// cells have finished, then reruns it on the same store: exactly the
// cells that did not finish simulate, and the values match a clean run.
func TestCancelledRunResumesRemainingCells(t *testing.T) {
	const k = 2
	o := smallOpts()
	o.Parallel = 1
	o.Workloads = workload.All()[:5]
	o.Store = openStoreT(t, t.TempDir())
	value := func(w workload.Workload) int { return len(w.Name) }
	run := func(ctx context.Context, cancel func()) ([]int, []bool, planner.Report) {
		ro := o
		ro.Ctx = ctx
		tally := &planner.Tally{}
		ro.Plan = tally
		var ran int
		vals, ok, err := runCells(ro, "test-resume", nil, ro.Workloads,
			func(ctx context.Context, w workload.Workload) (int, error) {
				if ran++; ran == k && cancel != nil {
					cancel() // SIGINT arrives while the k-th cell is in flight
				}
				return value(w), nil
			})
		if err != nil {
			t.Fatal(err)
		}
		return vals, ok, tally.Snapshot()
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, _, first := run(ctx, cancel)
	if first.Simulated != k || first.Aborted != len(o.Workloads)-k {
		t.Fatalf("cancelled run: %s, want %d simulated and the rest aborted", first.String(), k)
	}
	vals, ok, second := run(context.Background(), nil)
	if second.Reused != k || second.Simulated != len(o.Workloads)-k {
		t.Fatalf("rerun: %s, want %d reused and %d simulated", second.String(), k, len(o.Workloads)-k)
	}
	for i, w := range o.Workloads {
		if !ok[i] || vals[i] != value(w) {
			t.Errorf("%s: value %d (ok %v), want %d", w.Name, vals[i], ok[i], value(w))
		}
	}
}

func TestRunCellsPanicIsolation(t *testing.T) {
	// A cell whose function panics must cost only its own row.
	o := smallOpts()
	o.Plan = &planner.Tally{}
	vals, ok, err := runCells(o, "test-panic", nil, o.Workloads,
		func(ctx context.Context, w workload.Workload) (int, error) {
			if w.Name == o.Workloads[0].Name {
				panic("injected cell panic")
			}
			return 7, nil
		})
	if err != nil {
		t.Fatalf("one panicking cell failed the figure: %v", err)
	}
	if ok[0] {
		t.Fatal("panicked cell reported ok")
	}
	for i := 1; i < len(vals); i++ {
		if !ok[i] || vals[i] != 7 {
			t.Fatalf("healthy cell %d degraded: ok=%v val=%d", i, ok[i], vals[i])
		}
	}
	p := o.Plan.Snapshot()
	if p.Failed != 1 {
		t.Fatalf("plan counts %d failures, want 1", p.Failed)
	}
	if len(p.Failures) != 1 || p.Failures[0].Stack == "" || p.Failures[0].Cell != "test-panic/"+o.Workloads[0].Name {
		t.Fatalf("failure missing its cell or stack: %+v", p.Failures)
	}
}
