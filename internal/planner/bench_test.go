package planner_test

// Sweep-planner reuse benchmark: the same 90%-duplicate grid through the
// naive cell-by-cell path and through planner.Run. The custom
// "simcells/op" metric counts actual simulations per sweep — the number
// PR 7 exists to shrink — and `make bench-sweep` gates it against the
// checked-in BENCH_PR7.json baseline alongside wall time.

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"xbc/internal/planner"
	"xbc/internal/planner/grid"
	"xbc/internal/service/jobspec"
)

const benchParallel = 4

// benchGrid is 10 unique specs (one budget axis) fanned out 10x by a
// duplicated workload axis: 100 planned cells, 10 distinct keys.
func benchGrid(tb testing.TB) []grid.Cell {
	g := grid.Grid{
		Frontends: []string{"xbc"},
		Workloads: make([]string, 10),
		Budgets:   make([]int, 10),
		Uops:      20_000,
	}
	for i := range g.Workloads {
		g.Workloads[i] = "straightline"
	}
	for i := range g.Budgets {
		g.Budgets[i] = 1024 * (i + 1)
	}
	cells, err := grid.Expand(g)
	if err != nil {
		tb.Fatal(err)
	}
	if len(cells) != 100 {
		tb.Fatalf("grid expanded to %d cells, want 100", len(cells))
	}
	return cells
}

// sweepNaive executes every cell — no dedup, no reuse — on the same
// worker-pool width the planner uses, and returns the simulations run.
func sweepNaive(tb testing.TB, cells []grid.Cell) int64 {
	var sims atomic.Int64
	sem := make(chan struct{}, benchParallel)
	var wg sync.WaitGroup
	for _, c := range cells {
		c := c
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			sims.Add(1)
			if _, err := jobspec.Execute(c.Norm); err != nil {
				tb.Error(err)
			}
		}()
	}
	wg.Wait()
	return sims.Load()
}

// sweepPlanned routes the cells through planner.Run, where duplicates
// alias their primary and only distinct keys simulate, and returns the
// simulations run.
func sweepPlanned(tb testing.TB, gcells []grid.Cell) int64 {
	var sims atomic.Int64
	cells := make([]planner.Cell, len(gcells))
	for i, gc := range gcells {
		spec := gc.Norm
		cells[i] = planner.Cell{
			Key:      gc.Key,
			Locality: gc.Locality,
			Run: func(context.Context) (any, error) {
				sims.Add(1)
				return jobspec.Execute(spec)
			},
		}
	}
	results, _ := planner.Run(context.Background(), cells, planner.Options{Parallel: benchParallel})
	for i, r := range results {
		if r.Err != nil {
			tb.Fatalf("cell %d: %v", i, r.Err)
		}
	}
	return sims.Load()
}

// BenchmarkSweepNaive executes every planned cell.
func BenchmarkSweepNaive(b *testing.B) {
	cells := benchGrid(b)
	var sims int64
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		sims += sweepNaive(b, cells)
	}
	b.StopTimer()
	b.ReportMetric(float64(sims)/float64(b.N), "simcells/op")
}

// BenchmarkSweepPlanned routes the identical grid through planner.Run.
func BenchmarkSweepPlanned(b *testing.B) {
	cells := benchGrid(b)
	var sims int64
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		sims += sweepPlanned(b, cells)
	}
	b.StopTimer()
	b.ReportMetric(float64(sims)/float64(b.N), "simcells/op")
}

// TestSweepSimCells holds BENCH_PR7's deterministic counter in tier-1:
// the 90%-duplicate grid simulates all 100 cells naively and exactly its
// 10 distinct keys planned.
func TestSweepSimCells(t *testing.T) {
	cells := benchGrid(t)
	if n := sweepNaive(t, cells); n != 100 {
		t.Errorf("naive sweep simulated %d cells, want 100", n)
	}
	if n := sweepPlanned(t, cells); n != 10 {
		t.Errorf("planned sweep simulated %d cells, want 10", n)
	}
}

// TestSweepAllocs holds BENCH_PR7's allocs/op ledger in tier-1, as
// TestFrontendAllocs holds BENCH_PR4's: neither sweep may allocate more
// than the ledger records (4692 naive, 633 planned). The counts are not
// pinned exactly, because the worker goroutines and sync.Pool move them
// by a few allocations from run to run (4597-4601 naive and 619 planned
// on Go 1.24).
func TestSweepAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector adds allocations of its own")
	}
	cells := benchGrid(t)
	for _, c := range []struct {
		name  string
		sweep func(testing.TB, []grid.Cell) int64
		max   float64
	}{
		{"SweepNaive", sweepNaive, 4692},
		{"SweepPlanned", sweepPlanned, 633},
	} {
		if got := testing.AllocsPerRun(3, func() { c.sweep(t, cells) }); got > c.max {
			t.Errorf("%s: %v allocs per sweep, over the ledger's %v", c.name, got, c.max)
		}
	}
}

// The benchmark file doubles as a correctness check that both paths
// compute identical metrics; `go test` runs it for free.
func TestBenchPathsAgree(t *testing.T) {
	g := grid.Grid{
		Frontends: []string{"xbc"},
		Workloads: []string{"straightline", "straightline", "loopnest"},
		Budgets:   []int{2048},
		Uops:      20_000,
	}
	cells, err := grid.Expand(g)
	if err != nil {
		t.Fatal(err)
	}
	pcells := make([]planner.Cell, len(cells))
	for i, gc := range cells {
		spec := gc.Norm
		pcells[i] = planner.Cell{
			Key:      gc.Key,
			Locality: gc.Locality,
			Run:      func(context.Context) (any, error) { return jobspec.Execute(spec) },
		}
	}
	results, _ := planner.Run(context.Background(), pcells, planner.Options{Parallel: 2})
	for i, gc := range cells {
		direct, err := jobspec.Execute(gc.Norm)
		if err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprintf("%+v", results[i].Value)
		want := fmt.Sprintf("%+v", direct)
		if got != want {
			t.Errorf("cell %d diverges from direct execution:\nplanner: %s\ndirect:  %s", i, got, want)
		}
	}
}
