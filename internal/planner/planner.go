// Package planner turns a sweep grid into the minimum set of simulations
// it actually requires. A naive sweep simulates every cell independently,
// yet sweep grids repeat themselves: neighboring cells normalize to the
// same content key, or share a trace stream with the cell before them.
// The planner makes that redundancy explicit as a three-stage pipeline:
//
//  1. dedup — cells are collapsed by content key; duplicates within one
//     grid alias the first occurrence and cost nothing;
//  2. order — the unique cells are regrouped by trace locality, so the
//     content-addressed corpus cache stays hot instead of thrashing when
//     a grid's natural order interleaves workloads;
//  3. execute — each unique cell is looked up once in the plan's Store,
//     when one is set; the rest run on a bounded worker pool, each once
//     through runner.RunOne (panic isolation, per-cell deadline), and
//     are saved to the Store as they finish.
//
// Reuse is semantically invisible by the determinism contract: a
// duplicate or a store hit is bit-identical to a fresh run of the same
// key, so a planned sweep reports exactly the metrics of a naive one.
package planner

import (
	"context"
	"fmt"
	"sync"

	"xbc/internal/runner"
)

// Cell is one plannable unit of sweep work.
type Cell struct {
	// Key is the content identity: two cells with equal keys are the same
	// work and must produce the same value (the job key for a cell a
	// jobspec.Spec describes, a key built from its inputs otherwise). It
	// is also the cell's key in the Store.
	Key string
	// Locality groups cells that replay the same underlying trace stream;
	// the executor keeps a group's cells adjacent so the corpus cache
	// serves them from one generation.
	Locality string
	// RCell is the runner identity for panic reports and report rows.
	RCell runner.Cell
	// Run computes the value when the Store does not hold it. It may be
	// nil for planning-only use (NewPlan).
	Run func(ctx context.Context) (any, error)
}

// Plan is the analyzed form of a cell list: exact duplicates collapsed
// onto their first occurrence, and the unique cells reordered so cells
// sharing a Locality are adjacent. Group order follows first appearance,
// as does order within a group, so planning is deterministic.
type Plan struct {
	primary []int // per input cell: index of the first cell with its key
	unique  []int // unique cell indices, locality-grouped
}

// NewPlan dedups and orders cells. It never fails: cells are already
// canonicalized (an invalid spec must be rejected before planning).
func NewPlan(cells []Cell) *Plan {
	p := &Plan{primary: make([]int, len(cells))}
	first := make(map[string]int, len(cells))
	groups := make(map[string][]int)
	var groupOrder []string
	for i, c := range cells {
		if j, ok := first[c.Key]; ok {
			p.primary[i] = j
			continue
		}
		first[c.Key] = i
		p.primary[i] = i
		if _, seen := groups[c.Locality]; !seen {
			groupOrder = append(groupOrder, c.Locality)
		}
		groups[c.Locality] = append(groups[c.Locality], i)
	}
	for _, loc := range groupOrder {
		p.unique = append(p.unique, groups[loc]...)
	}
	return p
}

// Unique returns the locality-ordered indices of the unique cells: one
// representative per distinct key.
func (p *Plan) Unique() []int { return append([]int(nil), p.unique...) }

// Primary returns the index of the first cell sharing cell i's key
// (i itself when i is that first occurrence).
func (p *Plan) Primary(i int) int { return p.primary[i] }

// Deduped returns how many cells were exact duplicates of an earlier one.
func (p *Plan) Deduped() int { return len(p.primary) - len(p.unique) }

// Status classifies how one planned cell was served.
type Status int

const (
	// StatusSimulated: the cell ran fresh in this plan.
	StatusSimulated Status = iota
	// StatusReused: the value was served from the Store with zero
	// simulation.
	StatusReused
	// StatusFailed: the cell errored, panicked, or timed out.
	StatusFailed
	// StatusAborted: the context was cancelled before the cell ran.
	StatusAborted
)

// String names the status.
func (s Status) String() string {
	switch s {
	case StatusSimulated:
		return "simulated"
	case StatusReused:
		return "reused"
	case StatusFailed:
		return "failed"
	case StatusAborted:
		return "aborted"
	default:
		return "unknown"
	}
}

// Result is the outcome of one input cell. Duplicates share their
// primary's result.
type Result struct {
	Status Status
	Value  any   // the payload, fresh or as the Store decoded it
	Err    error // set when Status is StatusFailed
}

// Report accounts for how a plan's cells were served.
type Report struct {
	Planned   int // input cells
	Deduped   int // exact duplicates within the plan
	Reused    int // unique cells served from the Store
	Simulated int // unique cells that ran fresh
	Failed    int
	Aborted   int
}

// String renders the report as a one-line plan summary for CLI epilogues.
func (r Report) String() string {
	s := fmt.Sprintf("%d planned, %d deduped, %d reused, %d simulated",
		r.Planned, r.Deduped, r.Reused, r.Simulated)
	if r.Failed > 0 {
		s += fmt.Sprintf(", %d failed", r.Failed)
	}
	if r.Aborted > 0 {
		s += fmt.Sprintf(", %d aborted", r.Aborted)
	}
	return s
}

// Tally accumulates plan reports across the Run calls of one run (all
// figures of one CLI invocation) and keeps the run's memory, Memo. It is
// safe for concurrent use.
type Tally struct {
	mu   sync.Mutex
	sum  Report
	memo map[string]any
}

// Memo returns an in-memory Store that lives as long as the tally, so
// plans of one run without a durable Store still run each cell they share
// once. It serves the value the first plan computed, shared the way one
// plan shares a value among duplicate cells.
func (t *Tally) Memo() Store { return tallyMemo{t} }

type tallyMemo struct{ t *Tally }

func (m tallyMemo) Load(key string) (any, bool) {
	m.t.mu.Lock()
	defer m.t.mu.Unlock()
	v, ok := m.t.memo[key]
	return v, ok
}

func (m tallyMemo) Save(key string, v any) {
	m.t.mu.Lock()
	defer m.t.mu.Unlock()
	if m.t.memo == nil {
		m.t.memo = make(map[string]any)
	}
	m.t.memo[key] = v
}

// Add folds one plan's report into the tally.
func (t *Tally) Add(r Report) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sum.Planned += r.Planned
	t.sum.Deduped += r.Deduped
	t.sum.Reused += r.Reused
	t.sum.Simulated += r.Simulated
	t.sum.Failed += r.Failed
	t.sum.Aborted += r.Aborted
}

// Snapshot returns the accumulated totals.
func (t *Tally) Snapshot() Report {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sum
}

// Store is the durable result log under a plan. Load is consulted once
// per unique cell, before it would run; Save receives the value of each
// cell that ran to completion. Both are keyed by Cell.Key, and Load must
// return values of the type the cell's Run returns.
type Store interface {
	Load(key string) (any, bool)
	Save(key string, v any)
}

// Options configures plan execution.
type Options struct {
	// Parallel bounds the worker pool over unique cells (default 4).
	Parallel int
	// Runner carries the per-cell isolation machinery (timeout, report)
	// for every unique cell that runs.
	Runner runner.Options
	// Store, when non-nil, serves finished cells and records fresh ones,
	// so a rerun of an interrupted plan simulates only what is missing.
	Store Store
}

// Run executes cells under the plan pipeline and returns one result per
// input cell (duplicates aliasing their primary) plus the accounting
// report. The runner report, when set, gets one row per unique cell that
// was not served from the Store; duplicates are counted only as Deduped
// and store hits only as Reused. Cancelling ctx drains
// gracefully: in-flight cells finish, unstarted cells report
// StatusAborted.
func Run(ctx context.Context, cells []Cell, opt Options) ([]Result, Report) {
	if ctx == nil {
		ctx = context.Background()
	}
	if opt.Parallel <= 0 {
		opt.Parallel = 4
	}
	plan := NewPlan(cells)
	results := make([]Result, len(cells))
	rep := Report{Planned: len(cells), Deduped: plan.Deduped()}

	// A cell the drain stops before it reaches the runner still needs its
	// report row, so CLI summaries account for every unique cell.
	abort := func(ui int) {
		results[ui] = Result{Status: StatusAborted}
		if opt.Runner.Report != nil {
			opt.Runner.Report.Add(runner.CellResult{Cell: cells[ui].RCell, Status: runner.StatusAborted})
		}
	}
	sem := make(chan struct{}, opt.Parallel)
	var wg sync.WaitGroup
	for _, ui := range plan.unique {
		select {
		case <-ctx.Done():
			abort(ui)
			continue
		case sem <- struct{}{}:
			// A cancellation that raced the semaphore acquire still wins:
			// the drain must not start new cells.
			if ctx.Err() != nil {
				<-sem
				abort(ui)
				continue
			}
		}
		wg.Add(1)
		go func(ui int) {
			defer wg.Done()
			defer func() { <-sem }()
			results[ui] = opt.run(ctx, cells[ui])
		}(ui)
	}
	//xbc:ignore ctxflow graceful drain by contract: cancellation stops new cells above, and every started worker runs one ctx-aware cell and exits
	wg.Wait()

	for _, ui := range plan.unique {
		switch results[ui].Status {
		case StatusSimulated:
			rep.Simulated++
		case StatusReused:
			rep.Reused++
		case StatusFailed:
			rep.Failed++
		case StatusAborted:
			rep.Aborted++
		}
	}
	for i := range cells {
		results[i] = results[plan.primary[i]]
	}
	return results, rep
}

// run serves one unique cell from the Store, or executes it through the
// runner (which adds its own row to Options.Runner.Report) and saves it.
func (o Options) run(ctx context.Context, c Cell) Result {
	if o.Store != nil {
		if v, ok := o.Store.Load(c.Key); ok {
			return Result{Status: StatusReused, Value: v}
		}
	}
	cr := runner.RunOne(ctx, o.Runner, runner.Task{Cell: c.RCell, Run: c.Run})
	switch cr.Status {
	case runner.StatusDone:
		if o.Store != nil {
			o.Store.Save(c.Key, cr.Payload)
		}
		return Result{Status: StatusSimulated, Value: cr.Payload}
	case runner.StatusFailed:
		return Result{Status: StatusFailed, Err: cr.Err}
	default:
		return Result{Status: StatusAborted}
	}
}
