// Package planner turns a sweep grid into the minimum set of simulations
// it actually requires. A naive sweep simulates every cell independently,
// yet production sweep traffic is dominated by redundancy: neighboring
// cells normalize to the same content key, were already computed by an
// earlier sweep, or share a trace stream with the cell before them. The
// planner makes that redundancy explicit as a four-stage pipeline:
//
//  1. dedup — cells are collapsed by content key; duplicates within one
//     grid alias the first occurrence and cost nothing;
//  2. probe — reuse sources (the in-memory memo, a persistent store, any
//     caller-supplied cache) are consulted per unique key, and a hit is
//     served with zero simulation;
//  3. order — the residual cells are regrouped by trace locality, so the
//     content-addressed corpus cache stays hot instead of thrashing when
//     a grid's natural order interleaves workloads;
//  4. execute — the residue runs on a bounded worker pool, each cell
//     through runner.RunOne (panic isolation, per-cell deadline, bounded
//     retry, journal replay), with concurrent identical keys across
//     plans coalesced onto one execution by the memo's singleflight.
//
// Reuse is semantically invisible by the determinism contract: a served
// value is bit-identical to a fresh run of the same key, so a planned
// sweep reports exactly the metrics of a naive one.
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
	// work and must produce the same value (jobspec.Key for service
	// sweeps, runner.Cell.Key for experiment figures).
	Key string
	// Locality groups cells that replay the same underlying trace stream;
	// the executor keeps a group's cells adjacent so the corpus cache
	// serves them from one generation.
	Locality string
	// RCell is the runner identity for panic reports, journaling, and
	// report rows.
	RCell runner.Cell
	// Run computes the value when no reuse source has it. It may be nil
	// for planning-only use (NewPlan).
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

// Source answers "is this key's result already in hand" — the persistent
// store, a warm in-memory cache, or anything else content-addressed by
// the same keys. Load must be safe for concurrent use.
type Source struct {
	Name string
	Load func(key string) (any, bool)
}

// Status classifies how one planned cell was served.
type Status int

const (
	// StatusSimulated: the cell ran fresh in this plan.
	StatusSimulated Status = iota
	// StatusReused: the value came from a reuse source (memo, store,
	// journal) with zero simulation.
	StatusReused
	// StatusCoalesced: a concurrent plan was already executing the key;
	// this cell attached to that execution.
	StatusCoalesced
	// StatusFailed: every attempt errored, panicked, or timed out.
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
	case StatusCoalesced:
		return "coalesced"
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
	Status   Status
	Source   string // reuse source name when Status is StatusReused
	Value    any    // the payload; json.RawMessage for journal replays
	Err      error  // set when Status is StatusFailed
	Attempts int

	// reported is true when runner.RunOne already accounted for this cell
	// in Options.Runner.Report; the planner synthesizes rows for the rest
	// (reused, coalesced, deduped, aborted-in-plan) so summaries stay
	// complete.
	reported bool
}

// Report accounts for how a plan's cells were served.
type Report struct {
	Planned   int            // input cells
	Deduped   int            // exact duplicates within the plan
	Reused    map[string]int // unique cells served per source name
	Coalesced int            // unique cells attached to a concurrent execution
	Simulated int            // unique cells that ran fresh
	Failed    int
	Aborted   int
}

// ReusedTotal sums the per-source reuse counts.
func (r Report) ReusedTotal() int {
	n := 0
	//xbc:ignore nondeterm commutative sum; order cannot change the total
	for _, v := range r.Reused {
		n += v
	}
	return n
}

// String renders the report as a one-line plan summary for CLI epilogues.
func (r Report) String() string {
	s := fmt.Sprintf("%d planned, %d deduped, %d reused, %d coalesced, %d simulated",
		r.Planned, r.Deduped, r.ReusedTotal(), r.Coalesced, r.Simulated)
	if r.Failed > 0 {
		s += fmt.Sprintf(", %d failed", r.Failed)
	}
	if r.Aborted > 0 {
		s += fmt.Sprintf(", %d aborted", r.Aborted)
	}
	return s
}

// Tally accumulates plan reports across many Run calls (all figures of
// one CLI invocation). It is safe for concurrent use.
type Tally struct {
	mu  sync.Mutex
	sum Report
}

// Add folds one plan's report into the tally.
func (t *Tally) Add(r Report) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sum.Planned += r.Planned
	t.sum.Deduped += r.Deduped
	t.sum.Coalesced += r.Coalesced
	t.sum.Simulated += r.Simulated
	t.sum.Failed += r.Failed
	t.sum.Aborted += r.Aborted
	if t.sum.Reused == nil {
		t.sum.Reused = make(map[string]int)
	}
	//xbc:ignore nondeterm commutative map merge; order-insensitive
	for k, v := range r.Reused {
		t.sum.Reused[k] += v
	}
}

// Snapshot returns the accumulated totals.
func (t *Tally) Snapshot() Report {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.sum
	out.Reused = make(map[string]int, len(t.sum.Reused))
	//xbc:ignore nondeterm map copy; order-insensitive
	for k, v := range t.sum.Reused {
		out.Reused[k] = v
	}
	return out
}

// Options configures plan execution.
type Options struct {
	// Parallel bounds the worker pool over residual cells (default 4).
	Parallel int
	// Sources are probed in order per unique key before any execution;
	// the first hit wins.
	Sources []Source
	// Memo, when non-nil, is the cross-plan reuse layer: its value cache
	// is probed ahead of Sources, fresh values land in it, and concurrent
	// plans executing the same key coalesce onto one run.
	Memo *Memo
	// Runner carries the per-cell isolation machinery (timeout, retries,
	// journal, report) for fresh executions.
	Runner runner.Options
}

// Run executes cells under the plan pipeline and returns one result per
// input cell (duplicates aliasing their primary) plus the accounting
// report. Cancelling ctx drains gracefully: in-flight cells finish,
// unstarted cells report StatusAborted.
func Run(ctx context.Context, cells []Cell, opt Options) ([]Result, Report) {
	if ctx == nil {
		ctx = context.Background()
	}
	if opt.Parallel <= 0 {
		opt.Parallel = 4
	}
	plan := NewPlan(cells)
	results := make([]Result, len(cells))
	rep := Report{Planned: len(cells), Deduped: plan.Deduped(), Reused: make(map[string]int)}

	sources := opt.Sources
	if opt.Memo != nil {
		sources = append([]Source{opt.Memo.Source()}, sources...)
	}

	// Probe phase: serve every unique key a source already holds, keeping
	// only the residue for execution.
	var residual []int
	for _, ui := range plan.unique {
		if v, name, ok := probe(sources, cells[ui].Key); ok {
			results[ui] = Result{Status: StatusReused, Source: name, Value: v}
			continue
		}
		residual = append(residual, ui)
	}

	// Execute phase: the residue in locality order on a bounded pool.
	sem := make(chan struct{}, opt.Parallel)
	var wg sync.WaitGroup
	for _, ui := range residual {
		select {
		case <-ctx.Done():
			results[ui] = Result{Status: StatusAborted}
			continue
		case sem <- struct{}{}:
			// A cancellation that raced the semaphore acquire still wins:
			// the drain must not start new cells.
			if ctx.Err() != nil {
				<-sem
				results[ui] = Result{Status: StatusAborted}
				continue
			}
		}
		wg.Add(1)
		go func(ui int) {
			defer wg.Done()
			defer func() { <-sem }()
			results[ui] = opt.execute(ctx, cells[ui])
		}(ui)
	}
	//xbc:ignore ctxflow graceful drain by contract: cancellation stops new cells above, and every started worker runs one ctx-aware cell and exits
	wg.Wait()

	// Alias duplicates onto their primaries, tally, and account every
	// cell the runner did not see (reused, coalesced, aborted-in-plan,
	// duplicates) in the shared report so CLI summaries stay complete.
	for _, ui := range plan.unique {
		switch r := results[ui]; r.Status {
		case StatusSimulated:
			rep.Simulated++
		case StatusReused:
			rep.Reused[r.Source]++
		case StatusCoalesced:
			rep.Coalesced++
		case StatusFailed:
			rep.Failed++
		case StatusAborted:
			rep.Aborted++
		}
	}
	if opt.Runner.Report != nil {
		for _, ui := range plan.unique {
			r := results[ui]
			if r.reported {
				continue
			}
			switch r.Status {
			case StatusReused, StatusCoalesced:
				opt.Runner.Report.Add(runner.CellResult{Cell: cells[ui].RCell, Status: runner.StatusSkipped, Payload: r.Value})
			case StatusFailed:
				ce, ok := r.Err.(*runner.CellError)
				if !ok {
					ce = &runner.CellError{Cell: cells[ui].RCell, Err: r.Err}
				}
				opt.Runner.Report.Add(runner.CellResult{Cell: cells[ui].RCell, Status: runner.StatusFailed, Err: ce, Attempts: r.Attempts})
			case StatusAborted:
				opt.Runner.Report.Add(runner.CellResult{Cell: cells[ui].RCell, Status: runner.StatusAborted})
			}
		}
	}
	for i := range cells {
		if pi := plan.primary[i]; pi != i {
			results[i] = results[pi]
			if opt.Runner.Report != nil {
				opt.Runner.Report.Add(runner.CellResult{Cell: cells[i].RCell, Status: runner.StatusSkipped, Payload: results[pi].Value})
			}
		}
	}
	return results, rep
}

// probe consults the sources in order.
func probe(sources []Source, key string) (any, string, bool) {
	for _, s := range sources {
		if s.Load == nil {
			continue
		}
		if v, ok := s.Load(key); ok {
			return v, s.Name, true
		}
	}
	return nil, "", false
}

// execute runs one residual cell, coalescing through the memo when one is
// configured.
func (o Options) execute(ctx context.Context, c Cell) Result {
	if o.Memo == nil {
		return o.runFresh(ctx, c)
	}
	return o.Memo.do(ctx, c.Key, func() Result { return o.runFresh(ctx, c) })
}

// sourceJournal names the runner journal as a reuse source.
const sourceJournal = "journal"

// runFresh executes the cell through the runner's isolation machinery.
// RunOne adds its own row to Options.Runner.Report, so the results it
// produces are marked reported.
func (o Options) runFresh(ctx context.Context, c Cell) Result {
	cr := runner.RunOne(ctx, o.Runner, runner.Task{Cell: c.RCell, Run: c.Run})
	reported := o.Runner.Report != nil
	switch cr.Status {
	case runner.StatusDone:
		return Result{Status: StatusSimulated, Value: cr.Payload, Attempts: cr.Attempts, reported: reported}
	case runner.StatusSkipped:
		return Result{Status: StatusReused, Source: sourceJournal, Value: cr.Payload, reported: reported}
	case runner.StatusFailed:
		return Result{Status: StatusFailed, Err: cr.Err, Attempts: cr.Attempts, reported: reported}
	default:
		return Result{Status: StatusAborted, Attempts: cr.Attempts, reported: reported}
	}
}
