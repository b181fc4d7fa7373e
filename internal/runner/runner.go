// Package runner is the fault-tolerant execution layer underneath every
// experiment driver and the job service: RunOne executes one (figure,
// workload, config) cell with the robustness guarantees a paper-scale
// sweep needs and a bare goroutine does not. The worker pool that fans a
// sweep's cells out is planner.Run, which runs each fresh cell through
// RunOne.
//
//   - context plumbing: a cell whose context is already cancelled (e.g.
//     on SIGINT via NotifyContext) is reported aborted instead of
//     silently vanishing, and a cell in flight runs to completion;
//   - panic isolation: a panicking cell is converted into a structured
//     CellError carrying the cell identity and the goroutine stack, so one
//     bad configuration degrades that cell, not the whole sweep;
//   - per-cell deadlines: an optional timeout bounds the cell; a cell
//     that overruns is abandoned and reported as failed.
//
// Resuming a sweep is the planner's business: it serves finished cells
// from the store before they ever reach RunOne.
package runner

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/signal"
	"runtime/debug"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Cell identifies one unit of sweep work: one workload simulated under one
// configuration for one figure/study, named for panic reports and
// report rows.
type Cell struct {
	Figure   string
	Workload string
	Config   string
}

// String renders the cell for log lines.
func (c Cell) String() string {
	if c.Config == "" {
		return c.Figure + "/" + c.Workload
	}
	return c.Figure + "/" + c.Workload + "/" + c.Config
}

// CellError is the structured failure of one cell: what was running, what
// went wrong, and — when the failure was a panic — the recovered value and
// goroutine stack.
type CellError struct {
	Cell  Cell
	Err   error  // underlying error (for panics: a synthesized error)
	Stack string // non-empty only for recovered panics
}

// Error renders the failure with its cell identity.
func (e *CellError) Error() string {
	if e.Stack != "" {
		return fmt.Sprintf("cell %s: panic: %v", e.Cell, e.Err)
	}
	return fmt.Sprintf("cell %s: %v", e.Cell, e.Err)
}

// Unwrap exposes the underlying error to errors.Is/As.
func (e *CellError) Unwrap() error { return e.Err }

// Status classifies how a cell ended.
type Status int

const (
	// StatusDone means the cell ran to completion in this run.
	StatusDone Status = iota
	// StatusFailed means the cell errored, panicked, or timed out.
	StatusFailed
	// StatusAborted means the run was cancelled before the cell started.
	StatusAborted
)

// String names the status.
func (s Status) String() string {
	switch s {
	case StatusDone:
		return "done"
	case StatusFailed:
		return "failed"
	case StatusAborted:
		return "aborted"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// CellResult is the outcome of one cell.
type CellResult struct {
	Cell   Cell
	Status Status
	Err    *CellError // set when Status is StatusFailed
	// Payload is the value the cell function returned (StatusDone).
	Payload any
}

// Task pairs a cell identity with the function that computes it. Run
// receives a context that is cancelled when the sweep is cancelled or the
// cell's deadline expires; long cell functions should check it between
// stages.
type Task struct {
	Cell Cell
	Run  func(ctx context.Context) (any, error)
}

// Options configures a sweep execution.
type Options struct {
	// CellTimeout bounds each cell (0 = unbounded). A cell that ignores
	// its context and overruns is abandoned: its goroutine is leaked and
	// the cell reports failed with context.DeadlineExceeded.
	CellTimeout time.Duration
	// Report, when non-nil, accumulates every cell result across many
	// RunOne calls (e.g. all figures of one CLI run).
	Report *Report
}

// runCell executes one cell once. Cells are deterministic functions of
// their spec, so a failure is final: running it again fails the same way.
func (o Options) runCell(ctx context.Context, t Task) CellResult {
	payload, err := o.isolated(ctx, t)
	if err == nil {
		return CellResult{Cell: t.Cell, Status: StatusDone, Payload: payload}
	}
	ce, ok := err.(*CellError)
	if !ok {
		ce = &CellError{Cell: t.Cell, Err: err}
	}
	// A cancellation surfacing through the cell means the sweep is
	// draining: the cell did not complete.
	if ctx.Err() != nil && errors.Is(err, context.Canceled) {
		return CellResult{Cell: t.Cell, Status: StatusAborted, Err: ce}
	}
	return CellResult{Cell: t.Cell, Status: StatusFailed, Err: ce}
}

// isolated runs the cell function with panic isolation and the per-cell
// deadline.
func (o Options) isolated(ctx context.Context, t Task) (any, error) {
	actx := ctx
	var cancel context.CancelFunc
	if o.CellTimeout > 0 {
		actx, cancel = context.WithTimeout(ctx, o.CellTimeout)
		defer cancel()
	}
	type outcome struct {
		payload any
		err     error
	}
	ch := make(chan outcome, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				ch <- outcome{err: &CellError{
					Cell:  t.Cell,
					Err:   fmt.Errorf("panic: %v", r),
					Stack: string(debug.Stack()),
				}}
			}
		}()
		p, err := t.Run(actx)
		ch <- outcome{payload: p, err: err}
	}()
	if o.CellTimeout <= 0 {
		//xbc:ignore ctxflow the cell goroutine sends exactly once (panics included); with no deadline the drain contract is to wait for the in-flight cell
		out := <-ch
		return out.payload, out.err
	}
	select {
	case out := <-ch:
		return out.payload, out.err
	case <-actx.Done():
		if ctx.Err() != nil {
			// Parent cancellation: graceful drain waits for the cell.
			out := <-ch
			return out.payload, out.err
		}
		// Deadline overrun by a cell ignoring its context: abandon it.
		return nil, &CellError{Cell: t.Cell, Err: fmt.Errorf("cell exceeded %v: %w", o.CellTimeout, context.DeadlineExceeded)}
	}
}

// RunOne executes a single task once, synchronously — panic isolation
// and the per-cell deadline — and returns its result. It is the panic-isolation boundary for every sweep cell
// (through planner.Run) and every job the service accepts.
func RunOne(ctx context.Context, o Options, t Task) CellResult {
	if ctx == nil {
		ctx = context.Background()
	}
	if ctx.Err() != nil {
		res := CellResult{Cell: t.Cell, Status: StatusAborted}
		if o.Report != nil {
			o.Report.Add(res)
		}
		return res
	}
	res := o.runCell(ctx, t)
	if o.Report != nil {
		o.Report.Add(res)
	}
	return res
}

// Report accumulates cell results across RunOne calls. It is safe for
// concurrent use.
type Report struct {
	mu    sync.Mutex
	cells []CellResult
}

// Add appends results to the report.
func (r *Report) Add(results ...CellResult) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cells = append(r.cells, results...)
}

// Cells returns a copy of the accumulated results.
func (r *Report) Cells() []CellResult {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]CellResult(nil), r.cells...)
}

// Counts tallies the results per status.
func (r *Report) Counts() (done, failed, aborted int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.cells {
		switch c.Status {
		case StatusDone:
			done++
		case StatusFailed:
			failed++
		case StatusAborted:
			aborted++
		}
	}
	return
}

// Failures returns the failed cells.
func (r *Report) Failures() []CellResult {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []CellResult
	for _, c := range r.cells {
		if c.Status == StatusFailed {
			out = append(out, c)
		}
	}
	return out
}

// Err returns the first failed cell's error, or nil when every cell
// completed (ran, or was cleanly aborted).
func (r *Report) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.cells {
		if c.Status == StatusFailed && c.Err != nil {
			return c.Err
		}
	}
	return nil
}

// Summary renders a one-line account of the run suitable for a CLI
// epilogue, e.g. "42 cells: 40 done, 2 aborted".
func (r *Report) Summary() string {
	done, failed, aborted := r.Counts()
	total := done + failed + aborted
	parts := []string{}
	add := func(n int, label string) {
		if n > 0 {
			parts = append(parts, fmt.Sprintf("%d %s", n, label))
		}
	}
	add(done, "done")
	add(failed, "failed")
	add(aborted, "aborted")
	if len(parts) == 0 {
		return "0 cells"
	}
	return fmt.Sprintf("%d cells: %s", total, strings.Join(parts, ", "))
}

// NotifyContext returns a context cancelled on SIGINT/SIGTERM, wired for
// graceful drain: the first signal stops new cells and lets in-flight ones
// finish; a second signal kills the process through
// the default handler (signal.NotifyContext unregisters on cancel).
func NotifyContext(parent context.Context) (context.Context, context.CancelFunc) {
	if parent == nil {
		parent = context.Background()
	}
	return signal.NotifyContext(parent, os.Interrupt, syscall.SIGTERM)
}
