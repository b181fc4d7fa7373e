package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"

	"xbc/internal/planner"
	"xbc/internal/runner"
	"xbc/internal/service/jobspec"
	"xbc/internal/workload"
)

// This file adapts the experiment figures to the fault-tolerant runner:
// every per-workload simulation becomes one runner cell, gaining panic
// isolation, cancellation with graceful drain, per-cell deadlines and
// journal-based resume. Figures degrade cell-wise — a failed or
// aborted cell drops out of the tables instead of killing the sweep — and
// the per-cell outcomes land in Options.Report when one is supplied.

// tag builds the config component of the cell identity from the options
// that change a cell's result. Two runs with the same tag and cell produce
// the same payload, which is what makes journal replay sound.
func (o Options) tag(extra string) string {
	t := fmt.Sprintf("u%d-b%d", o.UopsPerTrace, o.Budget)
	if o.Fidelity != "" && o.Fidelity != "full" {
		// Sampled payloads approximate; they must never replay into a full
		// run of the same cell.
		t += "-" + o.Fidelity
	}
	if extra != "" {
		t += "-" + extra
	}
	return t
}

// runnerOptions converts experiment options into runner options.
func (o Options) runnerOptions() runner.Options {
	return runner.Options{
		CellTimeout: o.CellTimeout,
		Journal:     o.Journal,
		Report:      o.Report,
	}
}

// runCells fans fn out over the workloads as (figure, workload, config)
// cells. It returns the per-workload values index-aligned with ws, a mask
// of which cells produced a value (done this run or replayed from the
// journal), and an error only when nothing succeeded and at least one cell
// genuinely failed — cancellation alone yields an empty result, not an
// error, so a drained run can still render its partial tables.
func runCells[T any](o Options, figure, config string, ws []workload.Workload, fn func(ctx context.Context, w workload.Workload) (T, error)) ([]T, []bool, error) {
	names := make([]string, len(ws))
	for i, w := range ws {
		names[i] = w.Name
	}
	return runNamedCells(o, figure, config, names, func(ctx context.Context, i int) (T, error) {
		return fn(ctx, ws[i])
	})
}

// runNamedCells is runCells for work not keyed by a single workload (e.g.
// context-switch pairs): cell identities come from names and fn receives
// the index. Every figure runs through the sweep planner: cells are
// deduped by their journal key, grouped by trace locality so the corpus
// cache stays hot, and executed once each on the planner's bounded pool
// through runner.RunOne. An unknown Options.Fidelity fails the figure
// before any cell runs.
func runNamedCells[T any](o Options, figure, config string, names []string, fn func(ctx context.Context, i int) (T, error)) ([]T, []bool, error) {
	vals := make([]T, len(names))
	ok := make([]bool, len(names))
	if !jobspec.ValidFidelity(o.Fidelity) {
		return vals, ok, fmt.Errorf("experiments: unknown fidelity %q (want one of %s)",
			o.Fidelity, strings.Join(jobspec.Fidelities(), ", "))
	}
	cells := make([]planner.Cell, len(names))
	for i := range names {
		i := i
		rc := runner.Cell{Figure: figure, Workload: names[i], Config: config}
		cells[i] = planner.Cell{
			Key: rc.Key(),
			// The trace-stream identity: cells sharing a workload at one
			// stream length replay one corpus entry.
			Locality: fmt.Sprintf("%s@%d", names[i], o.UopsPerTrace),
			RCell:    rc,
			Run:      func(ctx context.Context) (any, error) { return fn(ctx, i) },
		}
	}
	ctx := o.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	results, rep := planner.Run(ctx, cells, planner.Options{
		Parallel: o.Parallel,
		Runner:   o.runnerOptions(),
	})
	if o.Plan != nil {
		o.Plan.Add(rep)
	}

	var firstErr error
	succeeded := 0
	for i, res := range results {
		switch res.Status {
		case planner.StatusSimulated, planner.StatusReused:
			// A fresh value carries the typed payload; a journal replay
			// carries raw JSON.
			switch v := res.Value.(type) {
			case T:
				vals[i], ok[i] = v, true
				succeeded++
			case json.RawMessage:
				var tv T
				if err := json.Unmarshal(v, &tv); err == nil {
					vals[i], ok[i] = tv, true
					succeeded++
				}
				// An unreadable journal payload degrades to a missing cell; a
				// fresh run (without --resume) recomputes it.
			}
		case planner.StatusFailed:
			if firstErr == nil && res.Err != nil {
				firstErr = res.Err
			}
		}
	}
	if succeeded == 0 && firstErr != nil {
		return vals, ok, firstErr
	}
	return vals, ok, nil
}
