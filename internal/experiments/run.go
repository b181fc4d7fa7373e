package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"xbc/internal/corpus"
	"xbc/internal/frontend"
	"xbc/internal/planner"
	"xbc/internal/runner"
	"xbc/internal/service/jobspec"
	"xbc/internal/store"
	"xbc/internal/workload"
)

// This file adapts the experiment figures to the sweep planner and the
// store: every simulation becomes one planner cell, gaining dedup, panic
// isolation, cancellation with graceful drain, per-cell deadlines and,
// with Options.Store, resume. Figures degrade cell-wise — a failed or
// aborted cell drops out of the tables instead of killing the sweep — and
// the per-cell outcomes land in Options.Report when one is supplied.
//
// A cell lives in the store in one of two namespaces. A cell a
// jobspec.Spec describes is that job: its key is the job key, and its
// value is stored under jobspec.ResultStoreKey in xbcd's layout, so a
// figure run and the daemon serve each other's results. Every other cell
// is stored as JSON under an x: key built from exactly what the cell
// reads (see xCell).

// spec is the job that runs frontend kind over w's stream at budget on
// the given rung.
func (o Options) spec(kind string, w workload.Workload, budget int, fidelity string) jobspec.Spec {
	return jobspec.Spec{Frontend: kind, Workload: w.Name, Program: &w.Spec, Uops: o.UopsPerTrace, Budget: budget, Fidelity: fidelity}
}

// runModels runs each frontend kind over every workload at one budget
// and rung, one spec cell per (workload, kind). It returns the metrics
// per workload in kinds order, and ok[i] when all of workload i's cells
// produced a value.
func runModels(o Options, figure string, ws []workload.Workload, kinds []string, budget int, fidelity string) ([][]frontend.Metrics, []bool, error) {
	ms := make([][]frontend.Metrics, len(ws))
	ok := make([]bool, len(ws))
	specs := make([]jobspec.Spec, 0, len(ws)*len(kinds))
	for _, w := range ws {
		for _, kind := range kinds {
			specs = append(specs, o.spec(kind, w, budget, fidelity))
		}
	}
	cells := make([]cell, len(specs))
	for i, s := range specs {
		key, err := s.Key()
		if err != nil {
			return ms, ok, err
		}
		stream, err := s.StreamKey()
		if err != nil {
			return ms, ok, err
		}
		cells[i] = cell{
			key:      key,
			locality: stream.String(),
			rc:       runner.Cell{Figure: figure, Workload: s.Workload, Config: fmt.Sprintf("%s-b%d-%s", s.Frontend, s.Budget, fidelityName(s.Fidelity))},
		}
	}
	res, done, err := runPlanned(o, cells, o.planStore(specStore{o.Store}), func(ctx context.Context, i int) (jobspec.Result, error) {
		return jobspec.Execute(specs[i])
	})
	for i := range ws {
		ok[i] = true
		for k := range kinds {
			j := i*len(kinds) + k
			ms[i] = append(ms[i], res[j].Metrics)
			ok[i] = ok[i] && done[j]
		}
	}
	return ms, ok, err
}

// runCells fans fn out over the workloads as cells no spec describes,
// keyed by figure, each workload's stream and params: the budget, sweep
// point and fidelity the cell reads, and nothing else.
func runCells[T any](o Options, figure string, params []string, ws []workload.Workload, fn func(ctx context.Context, w workload.Workload) (T, error)) ([]T, []bool, error) {
	cells := make([]cell, len(ws))
	for i, w := range ws {
		c, err := o.xCell(figure, w.Name, []workload.Workload{w}, params)
		if err != nil {
			return nil, nil, err
		}
		cells[i] = c
	}
	return runXCells(o, cells, func(ctx context.Context, i int) (T, error) {
		return fn(ctx, ws[i])
	})
}

// runXCells runs cells no spec describes, stored under their x: keys.
func runXCells[T any](o Options, cells []cell, fn func(ctx context.Context, i int) (T, error)) ([]T, []bool, error) {
	return runPlanned(o, cells, o.planStore(xStore[T]{o.Store}), fn)
}

// planStore is where the run's plans find and record cells: durable, a
// view of the Store, when there is one, else the run's memory (the Plan
// tally's Memo), so a cell two figures share runs once either way. A run
// with neither reuses nothing.
func (o Options) planStore(durable planner.Store) planner.Store {
	switch {
	case o.Store != nil:
		return durable
	case o.Plan != nil:
		return o.Plan.Memo()
	}
	return nil
}

// cell is one figure cell before planning.
type cell struct {
	key      string // job key (spec cells) or x: key
	locality string // trace-stream identity, for the planner's ordering
	rc       runner.Cell
}

// xCell builds the cell named name that replays the streams of ws. Its
// x: key is the figure, then the corpus key of each stream (program hash
// and length, not the workload's name), then the parameters it reads. Its
// locality is the first stream's corpus key.
func (o Options) xCell(figure, name string, ws []workload.Workload, params []string) (cell, error) {
	parts := []string{"x:" + figure}
	for _, w := range ws {
		k, err := corpus.KeyFor(w.Spec, o.UopsPerTrace)
		if err != nil {
			return cell{}, err
		}
		parts = append(parts, k.String())
	}
	return cell{
		key:      strings.Join(append(parts, params...), "/"),
		locality: parts[1],
		rc:       runner.Cell{Figure: figure, Workload: name, Config: strings.Join(params, "-")},
	}, nil
}

// budgetParam renders a budget as an x: key parameter.
func budgetParam(b int) string { return fmt.Sprintf("b%d", b) }

// fidelityName names a rung, with "" read as full.
func fidelityName(f string) string {
	if f == "" {
		return jobspec.FidelityFull
	}
	return f
}

// runPlanned runs cells through the sweep planner: cells are deduped by
// key, served from st when it holds them, grouped by trace locality so
// the corpus cache stays hot, and otherwise executed once each on the
// planner's bounded pool through runner.RunOne. It returns the values
// index-aligned with cells, a mask of which cells produced one, and an
// error only when nothing succeeded and at least one cell genuinely
// failed — cancellation alone yields an empty result, not an error, so a
// drained run can still render its partial tables. An unknown
// Options.Fidelity fails the figure before any cell runs.
func runPlanned[T any](o Options, cells []cell, st planner.Store, fn func(ctx context.Context, i int) (T, error)) ([]T, []bool, error) {
	vals := make([]T, len(cells))
	ok := make([]bool, len(cells))
	if !jobspec.ValidFidelity(o.Fidelity) {
		return vals, ok, fmt.Errorf("experiments: unknown fidelity %q (want one of %s)",
			o.Fidelity, strings.Join(jobspec.Fidelities(), ", "))
	}
	pcells := make([]planner.Cell, len(cells))
	for i, c := range cells {
		i := i
		pcells[i] = planner.Cell{
			Key:      c.key,
			Locality: c.locality,
			RCell:    c.rc,
			Run:      func(ctx context.Context) (any, error) { return fn(ctx, i) },
		}
	}
	ctx := o.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	results, rep := planner.Run(ctx, pcells, planner.Options{
		Parallel: o.Parallel,
		Runner:   runner.Options{CellTimeout: o.CellTimeout, Report: o.Report},
		Store:    st,
	})
	if o.Plan != nil {
		o.Plan.Add(rep)
	}

	var firstErr error
	succeeded := 0
	for i, res := range results {
		switch res.Status {
		case planner.StatusSimulated, planner.StatusReused:
			if v, isT := res.Value.(T); isT {
				vals[i], ok[i] = v, true
				succeeded++
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

// specStore serves spec cells: job key -> jobspec.Result, in the r:
// layout xbcd reads and writes.
type specStore struct{ st *store.Store }

func (s specStore) Load(key string) (any, bool) {
	raw, ok := s.st.Get(jobspec.ResultStoreKey(key))
	if !ok {
		return nil, false
	}
	r, err := jobspec.DecodeResult(raw)
	return r, err == nil
}

func (s specStore) Save(key string, v any) {
	raw, err := jobspec.EncodeResult(v.(jobspec.Result))
	put(s.st, jobspec.ResultStoreKey(key), raw, err)
}

// xStore serves the other cells: x: key -> JSON of T. A record that no
// longer decodes as T is a miss, and the fresh value replaces it.
type xStore[T any] struct{ st *store.Store }

func (s xStore[T]) Load(key string) (any, bool) {
	raw, ok := s.st.Get(key)
	if !ok {
		return nil, false
	}
	var v T
	err := json.Unmarshal(raw, &v)
	return v, err == nil
}

func (s xStore[T]) Save(key string, v any) {
	raw, err := json.Marshal(v)
	put(s.st, key, raw, err)
}

// put records one fresh cell. A cell the store cannot take is still in
// hand for this run; the next run computes it again.
func put(st *store.Store, key string, raw []byte, err error) {
	if err == nil {
		err = st.Put(key, raw)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: store %s: %v\n", key, err)
	}
}
