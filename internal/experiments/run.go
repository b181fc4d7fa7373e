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
	"xbc/internal/service/jobspec"
	"xbc/internal/store"
	"xbc/internal/workload"
)

// This file adapts the experiment figures to the sweep planner and the
// store: every simulation becomes one planner cell, gaining dedup, panic
// isolation, cancellation with graceful drain, per-cell deadlines and,
// with Options.Store, resume. Figures degrade cell-wise — a failed or
// aborted cell drops out of the tables instead of killing the sweep — and
// the plan accounting, failures included, lands in Options.Plan when one
// is supplied.
//
// A cell lives in the store in one of two namespaces. A cell a
// jobspec.Spec describes is that job: its key is the job key, and its
// value is stored under jobspec.ResultStoreKey in xbcd's layout, so a
// figure run and the daemon serve each other's results. The two cells no
// spec describes, Figure 1's trace analysis and ContextSwitch's
// interleaved streams, are stored as JSON under an x: key built from
// exactly what the cell reads (see xCell).

// kindsAt returns one model per frontend kind, all at budget on the given
// rung with geometry g. A model is a spec without its trace.
func kindsAt(kinds []string, budget int, fidelity string, g *jobspec.Geometry) []jobspec.Spec {
	out := make([]jobspec.Spec, len(kinds))
	for i, kind := range kinds {
		out[i] = jobspec.Spec{Frontend: kind, Budget: budget, Fidelity: fidelity, Geometry: g}
	}
	return out
}

// runModels runs each model over every workload's stream, one spec cell
// per (workload, model). It returns the metrics per workload in models
// order, and ok[i] when all of workload i's cells produced a value.
func runModels(o Options, figure string, ws []workload.Workload, models []jobspec.Spec) ([][]frontend.Metrics, []bool, error) {
	ms := make([][]frontend.Metrics, len(ws))
	ok := make([]bool, len(ws))
	specs := make([]jobspec.Spec, 0, len(ws)*len(models))
	for _, w := range ws {
		for _, m := range models {
			m.Workload, m.Program, m.Uops = w.Name, &w.Spec, o.UopsPerTrace
			specs = append(specs, m)
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
		config := fmt.Sprintf("%s-b%d-%s", s.Frontend, s.Budget, fidelityName(s.Fidelity))
		if s.Geometry != nil {
			g, err := json.Marshal(s.Geometry)
			if err != nil {
				return ms, ok, err
			}
			config += string(g)
		}
		cells[i] = cell{
			key:      key,
			locality: stream.String(),
			name:     cellName(figure, s.Workload, config),
		}
	}
	res, done, err := runPlanned(o, cells, o.planStore(specStore{o.Store}), func(ctx context.Context, i int) (jobspec.Result, error) {
		return jobspec.Execute(specs[i])
	})
	for i := range ws {
		ok[i] = true
		for k := range models {
			j := i*len(models) + k
			ms[i] = append(ms[i], res[j].Metrics)
			ok[i] = ok[i] && done[j]
		}
	}
	return ms, ok, err
}

// runCells fans fn out over the workloads as cells no spec describes,
// keyed by figure, each workload's stream and params: what the cell
// reads, and nothing else.
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
	name     string // figure/workload/config, for failure reports
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
		name:     cellName(figure, name, strings.Join(params, "-")),
	}, nil
}

// cellName names a cell in failure reports: figure/workload/config.
func cellName(figure, workload, config string) string {
	if config == "" {
		return figure + "/" + workload
	}
	return figure + "/" + workload + "/" + config
}

// fidelityName names a rung, with "" read as full.
func fidelityName(f string) string {
	if f == "" {
		return jobspec.FidelityFull
	}
	return f
}

// runPlanned runs cells through the sweep planner: cells are deduped by
// key, served from st when it holds them, grouped by trace locality so
// the corpus cache stays hot, and otherwise executed once each, isolated,
// on the planner's bounded pool. It returns the values index-aligned
// with cells, a mask of which cells produced one, and an error only when
// nothing succeeded and at least one cell genuinely failed —
// cancellation alone yields an empty result, not an error, so a drained
// run can still render its partial tables. An unknown Options.Fidelity
// fails the figure before any cell runs.
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
			Name:     c.name,
			Run:      func(ctx context.Context) (any, error) { return fn(ctx, i) },
		}
	}
	ctx := o.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	results, rep := planner.Run(ctx, pcells, planner.Options{
		Parallel: o.Parallel,
		Timeout:  o.CellTimeout,
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
