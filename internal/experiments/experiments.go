// Package experiments regenerates every table and figure of the paper's
// evaluation section (and the extra studies this reproduction adds): one
// function per figure, each returning both raw per-workload values and a
// formatted table printing the same rows/series the paper reports.
//
// Every simulation runs as one isolated cell of the sweep planner
// (internal/planner): a panicking or failing cell
// degrades to a missing table row instead of killing the sweep,
// cancelling Options.Ctx drains the run gracefully, and with
// Options.Store an interrupted sweep resumes without recomputing
// finished cells.
//
// A cell a jobspec.Spec describes is that one job: it runs through
// jobspec.Execute, the one execution path the service also takes, and
// shares the service's stored results. The geometry studies (Figure 10,
// ablation, XBTB, renamer, path associativity) are such cells too, with
// a jobspec.Geometry. Only Figure 1, which analyzes the trace itself,
// and ContextSwitch, which interleaves two streams, replay the corpus
// stream themselves.
package experiments

import (
	"context"
	"fmt"
	"time"

	"xbc/internal/corpus"
	"xbc/internal/frontend"
	"xbc/internal/planner"
	"xbc/internal/program"
	"xbc/internal/service/jobspec"
	"xbc/internal/stats"
	"xbc/internal/store"
	"xbc/internal/trace"
	"xbc/internal/workload"
)

// Options parameterizes an experiment run. Zero fields take defaults from
// DefaultOptions.
type Options struct {
	// UopsPerTrace is the dynamic stream length per workload. The paper
	// uses 30M instructions; the default here (1M uops) reproduces every
	// trend at laptop scale, and the CLI can raise it.
	UopsPerTrace uint64
	// Budget is the cache size in uops for the fixed-size experiments
	// (Figures 1 and 8 context: 32K uops).
	Budget int
	// Sizes is the capacity sweep for Figure 9.
	Sizes []int
	// Assocs is the associativity sweep for Figure 10.
	Assocs []int
	// Workloads defaults to all 21.
	Workloads []workload.Workload
	// Fidelity selects the simulation rung for the metric-producing
	// figures (8, 9, 10): "" or "full" simulates every uop; "sampled"
	// and "estimate" extrapolate from representative intervals (see
	// internal/sampling), trading a bounded metric error for a large cut
	// in simulated uops. Figure 1 analyzes the trace itself and the extra
	// studies always run in full. Any other rung fails every figure
	// before a cell runs.
	Fidelity string
	// Parallel bounds concurrent workload simulations (default 4).
	Parallel int

	// Ctx cancels the sweep: in-flight cells finish, queued cells abort,
	// and the figure functions return whatever completed (nil = run to
	// completion). Wire xbc.NotifyContext here for SIGINT draining.
	Ctx context.Context
	// CellTimeout bounds each per-workload simulation (0 = unbounded).
	CellTimeout time.Duration
	// Store, when non-nil, serves every cell it holds and records each
	// cell as it finishes, so a rerun computes only what is missing. It
	// may be the directory xbcd persists to (see run.go for the layout).
	Store *store.Store
	// Plan, when non-nil, accumulates the planner's accounting (planned /
	// deduped / reused / simulated / failed / aborted, and each failure)
	// across all figures of a run, for CLI epilogues and exit codes.
	// Without a Store, its Memo is the run's memory: a cell that several
	// figures of the run plan is simulated once.
	Plan *planner.Tally
}

// DefaultOptions returns the evaluation defaults.
func DefaultOptions() Options {
	return Options{
		UopsPerTrace: 1_000_000,
		Budget:       32 * 1024,
		Sizes:        []int{8 * 1024, 16 * 1024, 32 * 1024, 64 * 1024},
		Assocs:       []int{1, 2, 4},
		Workloads:    workload.All(),
		Parallel:     4,
	}
}

func (o Options) withDefaults() Options {
	d := DefaultOptions()
	if o.UopsPerTrace == 0 {
		o.UopsPerTrace = d.UopsPerTrace
	}
	if o.Budget == 0 {
		o.Budget = d.Budget
	}
	if len(o.Sizes) == 0 {
		o.Sizes = d.Sizes
	}
	if len(o.Assocs) == 0 {
		o.Assocs = d.Assocs
	}
	if len(o.Workloads) == 0 {
		o.Workloads = d.Workloads
	}
	if o.Parallel <= 0 {
		o.Parallel = d.Parallel
	}
	return o
}

// StreamFor is corpus.Stream, kept for callers that still name it here.
func StreamFor(spec program.Spec, minUops uint64) (*trace.Stream, error) {
	return corpus.Stream(spec, minUops)
}

// stream returns the dynamic stream for one workload at the configured
// length, served from the shared content-addressed corpus: parallel
// cells asking for the same (spec, length) share a single generation and
// one Stream.
func stream(o Options, w workload.Workload) (*trace.Stream, error) {
	return corpus.Stream(w.Spec, o.UopsPerTrace)
}

// xbcAndTC is the model pair most figures compare; the geometry studies
// that vary only the XBC run xbcOnly.
var (
	xbcAndTC = []string{jobspec.KindXBC, jobspec.KindTC}
	xbcOnly  = []string{jobspec.KindXBC}
)

// ---------------------------------------------------------------------
// Figure 1: length distribution of basic blocks, XBs, XBs with
// promotion, and dual XBs (all under the 16-uop quota).
// ---------------------------------------------------------------------

// Fig1Result carries Figure 1's data: merged length histograms and means.
type Fig1Result struct {
	Hist  map[trace.BlockKind]*stats.Histogram
	Means map[trace.BlockKind]float64
	Table *stats.Table
}

// Figure1 reproduces Figure 1 (and the in-text average lengths: basic
// block 7.7, XB 8.0, XB with promotion 10.0, dual XB 12.7).
func Figure1(o Options) (*Fig1Result, error) {
	o = o.withDefaults()
	kinds := []trace.BlockKind{trace.BasicBlock, trace.XB, trace.XBPromoted, trace.DualXB}
	perWL, ok, err := runCells(o, "fig1", nil, o.Workloads,
		func(ctx context.Context, w workload.Workload) (map[trace.BlockKind]*stats.Histogram, error) {
			s, err := stream(o, w)
			if err != nil {
				return nil, err
			}
			bias := trace.MeasureBias(s)
			hs := make(map[trace.BlockKind]*stats.Histogram, len(kinds))
			for _, k := range kinds {
				hs[k] = trace.SegmentLengths(s, k, bias)
			}
			return hs, nil
		})
	if err != nil {
		return nil, err
	}
	res := &Fig1Result{
		Hist:  make(map[trace.BlockKind]*stats.Histogram),
		Means: make(map[trace.BlockKind]float64),
	}
	for _, k := range kinds {
		merged := stats.NewHistogram(trace.QuotaUops + 1)
		for i, hs := range perWL {
			if !ok[i] || hs[k] == nil {
				continue
			}
			merged.Merge(hs[k])
		}
		res.Hist[k] = merged
		res.Means[k] = merged.Mean()
	}
	t := stats.NewTable("Figure 1 - block length distribution (fraction of blocks per length, all 21 traces)",
		"uops", "basic block", "XB", "XB+promotion", "dual XB")
	for v := 1; v <= trace.QuotaUops; v++ {
		t.AddRowf(v,
			res.Hist[trace.BasicBlock].Fraction(v),
			res.Hist[trace.XB].Fraction(v),
			res.Hist[trace.XBPromoted].Fraction(v),
			res.Hist[trace.DualXB].Fraction(v))
	}
	t.AddSeparator()
	t.AddRowf("mean",
		res.Means[trace.BasicBlock], res.Means[trace.XB],
		res.Means[trace.XBPromoted], res.Means[trace.DualXB])
	t.AddRowf("paper", 7.7, 8.0, 10.0, 12.7)
	res.Table = t
	return res, nil
}

// ---------------------------------------------------------------------
// Figure 8: XBC versus TC uop bandwidth at the same cache size.
// ---------------------------------------------------------------------

// Fig8Row is one trace's bandwidth pair.
type Fig8Row struct {
	Workload string
	Suite    workload.Suite
	XBC      float64
	TC       float64
}

// Fig8Result carries Figure 8's data; Rows holds the cells that completed
// (a failed or aborted workload is simply absent).
type Fig8Result struct {
	Rows  []Fig8Row
	Table *stats.Table
}

// Figure8 reproduces Figure 8: per-trace delivery bandwidth of a 32K-uop
// XBC and TC. The paper's finding: the difference is negligible.
func Figure8(o Options) (*Fig8Result, error) {
	o = o.withDefaults()
	ms, ok, err := runModels(o, "fig8", o.Workloads, kindsAt(xbcAndTC, o.Budget, o.Fidelity, nil))
	if err != nil {
		return nil, err
	}
	var rows []Fig8Row
	for i, w := range o.Workloads {
		if ok[i] {
			rows = append(rows, Fig8Row{Workload: w.Name, Suite: w.Suite, XBC: ms[i][0].Bandwidth(), TC: ms[i][1].Bandwidth()})
		}
	}
	t := stats.NewTable(fmt.Sprintf("Figure 8 - uop bandwidth, XBC vs TC (%dK uops)", o.Budget/1024),
		"trace", "suite", "XBC uops/cyc", "TC uops/cyc", "ratio")
	var xs, ts []float64
	lastSuite := workload.SPECint
	for i, r := range rows {
		if i > 0 && r.Suite != lastSuite {
			t.AddSeparator()
		}
		lastSuite = r.Suite
		t.AddRowf(r.Workload, r.Suite.String(), r.XBC, r.TC, stats.Ratio(r.XBC, r.TC))
		xs = append(xs, r.XBC)
		ts = append(ts, r.TC)
	}
	t.AddSeparator()
	t.AddRowf("mean", "", stats.Mean(xs), stats.Mean(ts), stats.Ratio(stats.Mean(xs), stats.Mean(ts)))
	return &Fig8Result{Rows: rows, Table: t}, nil
}

// ---------------------------------------------------------------------
// Figure 9: uop miss rate versus cache size.
// ---------------------------------------------------------------------

// Fig9Result carries the size sweep: MissXBC[i][j] is workload i at
// Sizes[j], in percent; OK[i][j] reports whether that cell completed.
type Fig9Result struct {
	Sizes   []int
	MissXBC [][]float64
	MissTC  [][]float64
	OK      [][]bool
	AvgXBC  []float64
	AvgTC   []float64
	Table   *stats.Table
	Plot    *stats.Plot
}

// Figure9 reproduces Figure 9: average uop miss rate (percent of uops
// supplied from the IC path) for XBC and TC across cache sizes. The
// paper's finding: the XBC misses ~29% less at every size, most
// pronounced at small sizes.
func Figure9(o Options) (*Fig9Result, error) {
	o = o.withDefaults()
	res := &Fig9Result{
		Sizes:   o.Sizes,
		MissXBC: make([][]float64, len(o.Workloads)),
		MissTC:  make([][]float64, len(o.Workloads)),
		OK:      make([][]bool, len(o.Workloads)),
	}
	for i := range o.Workloads {
		res.MissXBC[i] = make([]float64, len(o.Sizes))
		res.MissTC[i] = make([]float64, len(o.Sizes))
		res.OK[i] = make([]bool, len(o.Sizes))
	}
	var firstErr error
	for j, size := range o.Sizes {
		ms, ok, err := runModels(o, "fig9", o.Workloads, kindsAt(xbcAndTC, size, o.Fidelity, nil))
		if err != nil && firstErr == nil {
			firstErr = err
		}
		for i := range o.Workloads {
			if ok[i] {
				res.MissXBC[i][j] = ms[i][0].UopMissRate()
				res.MissTC[i][j] = ms[i][1].UopMissRate()
				res.OK[i][j] = true
			}
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	t := stats.NewTable("Figure 9 - uop miss rate vs cache size (average over all traces)",
		"size (uops)", "XBC miss %", "TC miss %", "XBC reduction %")
	for j, size := range o.Sizes {
		var xs, ts []float64
		for i := range o.Workloads {
			if !res.OK[i][j] {
				continue
			}
			xs = append(xs, res.MissXBC[i][j])
			ts = append(ts, res.MissTC[i][j])
		}
		ax, at := stats.Mean(xs), stats.Mean(ts)
		res.AvgXBC = append(res.AvgXBC, ax)
		res.AvgTC = append(res.AvgTC, at)
		t.AddRowf(fmt.Sprintf("%dK", size/1024), ax, at, 100*(1-stats.Ratio(ax, at)))
	}
	res.Table = t
	var labels []string
	for _, size := range o.Sizes {
		labels = append(labels, fmt.Sprintf("%dK", size/1024))
	}
	res.Plot = stats.NewPlot("Figure 9 - uop miss rate vs cache size", "miss %", labels...)
	res.Plot.AddSeries("XBC", res.AvgXBC...)
	res.Plot.AddSeries("TC", res.AvgTC...)
	return res, nil
}

// ---------------------------------------------------------------------
// Figure 10: miss rate versus associativity.
// ---------------------------------------------------------------------

// Fig10Result carries the associativity sweep (averaged over workloads).
type Fig10Result struct {
	Assocs []int
	AvgXBC []float64
	AvgTC  []float64
	Table  *stats.Table
	Plot   *stats.Plot
}

// Figure10 reproduces Figure 10: average miss rate at associativities 1,
// 2 and 4 with a fixed budget. The paper's finding: direct-mapped to
// 2-way cuts misses by ~60%; 2-way to 4-way helps less.
func Figure10(o Options) (*Fig10Result, error) {
	o = o.withDefaults()
	res := &Fig10Result{Assocs: o.Assocs}
	t := stats.NewTable(fmt.Sprintf("Figure 10 - miss rate vs associativity (%dK uops, average)", o.Budget/1024),
		"ways", "XBC miss %", "TC miss %")
	var firstErr error
	for _, ways := range o.Assocs {
		ms, ok, err := runModels(o, "fig10", o.Workloads, kindsAt(xbcAndTC, o.Budget, o.Fidelity, &jobspec.Geometry{Ways: ways}))
		if err != nil && firstErr == nil {
			firstErr = err
		}
		xs, ts := column(ms, ok, 0, frontend.Metrics.UopMissRate), column(ms, ok, 1, frontend.Metrics.UopMissRate)
		res.AvgXBC = append(res.AvgXBC, stats.Mean(xs))
		res.AvgTC = append(res.AvgTC, stats.Mean(ts))
		t.AddRowf(ways, stats.Mean(xs), stats.Mean(ts))
	}
	if firstErr != nil {
		return nil, firstErr
	}
	res.Table = t
	var labels []string
	for _, ways := range o.Assocs {
		labels = append(labels, fmt.Sprintf("%d-way", ways))
	}
	res.Plot = stats.NewPlot("Figure 10 - miss rate vs associativity", "miss %", labels...)
	res.Plot.AddSeries("XBC", res.AvgXBC...)
	res.Plot.AddSeries("TC", res.AvgTC...)
	return res, nil
}

// column returns metric f of model k for every workload whose cells all
// produced a value.
func column(ms [][]frontend.Metrics, ok []bool, k int, f func(frontend.Metrics) float64) []float64 {
	var out []float64
	for i := range ms {
		if ok[i] {
			out = append(out, f(ms[i][k]))
		}
	}
	return out
}
