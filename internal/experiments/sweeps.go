package experiments

import (
	"context"
	"fmt"

	"xbc/internal/frontend"
	"xbc/internal/interval"
	"xbc/internal/service/jobspec"
	"xbc/internal/stats"
	"xbc/internal/tcache"
	"xbc/internal/trace"
	"xbc/internal/workload"
	"xbc/internal/xbcore"
)

// This file holds the extension sweeps beyond the paper's figures: XBTB
// capacity, renamer width, and context-switch sensitivity.

// XBTBSweep varies the XBTB entry count around the paper's fixed 8K and
// reports the XBC miss rate — how much pointer-table capacity the design
// actually needs.
func XBTBSweep(o Options) (*stats.Table, error) {
	o = o.withDefaults()
	ws := o.Workloads
	if len(ws) == len(workload.All()) {
		ws = pickRepresentatives()
	}
	entries := []int{1024, 2048, 4096, 8192, 16384}
	t := stats.NewTable(fmt.Sprintf("XBTB capacity sweep (%dK-uop XBC, traces: %s)", o.Budget/1024, nameList(ws)),
		"XBTB entries", "miss %", "bandwidth")
	for _, n := range entries {
		ms, ok, err := runModels(o, "xbtb", ws, kindsAt(xbcOnly, o.Budget, "", &jobspec.Geometry{XBTBEntries: n}))
		if err != nil {
			return nil, err
		}
		t.AddRowf(n, stats.Mean(column(ms, ok, 0, frontend.Metrics.UopMissRate)), stats.Mean(column(ms, ok, 0, frontend.Metrics.Bandwidth)))
	}
	return t, nil
}

// RenamerSweep varies the renamer width. The paper fixes it at 8, where
// the renamer itself caps bandwidth; wider renamers expose the fetch-side
// differences (the XBC's 2-XB fetch vs the TC's single trace).
func RenamerSweep(o Options) (*stats.Table, error) {
	o = o.withDefaults()
	ws := o.Workloads
	if len(ws) == len(workload.All()) {
		ws = pickRepresentatives()
	}
	widths := []int{4, 8, 16, 32}
	t := stats.NewTable(fmt.Sprintf("Renamer width sweep (%dK uops, traces: %s): bandwidth", o.Budget/1024, nameList(ws)),
		"renamer", "XBC bw", "TC bw", "XBC 1/cyc bw")
	for _, width := range widths {
		ms, ok, err := runModels(o, "renamer", ws, append(
			kindsAt(xbcAndTC, o.Budget, "", &jobspec.Geometry{RenamerWidth: width}),
			kindsAt(xbcOnly, o.Budget, "", &jobspec.Geometry{RenamerWidth: width, Variant: "1-xb-per-cycle"})...))
		if err != nil {
			return nil, err
		}
		bw := func(k int) float64 { return stats.Mean(column(ms, ok, k, frontend.Metrics.Bandwidth)) }
		t.AddRowf(width, bw(0), bw(1), bw(2))
	}
	return t, nil
}

// ctxSwitchCell is the stored value of one workload-pair cell.
type ctxSwitchCell struct {
	XBCSolo  float64
	TCSolo   float64
	XBCMixed []float64 // per quantum
	TCMixed  []float64
}

// ContextSwitch interleaves pairs of workloads in quanta (modelling
// processes sharing the frontend) and compares miss rates against the
// solo runs — how gracefully each structure tolerates pollution.
func ContextSwitch(o Options) (*stats.Table, error) {
	o = o.withDefaults()
	pairs := [][2]string{{"gcc", "word"}, {"li", "doom"}, {"perl", "excel"}}
	quanta := []int{5000, 20000, 100000}
	names := make([]string, len(pairs))
	cells := make([]cell, len(pairs))
	streams := make([][2]workload.Workload, len(pairs))
	for i, p := range pairs {
		names[i] = p[0] + "+" + p[1]
		for j, name := range p {
			w, found := workload.ByName(name)
			if !found {
				return nil, fmt.Errorf("experiments: unknown workload %q", name)
			}
			streams[i][j] = w
		}
		c, err := o.xCell("ctxswitch", names[i], streams[i][:], []string{fmt.Sprintf("b%d", o.Budget)})
		if err != nil {
			return nil, err
		}
		cells[i] = c
	}
	vals, ok, err := runXCells(o, cells,
		func(ctx context.Context, i int) (ctxSwitchCell, error) {
			sa, err := stream(o, streams[i][0])
			if err != nil {
				return ctxSwitchCell{}, err
			}
			sb, err := stream(o, streams[i][1])
			if err != nil {
				return ctxSwitchCell{}, err
			}
			runXBC := func(s *trace.Stream) float64 {
				return frontend.Run(xbcore.New(xbcore.DefaultConfig(o.Budget), frontend.DefaultConfig()), s).UopMissRate()
			}
			runTC := func(s *trace.Stream) float64 {
				return frontend.Run(tcache.New(tcache.DefaultConfig(o.Budget), frontend.DefaultConfig()), s).UopMissRate()
			}
			out := ctxSwitchCell{
				XBCSolo: (runXBC(sa) + runXBC(sb)) / 2,
				TCSolo:  (runTC(sa) + runTC(sb)) / 2,
			}
			for _, q := range quanta {
				mixed, err := trace.Interleave(q, sa, sb)
				if err != nil {
					return ctxSwitchCell{}, err
				}
				out.XBCMixed = append(out.XBCMixed, runXBC(mixed))
				out.TCMixed = append(out.TCMixed, runTC(mixed))
			}
			return out, nil
		})
	if err != nil {
		return nil, err
	}
	t := stats.NewTable(fmt.Sprintf("Context-switch sensitivity (%dK uops): miss%%", o.Budget/1024),
		"pair", "quantum", "XBC solo", "XBC mixed", "TC solo", "TC mixed")
	for i := range pairs {
		if !ok[i] || len(vals[i].XBCMixed) != len(quanta) {
			continue
		}
		for qi, q := range quanta {
			t.AddRowf(names[i], q, vals[i].XBCSolo, vals[i].XBCMixed[qi], vals[i].TCSolo, vals[i].TCMixed[qi])
		}
		t.AddSeparator()
	}
	return t, nil
}

// Phases reproduces the paper's section-1 phase discussion: the fraction
// of frontend cycles spent in steady state (delivery), transition (build
// ramping), and stall (re-steer/miss bubbles), per structure.
func Phases(o Options) (*stats.Table, error) {
	o = o.withDefaults()
	ws := o.Workloads
	if len(ws) == len(workload.All()) {
		ws = pickRepresentatives()
	}
	ms, ok, err := runModels(o, "phases", ws, kindsAt(xbcAndTC, o.Budget, "", nil))
	if err != nil {
		return nil, err
	}
	t := stats.NewTable(fmt.Sprintf("Execution phases (%dK uops, traces: %s): steady / transition / stall %%", o.Budget/1024, nameList(ws)),
		"trace", "XBC", "TC")
	for i, w := range ws {
		if !ok[i] {
			continue
		}
		px, pt := ms[i][0].Phases(), ms[i][1].Phases()
		t.AddRow(w.Name,
			fmt.Sprintf("%.0f / %.0f / %.0f", px.SteadyPct, px.TransitionPct, px.StallPct),
			fmt.Sprintf("%.0f / %.0f / %.0f", pt.SteadyPct, pt.TransitionPct, pt.StallPct))
	}
	return t, nil
}

// IPCEstimate translates frontend metrics into whole-core IPC estimates
// via interval analysis ([Mich99], the paper's section-1 framework): how
// much the XBC's better hit rate is worth to the same execution core at
// each cache size.
func IPCEstimate(o Options) (*stats.Table, error) {
	o = o.withDefaults()
	ws := o.Workloads
	if len(ws) == len(workload.All()) {
		ws = pickRepresentatives()
	}
	core := interval.DefaultCore()
	t := stats.NewTable(
		fmt.Sprintf("Estimated uops/cycle for an %d-issue, %d-uop-window core (traces: %s)",
			core.IssueWidth, core.WindowSize, nameList(ws)),
		"size (uops)", "XBC", "TC", "XBC gain %", "XBC mis/Ku", "TC mis/Ku")
	for _, size := range o.Sizes {
		ms, ok, err := runModels(o, "ipc", ws, kindsAt(xbcAndTC, size, "", nil))
		if err != nil {
			return nil, err
		}
		var xs, ts, xm, tm []float64
		for i := range ws {
			if !ok[i] {
				continue
			}
			mx, mt := ms[i][0], ms[i][1]
			ex, err := interval.FromMetrics(mx, core)
			if err != nil {
				return nil, err
			}
			et, err := interval.FromMetrics(mt, core)
			if err != nil {
				return nil, err
			}
			xs = append(xs, ex.UopsPerCycle)
			ts = append(ts, et.UopsPerCycle)
			// Mispredictions per 1000 uops.
			xm = append(xm, 1000*float64(mx.CondMiss+mx.IndMiss+mx.RetMiss)/float64(mx.Uops))
			tm = append(tm, 1000*float64(mt.CondMiss+mt.IndMiss+mt.RetMiss)/float64(mt.Uops))
		}
		ax, at := stats.Mean(xs), stats.Mean(ts)
		t.AddRowf(fmt.Sprintf("%dK", size/1024), ax, at, 100*(stats.Ratio(ax, at)-1),
			stats.Mean(xm), stats.Mean(tm))
	}
	return t, nil
}
