package experiments

import (
	"fmt"

	"xbc/internal/frontend"
	"xbc/internal/service/jobspec"
	"xbc/internal/stats"
	"xbc/internal/workload"
)

// This file adds the studies the paper reports in text rather than as
// figures (TC redundancy, in-text length claims) plus the ablations
// DESIGN.md calls out.

// Redundancy reproduces the in-text redundancy discussion of sections 2.3
// and 3.3: the TC stores each uop in multiple traces while the XBC is
// (nearly) redundancy free. Reports resident-copy averages per trace.
func Redundancy(o Options) (*stats.Table, error) {
	o = o.withDefaults()
	ms, ok, err := runModels(o, "redundancy", o.Workloads, kindsAt(xbcAndTC, o.Budget, "", nil))
	if err != nil {
		return nil, err
	}
	t := stats.NewTable(fmt.Sprintf("Instruction redundancy (resident copies per distinct uop, %dK uops)", o.Budget/1024),
		"trace", "suite", "XBC", "TC", "TC fragmentation")
	var xr, tr []float64
	last := workload.SPECint
	first := true
	for i, w := range o.Workloads {
		if !ok[i] {
			continue
		}
		if !first && w.Suite != last {
			t.AddSeparator()
		}
		first = false
		last = w.Suite
		mx, mt := ms[i][0], ms[i][1]
		t.AddRowf(w.Name, w.Suite.String(), mx.Extra["redundancy"], mt.Extra["redundancy"], mt.Extra["fragmentation"])
		xr = append(xr, mx.Extra["redundancy"])
		tr = append(tr, mt.Extra["redundancy"])
	}
	t.AddSeparator()
	t.AddRowf("mean", "", stats.Mean(xr), stats.Mean(tr), "")
	return t, nil
}

// Frontends compares all five instruction-supply models (IC, decoded
// cache, TC, BBTC, XBC) at one budget — the qualitative landscape of the
// paper's section 2.
func Frontends(o Options) (*stats.Table, error) {
	o = o.withDefaults()
	ms, ok, err := runModels(o, "frontends", o.Workloads, kindsAt(jobspec.Kinds(), o.Budget, "", nil))
	if err != nil {
		return nil, err
	}
	t := stats.NewTable(fmt.Sprintf("Frontend landscape (%dK uops): miss%% / delivery bandwidth", o.Budget/1024),
		"trace", "IC bw", "decoded miss/bw", "TC miss/bw", "BBTC miss/bw", "XBC miss/bw")
	for i, w := range o.Workloads {
		if !ok[i] {
			continue
		}
		row := []string{w.Name, fmt.Sprintf("%.2f", ms[i][0].Bandwidth())}
		for _, m := range ms[i][1:] {
			row = append(row, fmt.Sprintf("%5.2f/%4.2f", m.UopMissRate(), m.Bandwidth()))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// ablations are the rows of the ablation table, each an xbc variant of
// jobspec.Geometry ("" is the paper's configuration).
var ablations = []struct{ label, variant string }{
	{"baseline (all on)", ""},
	{"no promotion", "no-promotion"},
	{"no complex XBs", "no-complex-xb"},
	{"no set search", "no-set-search"},
	{"no smart placement", "no-smart-placement"},
	{"no dynamic placement", "no-dynamic-placement"},
	{"single XB/cycle", "1-xb-per-cycle"},
	{"4 XBs/cycle", "4-xbs-per-cycle"},
	{"oracle prediction (limit)", "oracle"},
	{"bimodal XBP", "bimodal-xbp"},
	{"tournament XBP", "tournament-xbp"},
	{"next-XB prediction", "next-xb"},
	{"2 banks", "2-banks"},
	{"8 banks", "8-banks"},
}

// Ablation measures the XBC feature flags one at a time over a workload
// subset (default: one representative per suite when the options carry all
// 21 workloads).
func Ablation(o Options) (*stats.Table, error) {
	o = o.withDefaults()
	ws := o.Workloads
	if len(ws) == len(workload.All()) {
		ws = pickRepresentatives()
	}
	t := stats.NewTable(fmt.Sprintf("XBC ablations (%dK uops, traces: %s)", o.Budget/1024, nameList(ws)),
		"configuration", "miss %", "bandwidth", "redundancy", "set searches", "bank conflicts")
	for _, ab := range ablations {
		ms, ok, err := runModels(o, "ablation", ws, kindsAt(xbcOnly, o.Budget, "", &jobspec.Geometry{Variant: ab.variant}))
		if err != nil {
			return nil, err
		}
		mean := func(f func(frontend.Metrics) float64) float64 { return stats.Mean(column(ms, ok, 0, f)) }
		t.AddRowf(ab.label, mean(frontend.Metrics.UopMissRate), mean(frontend.Metrics.Bandwidth),
			mean(extra("redundancy")), mean(extra("set_searches")), mean(extra("bank_conflicts")))
	}
	return t, nil
}

// pickRepresentatives returns one workload per suite for ablation runs.
func pickRepresentatives() []workload.Workload {
	var out []workload.Workload
	for _, name := range []string{"gcc", "word", "doom"} {
		if w, ok := workload.ByName(name); ok {
			out = append(out, w)
		}
	}
	return out
}

func nameList(ws []workload.Workload) string {
	s := ""
	for i, w := range ws {
		if i > 0 {
			s += ","
		}
		s += w.Name
	}
	return s
}

// PathAssociativity contrasts the baseline TC with the [Jaco97]-style
// path-associative TC the paper cites, and with the XBC: path
// associativity lets same-start traces coexist (raising hit rate at the
// cost of extra redundancy), while the XBC removes the redundancy
// entirely.
func PathAssociativity(o Options) (*stats.Table, error) {
	o = o.withDefaults()
	ms, ok, err := runModels(o, "pathassoc", o.Workloads, []jobspec.Spec{
		{Frontend: jobspec.KindTC, Budget: o.Budget},
		{Frontend: jobspec.KindTC, Budget: o.Budget, Geometry: &jobspec.Geometry{Variant: jobspec.VariantPathAssoc}},
		{Frontend: jobspec.KindXBC, Budget: o.Budget},
	})
	if err != nil {
		return nil, err
	}
	t := stats.NewTable(fmt.Sprintf("Path associativity (%dK uops): miss%% (redundancy)", o.Budget/1024),
		"trace", "TC", "TC+path", "XBC")
	cell := func(m frontend.Metrics) string {
		return fmt.Sprintf("%5.2f (%.2f)", m.UopMissRate(), m.Extra["redundancy"])
	}
	for i, w := range o.Workloads {
		if ok[i] {
			t.AddRow(w.Name, cell(ms[i][0]), cell(ms[i][1]), cell(ms[i][2]))
		}
	}
	miss := func(k int) float64 { return stats.Mean(column(ms, ok, k, frontend.Metrics.UopMissRate)) }
	t.AddSeparator()
	t.AddRowf("mean", miss(0), miss(1), miss(2))
	return t, nil
}

// extra reads one structure-specific measurement of a run.
func extra(name string) func(frontend.Metrics) float64 {
	return func(m frontend.Metrics) float64 { return m.Extra[name] }
}
