package experiments

import (
	"context"
	"fmt"

	"xbc/internal/frontend"
	"xbc/internal/service/jobspec"
	"xbc/internal/stats"
	"xbc/internal/tcache"
	"xbc/internal/workload"
	"xbc/internal/xbcore"
)

// This file adds the studies the paper reports in text rather than as
// figures (TC redundancy, in-text length claims) plus the ablations
// DESIGN.md calls out.

// Redundancy reproduces the in-text redundancy discussion of sections 2.3
// and 3.3: the TC stores each uop in multiple traces while the XBC is
// (nearly) redundancy free. Reports resident-copy averages per trace.
func Redundancy(o Options) (*stats.Table, error) {
	o = o.withDefaults()
	ms, ok, err := runModels(o, "redundancy", o.Workloads, xbcAndTC, o.Budget, "")
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
	ms, ok, err := runModels(o, "frontends", o.Workloads, jobspec.Kinds(), o.Budget, "")
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

// AblationSpec names one feature-flag ablation.
type AblationSpec struct {
	Name   string
	Mutate func(*xbcore.Config)
}

// Ablations returns the standard ablation set from DESIGN.md.
func Ablations() []AblationSpec {
	return []AblationSpec{
		{"baseline (all on)", func(c *xbcore.Config) {}},
		{"no promotion", func(c *xbcore.Config) { c.Promotion = false }},
		{"no complex XBs", func(c *xbcore.Config) { c.ComplexXB = false }},
		{"no set search", func(c *xbcore.Config) { c.SetSearch = false }},
		{"no smart placement", func(c *xbcore.Config) { c.SmartPlacement = false }},
		{"no dynamic placement", func(c *xbcore.Config) { c.DynamicPlacement = false }},
		{"single XB/cycle", func(c *xbcore.Config) { c.XBsPerCycle = 1 }},
		{"4 XBs/cycle", func(c *xbcore.Config) { c.XBsPerCycle = 4 }},
		{"oracle prediction (limit)", func(c *xbcore.Config) { c.Oracle = true }},
		{"bimodal XBP", func(c *xbcore.Config) { c.XBP = xbcore.XBPBimodal }},
		{"tournament XBP", func(c *xbcore.Config) { c.XBP = xbcore.XBPTournament }},
		{"next-XB prediction", func(c *xbcore.Config) { c.NextXB = true }},
		{"2 banks", func(c *xbcore.Config) {
			c.Banks, c.BankUops = 2, 8
			c.Sets = sizeToSets(c.UopCapacity(), c.Banks*c.BankUops*c.Ways)
		}},
		{"8 banks", func(c *xbcore.Config) {
			c.Banks, c.BankUops = 8, 2
			c.Sets = sizeToSets(c.UopCapacity(), c.Banks*c.BankUops*c.Ways)
		}},
	}
}

// ablationCell is the stored value of one (ablation, workload) cell.
type ablationCell struct {
	Miss float64
	BW   float64
	Red  float64
	SS   float64
	Conf float64
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
	for _, ab := range Ablations() {
		ab := ab
		vals, ok, err := runCells(o, "ablation", []string{budgetParam(o.Budget), ab.Name}, ws,
			func(ctx context.Context, w workload.Workload) (ablationCell, error) {
				s, err := stream(o, w)
				if err != nil {
					return ablationCell{}, err
				}
				cfg := xbcore.DefaultConfig(o.Budget)
				ab.Mutate(&cfg)
				x := xbcore.New(cfg, frontend.DefaultConfig())
				m := frontend.Run(x, s)
				return ablationCell{
					Miss: m.UopMissRate(),
					BW:   m.Bandwidth(),
					Red:  m.Extra["redundancy"],
					SS:   m.Extra["set_searches"],
					Conf: m.Extra["bank_conflicts"],
				}, nil
			})
		if err != nil {
			return nil, err
		}
		var miss, bw, red, ss, conf []float64
		for i := range vals {
			if !ok[i] {
				continue
			}
			miss = append(miss, vals[i].Miss)
			bw = append(bw, vals[i].BW)
			red = append(red, vals[i].Red)
			ss = append(ss, vals[i].SS)
			conf = append(conf, vals[i].Conf)
		}
		t.AddRowf(ab.Name, stats.Mean(miss), stats.Mean(bw), stats.Mean(red),
			stats.Mean(ss), stats.Mean(conf))
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

// pathAssocCell is the stored value of one path-associativity cell.
type pathAssocCell struct {
	TC, TCPath, XBC          float64
	TCRed, TCPathRed, XBCRed float64
}

// PathAssociativity contrasts the baseline TC with the [Jaco97]-style
// path-associative TC the paper cites, and with the XBC: path
// associativity lets same-start traces coexist (raising hit rate at the
// cost of extra redundancy), while the XBC removes the redundancy
// entirely.
func PathAssociativity(o Options) (*stats.Table, error) {
	o = o.withDefaults()
	vals, ok, err := runCells(o, "pathassoc", []string{budgetParam(o.Budget)}, o.Workloads,
		func(ctx context.Context, w workload.Workload) (pathAssocCell, error) {
			s, err := stream(o, w)
			if err != nil {
				return pathAssocCell{}, err
			}
			base := tcache.DefaultConfig(o.Budget)
			pa := base
			pa.PathAssoc = true
			mt := frontend.Run(tcache.New(base, frontend.DefaultConfig()), s)
			mp := frontend.Run(tcache.New(pa, frontend.DefaultConfig()), s)
			mx := frontend.Run(xbcore.New(xbcore.DefaultConfig(o.Budget), frontend.DefaultConfig()), s)
			return pathAssocCell{
				TC: mt.UopMissRate(), TCPath: mp.UopMissRate(), XBC: mx.UopMissRate(),
				TCRed: mt.Extra["redundancy"], TCPathRed: mp.Extra["redundancy"], XBCRed: mx.Extra["redundancy"],
			}, nil
		})
	if err != nil {
		return nil, err
	}
	t := stats.NewTable(fmt.Sprintf("Path associativity (%dK uops): miss%% (redundancy)", o.Budget/1024),
		"trace", "TC", "TC+path", "XBC")
	var a, b, c []float64
	for i, w := range o.Workloads {
		if !ok[i] {
			continue
		}
		r := vals[i]
		t.AddRow(w.Name,
			fmt.Sprintf("%5.2f (%.2f)", r.TC, r.TCRed),
			fmt.Sprintf("%5.2f (%.2f)", r.TCPath, r.TCPathRed),
			fmt.Sprintf("%5.2f (%.2f)", r.XBC, r.XBCRed))
		a = append(a, r.TC)
		b = append(b, r.TCPath)
		c = append(c, r.XBC)
	}
	t.AddSeparator()
	t.AddRowf("mean", stats.Mean(a), stats.Mean(b), stats.Mean(c))
	return t, nil
}
