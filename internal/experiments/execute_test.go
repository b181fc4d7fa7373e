package experiments

import (
	"reflect"
	"testing"

	"xbc/internal/bbtc"
	"xbc/internal/decoded"
	"xbc/internal/frontend"
	"xbc/internal/icfe"
	"xbc/internal/planner"
	"xbc/internal/sampling"
	"xbc/internal/service/jobspec"
	"xbc/internal/snapshot"
	"xbc/internal/tcache"
	"xbc/internal/trace"
	"xbc/internal/workload"
	"xbc/internal/xbcore"
)

// directModel is one model a geometry study runs, built directly from
// the model configurations, beside the spec (without its trace) that the
// study plans for it.
type directModel struct {
	spec jobspec.Spec
	fe   frontend.Frontend
}

// geometryModels are the models of Figure 10 and of the ablation,
// path-associativity, XBTB and renamer studies at budget, each built by
// changing the model configurations directly: the reference that the
// geometry of each spec must reproduce.
func geometryModels(budget int) []directModel {
	sets := func(capacity, perSet int) int {
		p := 1
		for p*2 <= capacity/perSet {
			p *= 2
		}
		return p
	}
	xbc := func(g *jobspec.Geometry, fe frontend.Config, mutate func(*xbcore.Config)) directModel {
		c := xbcore.DefaultConfig(budget)
		mutate(&c)
		return directModel{jobspec.Spec{Frontend: jobspec.KindXBC, Budget: budget, Geometry: g}, xbcore.New(c, fe)}
	}
	tc := func(g *jobspec.Geometry, fe frontend.Config, mutate func(*tcache.Config)) directModel {
		c := tcache.DefaultConfig(budget)
		mutate(&c)
		return directModel{jobspec.Spec{Frontend: jobspec.KindTC, Budget: budget, Geometry: g}, tcache.New(c, fe)}
	}
	paper := frontend.DefaultConfig()
	var out []directModel
	for _, ways := range []int{1, 2, 4} {
		g := &jobspec.Geometry{Ways: ways}
		out = append(out,
			xbc(g, paper, func(c *xbcore.Config) { c.Ways, c.Sets = ways, sets(budget, c.Banks*c.BankUops*ways) }),
			tc(g, paper, func(c *tcache.Config) { c.Ways, c.Sets = ways, sets(budget, c.MaxUops*ways) }))
	}
	rebank := func(banks, bankUops int) func(*xbcore.Config) {
		return func(c *xbcore.Config) {
			c.Banks, c.BankUops = banks, bankUops
			c.Sets = sets(c.UopCapacity(), c.Banks*c.BankUops*c.Ways)
		}
	}
	for _, ab := range []struct {
		variant string
		mutate  func(*xbcore.Config)
	}{
		{"", func(c *xbcore.Config) {}},
		{"no-promotion", func(c *xbcore.Config) { c.Promotion = false }},
		{"no-complex-xb", func(c *xbcore.Config) { c.ComplexXB = false }},
		{"no-set-search", func(c *xbcore.Config) { c.SetSearch = false }},
		{"no-smart-placement", func(c *xbcore.Config) { c.SmartPlacement = false }},
		{"no-dynamic-placement", func(c *xbcore.Config) { c.DynamicPlacement = false }},
		{"1-xb-per-cycle", func(c *xbcore.Config) { c.XBsPerCycle = 1 }},
		{"4-xbs-per-cycle", func(c *xbcore.Config) { c.XBsPerCycle = 4 }},
		{"oracle", func(c *xbcore.Config) { c.Oracle = true }},
		{"bimodal-xbp", func(c *xbcore.Config) { c.XBP = xbcore.XBPBimodal }},
		{"tournament-xbp", func(c *xbcore.Config) { c.XBP = xbcore.XBPTournament }},
		{"next-xb", func(c *xbcore.Config) { c.NextXB = true }},
		{"2-banks", rebank(2, 8)},
		{"8-banks", rebank(8, 2)},
	} {
		out = append(out, xbc(&jobspec.Geometry{Variant: ab.variant}, paper, ab.mutate))
	}
	out = append(out, tc(&jobspec.Geometry{Variant: jobspec.VariantPathAssoc}, paper, func(c *tcache.Config) { c.PathAssoc = true }))
	for _, n := range []int{1024, 2048, 4096, 8192, 16384} {
		out = append(out, xbc(&jobspec.Geometry{XBTBEntries: n}, paper, func(c *xbcore.Config) { c.XBTBSets = sets(n, c.XBTBWays) }))
	}
	for _, width := range []int{4, 8, 16, 32} {
		fe := paper
		fe.RenamerWidth = width
		g := &jobspec.Geometry{RenamerWidth: width}
		out = append(out,
			xbc(g, fe, func(c *xbcore.Config) {}),
			tc(g, fe, func(c *tcache.Config) {}),
			xbc(&jobspec.Geometry{RenamerWidth: width, Variant: "1-xb-per-cycle"}, fe, func(c *xbcore.Config) { c.XBsPerCycle = 1 }))
	}
	return out
}

// storedMetrics reads the metrics of spec m over w's stream back from
// the store.
func storedMetrics(t *testing.T, o Options, m jobspec.Spec, w workload.Workload) frontend.Metrics {
	t.Helper()
	m.Program, m.Uops = &w.Spec, o.UopsPerTrace
	key, err := m.Key()
	if err != nil {
		t.Fatal(err)
	}
	raw, ok := o.Store.Get(jobspec.ResultStoreKey(key))
	if !ok {
		t.Fatalf("no cell for %s at %+v on %s", m.Frontend, m.Geometry, w.Name)
	}
	r, err := jobspec.DecodeResult(raw)
	if err != nil {
		t.Fatal(err)
	}
	return r.Metrics
}

// TestFiguresEqualDirectRuns pins that running figure cells through
// jobspec.Execute changes no number. Figure 8's rows, the Frontends
// cells and every cell of Figure 10 and of the ablation,
// path-associativity, XBTB and renamer studies (read back from the
// store) equal frontend.Run over trace.Generate of models built
// directly, without a snapshot manager, with a cold one (the cells save
// warm state) and with the same manager warm (the cells restore it).
// Figure 10's sampled rung equals sampling.Run on a stream long enough
// that the rung really samples.
func TestFiguresEqualDirectRuns(t *testing.T) {
	o := smallOpts()
	o.UopsPerTrace = 30_000
	fe := frontend.DefaultConfig()
	want8 := make([]Fig8Row, len(o.Workloads))
	wantFE := make([][5][2]float64, len(o.Workloads))
	geo := geometryModels(o.Budget)
	wantGeo := make([][]frontend.Metrics, len(o.Workloads))
	for i, w := range o.Workloads {
		s, err := trace.Generate(w.Spec, o.UopsPerTrace)
		if err != nil {
			t.Fatal(err)
		}
		mx := frontend.Run(xbcore.New(xbcore.DefaultConfig(o.Budget), fe), s)
		mt := frontend.Run(tcache.New(tcache.DefaultConfig(o.Budget), fe), s)
		want8[i] = Fig8Row{Workload: w.Name, Suite: w.Suite, XBC: mx.Bandwidth(), TC: mt.Bandwidth()}
		for mi, model := range []frontend.Frontend{
			icfe.New(fe, frontend.DefaultICConfig()),
			decoded.New(decoded.DefaultConfig(o.Budget), fe),
			tcache.New(tcache.DefaultConfig(o.Budget), fe),
			bbtc.New(bbtc.DefaultConfig(o.Budget), fe),
			xbcore.New(xbcore.DefaultConfig(o.Budget), fe),
		} {
			m := frontend.Run(model, s)
			wantFE[i][mi] = [2]float64{m.UopMissRate(), m.Bandwidth()}
		}
		for _, m := range geo {
			wantGeo[i] = append(wantGeo[i], frontend.Run(m.fe, s))
		}
	}

	mgr := snapshot.NewManager(16, nil)
	defer jobspec.ClearSnapshotManager(mgr)
	for _, phase := range []string{"no manager", "cold manager", "warm manager"} {
		if phase == "cold manager" {
			jobspec.SetSnapshotManager(mgr)
		}
		r, err := Figure8(o)
		if err != nil {
			t.Fatalf("%s: %v", phase, err)
		}
		if !reflect.DeepEqual(r.Rows, want8) {
			t.Errorf("%s: Figure 8 rows %+v, direct runs %+v", phase, r.Rows, want8)
		}

		fo := o
		fo.Store = openStoreT(t, t.TempDir())
		for _, fig := range []func(Options) error{figure10, ablation, pathAssoc, xbtb, renamer,
			func(o Options) error { _, err := Frontends(o); return err }} {
			if err := fig(fo); err != nil {
				t.Fatalf("%s: %v", phase, err)
			}
		}
		for i, w := range o.Workloads {
			var got [5][2]float64
			for mi, kind := range jobspec.Kinds() {
				m := storedMetrics(t, fo, jobspec.Spec{Frontend: kind, Budget: o.Budget}, w)
				got[mi] = [2]float64{m.UopMissRate(), m.Bandwidth()}
			}
			if got != wantFE[i] {
				t.Errorf("%s: %s frontends %v, direct runs %v", phase, w.Name, got, wantFE[i])
			}
			for mi, m := range geo {
				if got := storedMetrics(t, fo, m.spec, w); !reflect.DeepEqual(got, wantGeo[i][mi]) {
					t.Errorf("%s: %s %s at %+v: %+v, direct run %+v", phase, w.Name, m.spec.Frontend, m.spec.Geometry, got, wantGeo[i][mi])
				}
			}
		}
	}
	st := mgr.Stats()
	if st.Saves == 0 || st.Hits == 0 {
		t.Fatalf("snapshot manager saw %d saves and %d hits; the cold and warm phases need both", st.Saves, st.Hits)
	}

	so := o
	so.UopsPerTrace, so.Workloads, so.Fidelity = 150_000, o.Workloads[:1], jobspec.FidelitySampled
	r, err := Figure10(so)
	if err != nil {
		t.Fatal(err)
	}
	s, err := trace.Generate(so.Workloads[0].Spec, so.UopsPerTrace)
	if err != nil {
		t.Fatal(err)
	}
	for j, m := range geo[:2*len(so.Assocs)] {
		res, err := sampling.Run(m.fe, s.Records(), frontend.DefaultConfig(), sampling.ConfigFor(so.Fidelity))
		if err != nil {
			t.Fatal(err)
		}
		if res.SimulatedUops >= res.Metrics.Uops {
			t.Fatalf("the sampled rung simulated all %d uops; lengthen the stream", res.Metrics.Uops)
		}
		got := [][]float64{r.AvgXBC, r.AvgTC}[j%2][j/2]
		if want := res.Metrics.UopMissRate(); got != want {
			t.Errorf("sampled Figure 10, %s at %d ways: %v, sampling.Run %v", m.spec.Frontend, so.Assocs[j/2], got, want)
		}
	}
}

// TestSampledFigure9EqualsSamplingRun pins the sampled rung of Figure 9
// to sampling.Run over the same stream and geometry: the analysis memo
// behind jobspec.Execute must change no number. The stream is long
// enough that the rung really samples.
func TestSampledFigure9EqualsSamplingRun(t *testing.T) {
	o := smallOpts()
	o.UopsPerTrace = 150_000
	o.Workloads = o.Workloads[:1]
	o.Sizes = []int{8 * 1024, 32 * 1024}
	o.Fidelity = jobspec.FidelitySampled
	r, err := Figure9(o)
	if err != nil {
		t.Fatal(err)
	}
	w := o.Workloads[0]
	s, err := trace.Generate(w.Spec, o.UopsPerTrace)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sampling.ConfigFor(o.Fidelity)
	for j, size := range o.Sizes {
		rx, err := sampling.Run(xbcore.New(xbcore.DefaultConfig(size), frontend.DefaultConfig()), s.Records(), frontend.DefaultConfig(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := sampling.Run(tcache.New(tcache.DefaultConfig(size), frontend.DefaultConfig()), s.Records(), frontend.DefaultConfig(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if rx.SimulatedUops >= rx.Metrics.Uops {
			t.Fatalf("size %d: the sampled rung simulated all %d uops; lengthen the stream", size, rx.Metrics.Uops)
		}
		got := [2]float64{r.MissXBC[0][j], r.MissTC[0][j]}
		want := [2]float64{rx.Metrics.UopMissRate(), rt.Metrics.UopMissRate()}
		if !r.OK[0][j] || got != want {
			t.Errorf("size %d: Figure 9 cell %v (ok %v), sampling.Run %v", size, got, r.OK[0][j], want)
		}
	}
}

// TestUnknownFidelityIsAnError: a rung the ladder does not have fails
// every sampled figure before any cell runs, instead of silently running
// in full.
func TestUnknownFidelityIsAnError(t *testing.T) {
	o := smallOpts()
	o.UopsPerTrace = 20_000
	o.Fidelity = "bogus"
	tally := &planner.Tally{}
	o.Plan = tally
	if _, err := Figure8(o); err == nil {
		t.Error("Figure 8 accepted fidelity \"bogus\"")
	}
	if _, err := Figure9(o); err == nil {
		t.Error("Figure 9 accepted fidelity \"bogus\"")
	}
	if _, err := Figure10(o); err == nil {
		t.Error("Figure 10 accepted fidelity \"bogus\"")
	}
	if n := tally.Snapshot().Planned; n != 0 {
		t.Errorf("%d cells planned under an unknown fidelity, want 0", n)
	}
}
