package experiments

import (
	"reflect"
	"testing"

	"xbc/internal/bbtc"
	"xbc/internal/decoded"
	"xbc/internal/frontend"
	"xbc/internal/icfe"
	"xbc/internal/runner"
	"xbc/internal/sampling"
	"xbc/internal/service/jobspec"
	"xbc/internal/snapshot"
	"xbc/internal/tcache"
	"xbc/internal/trace"
	"xbc/internal/xbcore"
)

// TestFiguresEqualDirectRuns pins that running figure cells through
// jobspec.Execute changes no number: Figure 8's rows and the Frontends
// cells (read back from the store) equal frontend.Run over
// trace.Generate of the same configurations, without a snapshot manager,
// with a cold one (the cells save warm state) and with the same manager
// warm (the cells restore it).
func TestFiguresEqualDirectRuns(t *testing.T) {
	o := smallOpts()
	o.UopsPerTrace = 30_000
	fe := frontend.DefaultConfig()
	want8 := make([]Fig8Row, len(o.Workloads))
	wantFE := make([][5][2]float64, len(o.Workloads))
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
		if _, err := Frontends(fo); err != nil {
			t.Fatalf("%s: %v", phase, err)
		}
		for i, w := range o.Workloads {
			var got [5][2]float64
			for mi, kind := range jobspec.Kinds() {
				key, err := o.spec(kind, w, o.Budget, "").Key()
				if err != nil {
					t.Fatal(err)
				}
				raw, ok := fo.Store.Get(jobspec.ResultStoreKey(key))
				if !ok {
					t.Fatalf("%s: no frontends cell for %s/%s", phase, kind, w.Name)
				}
				r, err := jobspec.DecodeResult(raw)
				if err != nil {
					t.Fatal(err)
				}
				got[mi] = [2]float64{r.Metrics.UopMissRate(), r.Metrics.Bandwidth()}
			}
			if got != wantFE[i] {
				t.Errorf("%s: %s frontends %v, direct runs %v", phase, w.Name, got, wantFE[i])
			}
		}
	}
	st := mgr.Stats()
	if st.Saves == 0 || st.Hits == 0 {
		t.Fatalf("snapshot manager saw %d saves and %d hits; the cold and warm phases need both", st.Saves, st.Hits)
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
	rep := &runner.Report{}
	o.Report = rep
	if _, err := Figure8(o); err == nil {
		t.Error("Figure 8 accepted fidelity \"bogus\"")
	}
	if _, err := Figure9(o); err == nil {
		t.Error("Figure 9 accepted fidelity \"bogus\"")
	}
	if _, err := Figure10(o); err == nil {
		t.Error("Figure 10 accepted fidelity \"bogus\"")
	}
	if n := len(rep.Cells()); n != 0 {
		t.Errorf("%d cells ran under an unknown fidelity, want 0", n)
	}
}
