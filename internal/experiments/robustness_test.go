package experiments

import (
	"testing"

	"xbc/internal/frontend"
	"xbc/internal/stats"
	"xbc/internal/tcache"
	"xbc/internal/trace"
	"xbc/internal/workload"
	"xbc/internal/xbcore"
)

// TestHeadlineRobustToSeeds re-runs the headline comparison (XBC misses
// less than the TC under capacity pressure) with perturbed workload
// seeds: the result must hold for generator randomness that was never
// used during calibration, i.e. it is a property of the structures, not
// of the particular 21 programs.
func TestHeadlineRobustToSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("robustness sweep")
	}
	names := []string{"gcc", "word", "doom"}
	for _, offset := range []int64{1000, 5000} {
		var xs, ts []float64
		for _, n := range names {
			w, ok := workload.ByName(n)
			if !ok {
				t.Fatalf("unknown workload %q", n)
			}
			spec := w.Spec
			spec.Seed += offset
			s, err := trace.Generate(spec, 400_000)
			if err != nil {
				t.Fatal(err)
			}
			fe := frontend.DefaultConfig()
			xs = append(xs, frontend.Run(xbcore.New(xbcore.DefaultConfig(8*1024), fe), s).UopMissRate())
			ts = append(ts, frontend.Run(tcache.New(tcache.DefaultConfig(8*1024), fe), s).UopMissRate())
		}
		ax, at := stats.Mean(xs), stats.Mean(ts)
		if ax >= at {
			t.Errorf("seed offset %d: headline inverted (XBC %.2f%% >= TC %.2f%%)", offset, ax, at)
		} else {
			t.Logf("seed offset %d: XBC %.2f%% vs TC %.2f%% (reduction %.0f%%)",
				offset, ax, at, 100*(1-ax/at))
		}
	}
}

// TestRedundancyRobustToSeeds checks the structural invariant (XBC ~1.0,
// TC well above 1) across perturbed seeds.
func TestRedundancyRobustToSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("robustness sweep")
	}
	w, ok := workload.ByName("perl")
	if !ok {
		t.Fatal("unknown workload perl")
	}
	for _, offset := range []int64{777, 31337} {
		spec := w.Spec
		spec.Seed += offset
		s, err := trace.Generate(spec, 250_000)
		if err != nil {
			t.Fatal(err)
		}
		fe := frontend.DefaultConfig()
		rx := frontend.Run(xbcore.New(xbcore.DefaultConfig(32*1024), fe), s).Extra["redundancy"]
		rt := frontend.Run(tcache.New(tcache.DefaultConfig(32*1024), fe), s).Extra["redundancy"]
		if rx > 1.25 || rt < 1.3 || rx >= rt {
			t.Errorf("seed offset %d: redundancy contrast broken (XBC %.3f, TC %.3f)", offset, rx, rt)
		}
	}
}
