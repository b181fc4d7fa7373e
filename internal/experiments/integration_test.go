package experiments

import (
	"testing"

	"xbc/internal/frontend"
	"xbc/internal/service/jobspec"
	"xbc/internal/tcache"
	"xbc/internal/trace"
	"xbc/internal/workload"
	"xbc/internal/xbcore"
)

// These integration tests pin the paper's qualitative findings at reduced
// scale — the properties EXPERIMENTS.md reports at full scale.

func TestHeadlineXBCBeatsTCUnderCapacityPressure(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	// Average over one workload per suite at a small (8K) budget, where
	// capacity pressure dominates: the XBC must miss less than the TC.
	var xbcMiss, tcMiss float64
	names := []string{"gcc", "word", "doom"}
	for _, n := range names {
		w, ok := workload.ByName(n)
		if !ok {
			t.Fatalf("unknown workload %q", n)
		}
		s, err := trace.Generate(w.Spec, 400_000)
		if err != nil {
			t.Fatal(err)
		}
		fe := frontend.DefaultConfig()
		xbcMiss += frontend.Run(xbcore.New(xbcore.DefaultConfig(8*1024), fe), s).UopMissRate()
		tcMiss += frontend.Run(tcache.New(tcache.DefaultConfig(8*1024), fe), s).UopMissRate()
	}
	xbcMiss /= float64(len(names))
	tcMiss /= float64(len(names))
	if xbcMiss >= tcMiss {
		t.Fatalf("headline inverted at 8K: XBC %.2f%% >= TC %.2f%%", xbcMiss, tcMiss)
	}
	t.Logf("8K average: XBC %.2f%%, TC %.2f%% (reduction %.0f%%)",
		xbcMiss, tcMiss, 100*(1-xbcMiss/tcMiss))
}

func TestBandwidthParity(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	// Figure 8's finding: XBC and TC bandwidth are close.
	w, ok := workload.ByName("m88ksim")
	if !ok {
		t.Fatal("unknown workload m88ksim")
	}
	s, err := trace.Generate(w.Spec, 400_000)
	if err != nil {
		t.Fatal(err)
	}
	fe := frontend.DefaultConfig()
	bx := frontend.Run(xbcore.New(xbcore.DefaultConfig(32*1024), fe), s).Bandwidth()
	bt := frontend.Run(tcache.New(tcache.DefaultConfig(32*1024), fe), s).Bandwidth()
	if ratio := bx / bt; ratio < 0.8 || ratio > 1.25 {
		t.Fatalf("bandwidth not comparable: XBC %.2f vs TC %.2f", bx, bt)
	}
}

func TestRedundancyContrast(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	// The structural heart of the paper: the TC stores uops redundantly,
	// the XBC does not.
	w, ok := workload.ByName("perl")
	if !ok {
		t.Fatal("unknown workload perl")
	}
	s, err := trace.Generate(w.Spec, 300_000)
	if err != nil {
		t.Fatal(err)
	}
	fe := frontend.DefaultConfig()
	rx := frontend.Run(xbcore.New(xbcore.DefaultConfig(32*1024), fe), s).Extra["redundancy"]
	rt := frontend.Run(tcache.New(tcache.DefaultConfig(32*1024), fe), s).Extra["redundancy"]
	if rx > 1.25 {
		t.Errorf("XBC redundancy %.3f (should be ~1)", rx)
	}
	if rt < 1.4 {
		t.Errorf("TC redundancy %.3f (should be well above 1)", rt)
	}
	if rx >= rt {
		t.Errorf("redundancy contrast inverted: XBC %.3f vs TC %.3f", rx, rt)
	}
}

func TestAssociativityKnee(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	// Figure 10's finding: 1-way -> 2-way is a big improvement; 2 -> 4 a
	// smaller one.
	w, ok := workload.ByName("excel")
	if !ok {
		t.Fatal("unknown workload excel")
	}
	s, err := trace.Generate(w.Spec, 400_000)
	if err != nil {
		t.Fatal(err)
	}
	miss := map[int]float64{}
	for _, ways := range []int{1, 2, 4} {
		fe, err := jobspec.Spec{Frontend: jobspec.KindXBC, Budget: 8 * 1024, Geometry: &jobspec.Geometry{Ways: ways}}.NewFrontend()
		if err != nil {
			t.Fatal(err)
		}
		miss[ways] = frontend.Run(fe, s).UopMissRate()
	}
	if !(miss[1] > miss[2]) {
		t.Errorf("no gain from 2-way: %v", miss)
	}
	gain12 := miss[1] - miss[2]
	gain24 := miss[2] - miss[4]
	if gain24 > gain12 {
		t.Errorf("associativity knee missing: 1->2 gain %.2f < 2->4 gain %.2f", gain12, gain24)
	}
}

func TestSuiteAveragesAcrossSizes(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	// Monotone size behaviour per structure at three sizes.
	w, ok := workload.ByName("quattro")
	if !ok {
		t.Fatal("unknown workload quattro")
	}
	s, err := trace.Generate(w.Spec, 400_000)
	if err != nil {
		t.Fatal(err)
	}
	fe := frontend.DefaultConfig()
	var prevX, prevT float64 = 101, 101
	for _, size := range []int{4 * 1024, 16 * 1024, 64 * 1024} {
		mx := frontend.Run(xbcore.New(xbcore.DefaultConfig(size), fe), s).UopMissRate()
		mt := frontend.Run(tcache.New(tcache.DefaultConfig(size), fe), s).UopMissRate()
		if mx > prevX+0.5 {
			t.Errorf("XBC miss grew with size: %.2f -> %.2f at %d", prevX, mx, size)
		}
		if mt > prevT+0.5 {
			t.Errorf("TC miss grew with size: %.2f -> %.2f at %d", prevT, mt, size)
		}
		prevX, prevT = mx, mt
	}
}
