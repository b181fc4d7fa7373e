package interval

import (
	"testing"

	"xbc/internal/frontend"
	"xbc/internal/program"
	"xbc/internal/tcache"
	"xbc/internal/trace"
	"xbc/internal/xbcore"
)

func baseMetrics() frontend.Metrics {
	m := frontend.Metrics{
		Insts:           700,
		Uops:            1000,
		DeliveredUops:   950,
		BuildUops:       50,
		DeliveryFetches: 150,
		BuildCycles:     20,
		PenaltyCycles:   30,
		CondMiss:        5,
	}
	m.Finalize(frontend.DefaultConfig())
	return m
}

func TestValidate(t *testing.T) {
	if err := DefaultCore().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []CoreConfig{
		{IssueWidth: 0, WindowSize: 1, FrontPipeDepth: 1},
		{IssueWidth: 1, WindowSize: 0, FrontPipeDepth: 1},
		{IssueWidth: 1, WindowSize: 1, FrontPipeDepth: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad core %d accepted", i)
		}
	}
	if _, err := FromMetrics(frontend.Metrics{}, DefaultCore()); err == nil {
		t.Error("empty metrics accepted")
	}
	if _, err := FromMetrics(baseMetrics(), CoreConfig{}); err == nil {
		t.Error("bad core accepted")
	}
}

func TestEstimateBasics(t *testing.T) {
	est, err := FromMetrics(baseMetrics(), DefaultCore())
	if err != nil {
		t.Fatal(err)
	}
	if est.UopsPerCycle <= 0 || est.UopsPerCycle > 8 {
		t.Fatalf("uPC = %v", est.UopsPerCycle)
	}
	if est.InstsPerCycle >= est.UopsPerCycle {
		t.Fatalf("IPC %v must be below uPC %v (multi-uop instructions)", est.InstsPerCycle, est.UopsPerCycle)
	}
	sum := est.BaseCPKu + est.BranchCPKu + est.SupplyCPKu
	if diff := sum - est.TotalCPKu; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("CPKu decomposition %v != total %v", sum, est.TotalCPKu)
	}
}

func TestMoreMispredictsLowerIPC(t *testing.T) {
	a := baseMetrics()
	b := baseMetrics()
	b.CondMiss += 50
	ea, _ := FromMetrics(a, DefaultCore())
	eb, _ := FromMetrics(b, DefaultCore())
	if eb.UopsPerCycle >= ea.UopsPerCycle {
		t.Fatalf("more mispredicts did not lower IPC: %v vs %v", eb.UopsPerCycle, ea.UopsPerCycle)
	}
}

func TestBiggerWindowCostsMoreOnFlush(t *testing.T) {
	m := baseMetrics()
	small := DefaultCore()
	small.WindowSize = 32
	big := DefaultCore()
	big.WindowSize = 512
	es, _ := FromMetrics(m, small)
	eb, _ := FromMetrics(m, big)
	if eb.BranchCPKu <= es.BranchCPKu {
		t.Fatalf("bigger window should raise flush cost: %v vs %v", eb.BranchCPKu, es.BranchCPKu)
	}
}

func TestBetterFrontendHigherIPC(t *testing.T) {
	// End to end: the same structure with a bigger budget has fewer
	// supply stalls and identical branch behaviour, so the interval model
	// must award it a higher estimated IPC. (Cross-structure mispredict
	// counts are not directly comparable — the XBC predicts once per
	// block, the TC once per branch — so the clean property is
	// same-structure monotonicity.)
	spec := program.DefaultSpec("interval-e2e", 8)
	spec.Functions = 80
	s, err := trace.Generate(spec, 200_000)
	if err != nil {
		t.Fatal(err)
	}
	fe := frontend.DefaultConfig()
	for name, run := range map[string]func(int) frontend.Metrics{
		"xbc": func(budget int) frontend.Metrics {
			return frontend.Run(xbcore.New(xbcore.DefaultConfig(budget), fe), s)
		},
		"tc": func(budget int) frontend.Metrics {
			return frontend.Run(tcache.New(tcache.DefaultConfig(budget), fe), s)
		},
	} {
		small := run(2 * 1024)
		big := run(64 * 1024)
		es, err := FromMetrics(small, DefaultCore())
		if err != nil {
			t.Fatal(err)
		}
		eb, err := FromMetrics(big, DefaultCore())
		if err != nil {
			t.Fatal(err)
		}
		if eb.UopsPerCycle <= es.UopsPerCycle {
			t.Errorf("%s: bigger cache did not raise estimated IPC: %.3f vs %.3f",
				name, eb.UopsPerCycle, es.UopsPerCycle)
		}
		if eb.SupplyCPKu >= es.SupplyCPKu {
			t.Errorf("%s: bigger cache did not cut supply stalls: %.1f vs %.1f",
				name, eb.SupplyCPKu, es.SupplyCPKu)
		}
	}
}
