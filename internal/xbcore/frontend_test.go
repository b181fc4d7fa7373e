package xbcore

import (
	"testing"

	"xbc/internal/frontend"
	"xbc/internal/program"
	"xbc/internal/trace"
)

func xbcTestStream(t *testing.T, seed int64, uops uint64) *trace.Stream {
	t.Helper()
	spec := program.DefaultSpec("xbc-fe-test", seed)
	spec.Functions = 60
	s, err := trace.Generate(spec, uops)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestFrontendConservation(t *testing.T) {
	// Every dynamic uop is supplied exactly once, either from the XBC or
	// from the IC path.
	s := xbcTestStream(t, 3, 150_000)
	fe := New(DefaultConfig(16*1024), frontend.DefaultConfig())
	m := frontend.Run(fe, s)
	if m.Uops != s.Uops() {
		t.Fatalf("uops consumed %d != stream uops %d", m.Uops, s.Uops())
	}
	if m.DeliveredUops+m.BuildUops != m.Uops {
		t.Fatalf("delivered %d + build %d != total %d", m.DeliveredUops, m.BuildUops, m.Uops)
	}
	if m.Insts != uint64(s.Len()) {
		t.Fatalf("insts %d != stream records %d", m.Insts, s.Len())
	}
}

func TestFrontendDeterministic(t *testing.T) {
	s := xbcTestStream(t, 4, 100_000)
	fe := New(DefaultConfig(16*1024), frontend.DefaultConfig())
	a := frontend.Run(fe, s)
	fe2 := New(DefaultConfig(16*1024), frontend.DefaultConfig())
	b := frontend.Run(fe2, s)
	if a.DeliveredUops != b.DeliveredUops || a.BuildUops != b.BuildUops ||
		a.CondMiss != b.CondMiss || a.ModeSwitches != b.ModeSwitches ||
		a.PenaltyCycles != b.PenaltyCycles {
		t.Fatalf("non-deterministic run:\n%+v\n%+v", a, b)
	}
}

func TestFrontendReachesDelivery(t *testing.T) {
	// On a warm cache covering the working set, the vast majority of uops
	// must come from the XBC.
	s := xbcTestStream(t, 5, 200_000)
	fe := New(DefaultConfig(64*1024), frontend.DefaultConfig())
	m := frontend.Run(fe, s)
	if m.UopMissRate() > 40 {
		t.Fatalf("miss rate %.1f%% absurdly high for a covered working set", m.UopMissRate())
	}
	if m.DeliveryFetches == 0 || m.ModeSwitches == 0 {
		t.Fatal("never entered delivery mode")
	}
	if m.Bandwidth() <= 1 {
		t.Fatalf("delivery bandwidth %.2f suspiciously low", m.Bandwidth())
	}
	if m.Bandwidth() > float64(frontend.DefaultConfig().RenamerWidth) {
		t.Fatalf("bandwidth %.2f exceeds the renamer width", m.Bandwidth())
	}
}

func TestFrontendRedundancyLow(t *testing.T) {
	// The XBC's defining property: (near) redundancy freedom. The TC on
	// the same streams measures well above 1.5.
	s := xbcTestStream(t, 6, 150_000)
	fe := New(DefaultConfig(16*1024), frontend.DefaultConfig())
	m := frontend.Run(fe, s)
	red := m.Extra["redundancy"]
	if red == 0 {
		t.Fatal("redundancy not measured")
	}
	if red > 1.3 {
		t.Fatalf("XBC redundancy %.3f too high", red)
	}
}

func TestFrontendSmallerCacheMissesMore(t *testing.T) {
	s := xbcTestStream(t, 7, 200_000)
	small := New(DefaultConfig(2*1024), frontend.DefaultConfig())
	ms := frontend.Run(small, s)
	big := New(DefaultConfig(64*1024), frontend.DefaultConfig())
	mb := frontend.Run(big, s)
	if ms.UopMissRate() <= mb.UopMissRate() {
		t.Fatalf("2K cache (%.2f%%) should miss more than 64K (%.2f%%)",
			ms.UopMissRate(), mb.UopMissRate())
	}
}

func TestFrontendAblationsRun(t *testing.T) {
	// Every feature flag combination must run to completion and conserve
	// uops.
	s := xbcTestStream(t, 8, 60_000)
	mutations := []func(*Config){
		func(c *Config) { c.Promotion = false },
		func(c *Config) { c.ComplexXB = false },
		func(c *Config) { c.SetSearch = false },
		func(c *Config) { c.SmartPlacement = false },
		func(c *Config) { c.DynamicPlacement = false },
		func(c *Config) { c.XBsPerCycle = 1 },
		func(c *Config) { c.Banks, c.BankUops = 2, 8 },
		func(c *Config) { c.Banks, c.BankUops = 8, 2 },
	}
	for i, mut := range mutations {
		cfg := DefaultConfig(8 * 1024)
		mut(&cfg)
		fe := New(cfg, frontend.DefaultConfig())
		m := frontend.Run(fe, s)
		if m.DeliveredUops+m.BuildUops != m.Uops || m.Uops != s.Uops() {
			t.Fatalf("ablation %d does not conserve uops", i)
		}
	}
}

func TestPromotionImprovesBandwidthOrNeutral(t *testing.T) {
	// Promotion merges blocks, lengthening fetch units; bandwidth should
	// not collapse when it is enabled.
	s := xbcTestStream(t, 9, 150_000)
	on := DefaultConfig(32 * 1024)
	off := on
	off.Promotion = false
	mOn := frontend.Run(New(on, frontend.DefaultConfig()), s)
	mOff := frontend.Run(New(off, frontend.DefaultConfig()), s)
	if mOn.Bandwidth() < 0.8*mOff.Bandwidth() {
		t.Fatalf("promotion collapsed bandwidth: %.2f vs %.2f", mOn.Bandwidth(), mOff.Bandwidth())
	}
}

func TestDualFetchImprovesBandwidth(t *testing.T) {
	s := xbcTestStream(t, 10, 150_000)
	dual := DefaultConfig(32 * 1024)
	single := dual
	single.XBsPerCycle = 1
	mDual := frontend.Run(New(dual, frontend.DefaultConfig()), s)
	mSingle := frontend.Run(New(single, frontend.DefaultConfig()), s)
	// With an 8-wide renamer the ceiling often binds both configurations;
	// dual fetch must never be materially slower, and its fetch-cycle
	// count must be lower.
	if mDual.Bandwidth() < 0.95*mSingle.Bandwidth() {
		t.Fatalf("dual fetch materially slower than single: %.2f vs %.2f",
			mDual.Bandwidth(), mSingle.Bandwidth())
	}
	if mDual.DeliveryFetches >= mSingle.DeliveryFetches {
		t.Fatalf("dual fetch did not reduce fetch cycles: %d vs %d",
			mDual.DeliveryFetches, mSingle.DeliveryFetches)
	}
}

func TestFrontendName(t *testing.T) {
	fe := New(DefaultConfig(8*1024), frontend.DefaultConfig())
	if fe.Name() != "xbc" {
		t.Fatalf("name = %q", fe.Name())
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	bad := DefaultConfig(8 * 1024)
	bad.Quota = 5
	New(bad, frontend.DefaultConfig())
}

func TestOracleMode(t *testing.T) {
	// Oracle prediction: no misprediction penalties, bandwidth at (or
	// near) the renamer limit, and uops still conserved.
	s := xbcTestStream(t, 11, 150_000)
	cfg := DefaultConfig(32 * 1024)
	cfg.Oracle = true
	m := frontend.Run(New(cfg, frontend.DefaultConfig()), s)
	if m.Uops != s.Uops() || m.DeliveredUops+m.BuildUops != m.Uops {
		t.Fatal("oracle mode does not conserve uops")
	}
	base := DefaultConfig(32 * 1024)
	mb := frontend.Run(New(base, frontend.DefaultConfig()), s)
	if m.UopMissRate() > mb.UopMissRate() {
		t.Fatalf("oracle misses more than baseline: %.2f vs %.2f",
			m.UopMissRate(), mb.UopMissRate())
	}
	if m.Bandwidth() < mb.Bandwidth() {
		t.Fatalf("oracle bandwidth %.2f below baseline %.2f", m.Bandwidth(), mb.Bandwidth())
	}
	if m.Bandwidth() < 7 {
		t.Fatalf("oracle bandwidth %.2f should approach the renamer limit", m.Bandwidth())
	}
}

func TestXBsPerCycleFour(t *testing.T) {
	s := xbcTestStream(t, 12, 100_000)
	cfg := DefaultConfig(32 * 1024)
	cfg.XBsPerCycle = 4
	m4 := frontend.Run(New(cfg, frontend.DefaultConfig()), s)
	if m4.Uops != s.Uops() {
		t.Fatal("4-wide fetch does not conserve uops")
	}
	cfg1 := DefaultConfig(32 * 1024)
	cfg1.XBsPerCycle = 1
	m1 := frontend.Run(New(cfg1, frontend.DefaultConfig()), s)
	if m4.DeliveryFetches >= m1.DeliveryFetches {
		t.Fatalf("wider fetch did not reduce fetch cycles: %d vs %d",
			m4.DeliveryFetches, m1.DeliveryFetches)
	}
}
