package icfe

import (
	"testing"

	"xbc/internal/frontend"
	"xbc/internal/program"
	"xbc/internal/trace"
)

func testStream(t *testing.T, seed int64, uops uint64) *trace.Stream {
	t.Helper()
	spec := program.DefaultSpec("ic-test", seed)
	spec.Functions = 50
	s, err := trace.Generate(spec, uops)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestConservation(t *testing.T) {
	s := testStream(t, 3, 100_000)
	fe := New(frontend.DefaultConfig(), frontend.DefaultICConfig())
	m := frontend.Run(fe, s)
	if m.Uops != s.Uops() || m.DeliveredUops != m.Uops || m.BuildUops != 0 {
		t.Fatalf("IC accounting wrong: uops=%d delivered=%d build=%d stream=%d",
			m.Uops, m.DeliveredUops, m.BuildUops, s.Uops())
	}
	if m.Insts != uint64(s.Len()) {
		t.Fatalf("insts %d != %d", m.Insts, s.Len())
	}
}

func TestBandwidthLimited(t *testing.T) {
	// The IC frontend's defining weakness: one consecutive run per cycle,
	// bounded further by the decoder. Bandwidth must stay well under the
	// renamer width on branchy code.
	s := testStream(t, 4, 100_000)
	m := frontend.Run(New(frontend.DefaultConfig(), frontend.DefaultICConfig()), s)
	if bw := m.Bandwidth(); bw <= 0 || bw > 8 {
		t.Fatalf("bandwidth = %v", bw)
	}
	if bw := m.Bandwidth(); bw > 6 {
		t.Fatalf("IC bandwidth %.2f implausibly high for branchy code", bw)
	}
}

func TestICMissRateReported(t *testing.T) {
	s := testStream(t, 5, 60_000)
	m := frontend.Run(New(frontend.DefaultConfig(), frontend.DefaultICConfig()), s)
	if _, ok := m.Extra["ic_miss_rate"]; !ok {
		t.Fatal("ic miss rate missing")
	}
}

func TestDeterministic(t *testing.T) {
	s := testStream(t, 6, 60_000)
	a := frontend.Run(New(frontend.DefaultConfig(), frontend.DefaultICConfig()), s)
	b := frontend.Run(New(frontend.DefaultConfig(), frontend.DefaultICConfig()), s)
	if a.DeliveredUops != b.DeliveredUops || a.PenaltyCycles != b.PenaltyCycles {
		t.Fatal("non-deterministic run")
	}
}

func TestName(t *testing.T) {
	if New(frontend.DefaultConfig(), frontend.DefaultICConfig()).Name() != "ic" {
		t.Fatal("name")
	}
}

func TestMultiPortedICFasterThanSingle(t *testing.T) {
	s := testStream(t, 7, 120_000)
	one := frontend.Run(New(frontend.DefaultConfig(), frontend.DefaultICConfig()), s)
	two := frontend.Run(NewMultiPorted(frontend.DefaultConfig(), frontend.DefaultICConfig(), 2), s)
	if two.Uops != s.Uops() {
		t.Fatal("multi-ported IC dropped uops")
	}
	if two.Bandwidth() <= one.Bandwidth() {
		t.Fatalf("2-ported IC (%.2f) not faster than single (%.2f)", two.Bandwidth(), one.Bandwidth())
	}
	if two.DeliveryFetches >= one.DeliveryFetches {
		t.Fatal("2-ported IC did not reduce fetch cycles")
	}
	if got := NewMultiPorted(frontend.DefaultConfig(), frontend.DefaultICConfig(), 2).Name(); got != "ic:2port" {
		t.Fatalf("name = %q", got)
	}
	if got := NewMultiPorted(frontend.DefaultConfig(), frontend.DefaultICConfig(), 0).Name(); got != "ic" {
		t.Fatalf("clamped name = %q", got)
	}
}
