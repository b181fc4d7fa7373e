package decoded

import (
	"testing"

	"xbc/internal/frontend"
	"xbc/internal/program"
	"xbc/internal/trace"
)

func testStream(t *testing.T, seed int64, uops uint64) *trace.Stream {
	t.Helper()
	spec := program.DefaultSpec("dec-test", seed)
	spec.Functions = 50
	s, err := trace.Generate(spec, uops)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestDefaultConfig(t *testing.T) {
	c := DefaultConfig(32 * 1024)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.UopCapacity() > 32*1024 {
		t.Fatalf("capacity %d exceeds budget", c.UopCapacity())
	}
	bad := []Config{
		{Sets: 0, Ways: 1, LineUops: 6},
		{Sets: 3, Ways: 1, LineUops: 6},
		{Sets: 4, Ways: 0, LineUops: 6},
		{Sets: 4, Ways: 1, LineUops: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestConservation(t *testing.T) {
	s := testStream(t, 3, 100_000)
	fe := New(DefaultConfig(16*1024), frontend.DefaultConfig())
	m := frontend.Run(fe, s)
	if m.Uops != s.Uops() || m.DeliveredUops+m.BuildUops != m.Uops {
		t.Fatalf("conservation broken: %d delivered + %d build vs %d total (stream %d)",
			m.DeliveredUops, m.BuildUops, m.Uops, s.Uops())
	}
	if m.Insts != uint64(s.Len()) {
		t.Fatalf("insts %d != %d", m.Insts, s.Len())
	}
}

func TestDeterministic(t *testing.T) {
	s := testStream(t, 4, 60_000)
	a := frontend.Run(New(DefaultConfig(8*1024), frontend.DefaultConfig()), s)
	b := frontend.Run(New(DefaultConfig(8*1024), frontend.DefaultConfig()), s)
	if a.DeliveredUops != b.DeliveredUops || a.BuildCycles != b.BuildCycles {
		t.Fatal("non-deterministic run")
	}
}

func TestFragmentationReported(t *testing.T) {
	s := testStream(t, 5, 80_000)
	m := frontend.Run(New(DefaultConfig(16*1024), frontend.DefaultConfig()), s)
	frag, ok := m.Extra["fragmentation"]
	if !ok {
		t.Fatal("fragmentation not reported")
	}
	// Section 2.2's point: a decoded cache fragments (lines cut at taken
	// transfers rarely fill all slots).
	if frag <= 0 || frag >= 1 {
		t.Fatalf("fragmentation = %v out of (0,1)", frag)
	}
}

func TestBandwidthBelowTraceCache(t *testing.T) {
	// The decoded cache supplies one consecutive run per cycle, so its
	// delivery bandwidth cannot exceed its line size.
	s := testStream(t, 6, 100_000)
	cfg := DefaultConfig(32 * 1024)
	m := frontend.Run(New(cfg, frontend.DefaultConfig()), s)
	if bw := m.Bandwidth(); bw > float64(cfg.LineUops) {
		t.Fatalf("bandwidth %.2f exceeds line size %d", bw, cfg.LineUops)
	}
}

func TestName(t *testing.T) {
	if New(DefaultConfig(1024), frontend.DefaultConfig()).Name() != "decoded" {
		t.Fatal("name")
	}
}
