package bbtc

import (
	"testing"

	"xbc/internal/frontend"
	"xbc/internal/program"
	"xbc/internal/trace"
)

func testStream(t *testing.T, seed int64, uops uint64) *trace.Stream {
	t.Helper()
	spec := program.DefaultSpec("bbtc-test", seed)
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
		{BlockSets: 3, BlockWays: 4, BlockUops: 8, TraceSets: 4, TraceWays: 4, PtrsPerTrace: 4},
		{BlockSets: 4, BlockWays: 0, BlockUops: 8, TraceSets: 4, TraceWays: 4, PtrsPerTrace: 4},
		{BlockSets: 4, BlockWays: 4, BlockUops: 8, TraceSets: 3, TraceWays: 4, PtrsPerTrace: 4},
		{BlockSets: 4, BlockWays: 4, BlockUops: 8, TraceSets: 4, TraceWays: 4, PtrsPerTrace: 0},
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
		t.Fatalf("conservation broken: %d+%d vs %d (stream %d)",
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
	if a.DeliveredUops != b.DeliveredUops || a.StructMisses != b.StructMisses {
		t.Fatal("non-deterministic run")
	}
}

func TestPointerRedundancyReported(t *testing.T) {
	// The BBTC's design point: redundancy lives in pointers, while each
	// block's uops are stored once. Pointer redundancy should exceed 1 on
	// a branchy stream.
	s := testStream(t, 5, 120_000)
	m := frontend.Run(New(DefaultConfig(32*1024), frontend.DefaultConfig()), s)
	pr, ok := m.Extra["pointer_redundancy"]
	if !ok {
		t.Fatal("pointer redundancy not reported")
	}
	if pr < 1 {
		t.Fatalf("pointer redundancy %v < 1", pr)
	}
}

// TestTinyCacheTerminates is the regression test for the delivery/rebuild
// livelock: with a tiny block cache, pointer traces frequently reference
// evicted blocks; the frontend must still make progress.
func TestTinyCacheTerminates(t *testing.T) {
	s := testStream(t, 6, 50_000)
	cfg := Config{BlockSets: 2, BlockWays: 1, BlockUops: 8, TraceSets: 16, TraceWays: 4, PtrsPerTrace: 4}
	m := frontend.Run(New(cfg, frontend.DefaultConfig()), s)
	if m.Uops != s.Uops() {
		t.Fatalf("did not consume the whole stream: %d vs %d", m.Uops, s.Uops())
	}
}

func TestSmallerCacheMissesMore(t *testing.T) {
	s := testStream(t, 7, 120_000)
	small := frontend.Run(New(DefaultConfig(2*1024), frontend.DefaultConfig()), s)
	big := frontend.Run(New(DefaultConfig(64*1024), frontend.DefaultConfig()), s)
	if small.UopMissRate() <= big.UopMissRate() {
		t.Fatalf("2K (%.2f%%) should miss more than 64K (%.2f%%)",
			small.UopMissRate(), big.UopMissRate())
	}
}

func TestName(t *testing.T) {
	if New(DefaultConfig(1024), frontend.DefaultConfig()).Name() != "bbtc" {
		t.Fatal("name")
	}
}
