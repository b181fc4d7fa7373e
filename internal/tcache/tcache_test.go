package tcache

import (
	"testing"

	"xbc/internal/frontend"
	"xbc/internal/isa"
	"xbc/internal/program"
	"xbc/internal/trace"
)

func testStream(t *testing.T, seed int64, uops uint64) *trace.Stream {
	t.Helper()
	spec := program.DefaultSpec("tc-test", seed)
	spec.Functions = 60
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
	if c.Ways != 4 || c.MaxUops != 16 || c.MaxBranches != 3 {
		t.Fatalf("not the paper's TC: %+v", c)
	}
	if c.UopCapacity() != 32*1024 {
		t.Fatalf("capacity = %d", c.UopCapacity())
	}
	if DefaultConfig(1).Sets != 1 {
		t.Fatal("tiny budget must clamp to one set")
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Sets: 0, Ways: 4, MaxUops: 16, MaxBranches: 3},
		{Sets: 3, Ways: 4, MaxUops: 16, MaxBranches: 3},
		{Sets: 4, Ways: 0, MaxUops: 16, MaxBranches: 3},
		{Sets: 4, Ways: 4, MaxUops: 0, MaxBranches: 3},
		{Sets: 4, Ways: 4, MaxUops: 16, MaxBranches: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func mkTI(ip isa.Addr, uops int, class isa.Class, taken bool) traceInst {
	return traceInst{ip: ip, numUops: uint8(uops), class: class, taken: taken}
}

func TestCacheInsertLookup(t *testing.T) {
	c, err := NewCache(Config{Sets: 4, Ways: 2, MaxUops: 16, MaxBranches: 3})
	if err != nil {
		t.Fatal(err)
	}
	insts := []traceInst{mkTI(0x100, 2, isa.Seq, false), mkTI(0x104, 1, isa.CondBranch, true)}
	c.Insert(0x100, insts)
	ln, ok := c.Lookup(0x100, nil)
	if !ok || ln.startIP != 0x100 || ln.uops != 3 {
		t.Fatalf("lookup failed: %+v %v", ln, ok)
	}
	if _, ok := c.Lookup(0x104, nil); ok {
		t.Fatal("mid-trace lookup hit (no path associativity by start IP)")
	}
}

func TestCacheSameStartReplaces(t *testing.T) {
	// No path associativity: a second trace with the same start IP
	// replaces the first.
	c, _ := NewCache(Config{Sets: 4, Ways: 2, MaxUops: 16, MaxBranches: 3})
	c.Insert(0x100, []traceInst{mkTI(0x100, 2, isa.Seq, false), mkTI(0x104, 1, isa.CondBranch, true)})
	c.Insert(0x100, []traceInst{mkTI(0x100, 2, isa.Seq, false), mkTI(0x104, 1, isa.CondBranch, false), mkTI(0x108, 4, isa.Seq, false)})
	ln, ok := c.Lookup(0x100, nil)
	if !ok || ln.uops != 7 {
		t.Fatalf("replacement failed: %+v", ln)
	}
	// Only one copy of 0x100 exists.
	count := 0
	for i := range c.lines {
		if c.lines[i].valid && c.lines[i].startIP == 0x100 {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("%d copies of the same start IP", count)
	}
}

func TestRedundancyAccounting(t *testing.T) {
	c, _ := NewCache(Config{Sets: 1, Ways: 4, MaxUops: 16, MaxBranches: 3})
	// Two traces sharing instruction 0x104.
	c.Insert(0x100, []traceInst{mkTI(0x100, 2, isa.Seq, false), mkTI(0x104, 2, isa.Seq, false)})
	c.Insert(0x104, []traceInst{mkTI(0x104, 2, isa.Seq, false), mkTI(0x108, 2, isa.Seq, false)})
	// 0x104 stored twice, 0x100/0x108 once: redundancy = 4 copies / 3
	// distinct.
	want := 4.0 / 3.0
	if got := c.Redundancy(); got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("redundancy = %v, want %v", got, want)
	}
	// Evicting (by replacement) must decrement counts.
	c.Insert(0x100, []traceInst{mkTI(0x100, 2, isa.Seq, false)})
	want = 1.0
	if got := c.Redundancy(); got != want {
		t.Fatalf("redundancy after replace = %v, want %v", got, want)
	}
}

func TestFragmentation(t *testing.T) {
	c, _ := NewCache(Config{Sets: 1, Ways: 4, MaxUops: 16, MaxBranches: 3})
	if c.Fragmentation() != 0 {
		t.Fatal("empty cache fragmentation")
	}
	c.Insert(0x100, []traceInst{mkTI(0x100, 4, isa.Seq, false)}) // 4/16 used
	if f := c.Fragmentation(); f != 0.75 {
		t.Fatalf("fragmentation = %v, want 0.75", f)
	}
}

func TestFrontendConservation(t *testing.T) {
	s := testStream(t, 3, 120_000)
	fe := New(DefaultConfig(16*1024), frontend.DefaultConfig())
	m := frontend.Run(fe, s)
	if m.Uops != s.Uops() {
		t.Fatalf("uops %d != stream %d", m.Uops, s.Uops())
	}
	if m.DeliveredUops+m.BuildUops != m.Uops {
		t.Fatalf("delivered+build != total")
	}
	if m.Insts != uint64(s.Len()) {
		t.Fatalf("insts %d != %d", m.Insts, s.Len())
	}
}

func TestFrontendDeterministic(t *testing.T) {
	s := testStream(t, 4, 80_000)
	a := frontend.Run(New(DefaultConfig(16*1024), frontend.DefaultConfig()), s)
	b := frontend.Run(New(DefaultConfig(16*1024), frontend.DefaultConfig()), s)
	if a.DeliveredUops != b.DeliveredUops || a.PenaltyCycles != b.PenaltyCycles {
		t.Fatal("non-deterministic TC run")
	}
}

func TestFrontendRedundancyAboveOne(t *testing.T) {
	// The motivating defect of the TC: single-entry traces replicate
	// uops. On any realistic stream redundancy must exceed 1.
	s := testStream(t, 5, 150_000)
	fe := New(DefaultConfig(32*1024), frontend.DefaultConfig())
	m := frontend.Run(fe, s)
	if red := m.Extra["redundancy"]; red < 1.2 {
		t.Fatalf("TC redundancy %.3f suspiciously low", red)
	}
}

func TestFrontendSmallerCacheMissesMore(t *testing.T) {
	s := testStream(t, 6, 150_000)
	small := frontend.Run(New(DefaultConfig(2*1024), frontend.DefaultConfig()), s)
	big := frontend.Run(New(DefaultConfig(64*1024), frontend.DefaultConfig()), s)
	if small.UopMissRate() <= big.UopMissRate() {
		t.Fatalf("2K (%.2f%%) should miss more than 64K (%.2f%%)",
			small.UopMissRate(), big.UopMissRate())
	}
}

func TestTraceLimits(t *testing.T) {
	// Build traces from a hand-made stream and verify the 16-uop quota
	// and 3-branch limit by inspecting the cache contents.
	var recs []trace.Rec
	ip := isa.Addr(0x100)
	// 8 not-taken conditional branches in a row (1 uop each).
	for i := 0; i < 8; i++ {
		r := trace.Rec{IP: ip, Class: isa.CondBranch, NumUops: 1, Size: 4, Taken: false}
		r.Next = r.FallThrough()
		recs = append(recs, r)
		ip = r.FallThrough()
	}
	s := &trace.Stream{Name: "limits", Recs: recs}
	fe := New(Config{Sets: 4, Ways: 2, MaxUops: 16, MaxBranches: 3}, frontend.DefaultConfig())
	m := frontend.Run(fe, s)
	if m.Uops != 8 {
		t.Fatalf("uops = %d", m.Uops)
	}
	// The first trace must hold exactly 3 branches.
	c, _ := NewCache(Config{Sets: 4, Ways: 2, MaxUops: 16, MaxBranches: 3})
	_ = c
	// Indirectly: at least 3 traces were built (8 branches / 3 per trace).
	if m.StructMisses < 3 {
		t.Fatalf("struct misses = %d, want >= 3 (branch limit)", m.StructMisses)
	}
}

func TestName(t *testing.T) {
	if New(DefaultConfig(1024), frontend.DefaultConfig()).Name() != "tc" {
		t.Fatal("name")
	}
}

func TestPathAssocCoexistence(t *testing.T) {
	// With path associativity, two same-start traces with different
	// internal paths coexist; the predictor-driven lookup picks the
	// matching one.
	cfg := Config{Sets: 4, Ways: 2, MaxUops: 16, MaxBranches: 3, PathAssoc: true}
	c, _ := NewCache(cfg)
	taken := []traceInst{mkTI(0x100, 2, isa.Seq, false), mkTI(0x104, 1, isa.CondBranch, true), mkTI(0x300, 2, isa.Seq, false)}
	nottaken := []traceInst{mkTI(0x100, 2, isa.Seq, false), mkTI(0x104, 1, isa.CondBranch, false), mkTI(0x108, 2, isa.Seq, false)}
	c.Insert(0x100, taken)
	c.Insert(0x100, nottaken)
	count := 0
	for i := range c.lines {
		if c.lines[i].valid && c.lines[i].startIP == 0x100 {
			count++
		}
	}
	if count != 2 {
		t.Fatalf("path associativity stored %d traces, want 2", count)
	}
	predTaken := func(isa.Addr) bool { return true }
	predNot := func(isa.Addr) bool { return false }
	ln, ok := c.Lookup(0x100, predTaken)
	if !ok || !ln.insts[1].taken {
		t.Fatal("taken-path trace not selected")
	}
	ln, ok = c.Lookup(0x100, predNot)
	if !ok || ln.insts[1].taken {
		t.Fatal("not-taken-path trace not selected")
	}
}

func TestPathAssocSamePathReplaces(t *testing.T) {
	cfg := Config{Sets: 4, Ways: 4, MaxUops: 16, MaxBranches: 3, PathAssoc: true}
	c, _ := NewCache(cfg)
	a := []traceInst{mkTI(0x100, 2, isa.Seq, false), mkTI(0x104, 1, isa.CondBranch, true)}
	b := []traceInst{mkTI(0x100, 2, isa.Seq, false), mkTI(0x104, 1, isa.CondBranch, true), mkTI(0x300, 2, isa.Seq, false)}
	c.Insert(0x100, a)
	c.Insert(0x100, b) // same path prefix encoding: replaces, not duplicates
	count := 0
	for i := range c.lines {
		if c.lines[i].valid && c.lines[i].startIP == 0x100 {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("same-path insert duplicated: %d lines", count)
	}
}

func TestPathAssocFrontendRuns(t *testing.T) {
	s := testStream(t, 9, 100_000)
	cfg := DefaultConfig(16 * 1024)
	cfg.PathAssoc = true
	m := frontend.Run(New(cfg, frontend.DefaultConfig()), s)
	if m.Uops != s.Uops() || m.DeliveredUops+m.BuildUops != m.Uops {
		t.Fatal("path-assoc TC does not conserve uops")
	}
}
