package xbcore

import (
	"testing"
	"testing/quick"

	"xbc/internal/frontend"
	"xbc/internal/isa"
	"xbc/internal/trace"
)

func TestCommonReversePrefixProperty(t *testing.T) {
	f := func(a, b []uint64) bool {
		ua := make([]isa.UopID, len(a))
		ub := make([]isa.UopID, len(b))
		for i, v := range a {
			ua[i] = isa.UopID(v)
		}
		for i, v := range b {
			ub[i] = isa.UopID(v)
		}
		n := commonReversePrefix(ua, ub)
		if n > len(ua) || n > len(ub) {
			return false
		}
		for i := 0; i < n; i++ {
			if ua[i] != ub[i] {
				return false
			}
		}
		if n < len(ua) && n < len(ub) && ua[n] == ub[n] {
			return false // not maximal
		}
		// Symmetry.
		return commonReversePrefix(ub, ua) == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHeadLineEvictedFirst(t *testing.T) {
	// Section 3.10: the LRU stamp bias must make a XB's head line (the
	// highest order) age before its primary line, so partial entries keep
	// working after pressure.
	cfg := smallConfig()
	c, _ := NewCache(cfg)
	rseq := rseqFor(0x1000, 12) // 3 lines: orders 0,1,2
	id, _, _ := c.Insert(0x1000, rseq, 0)
	c.Fetch(0x1000, id, 12, rseq) // stamp with head-aging bias

	set := c.setOf(0x1000)
	var stamps [3]uint64
	vi := c.variantByID(c.entryOf(0x1000), id)
	refs := c.vrefs(vi)
	for o := 0; o < 3; o++ {
		ref := refs[o]
		stamps[o] = c.lineHdrs[c.lineIndex(set, int(ref.bank), int(ref.way))].stamp
	}
	if !(stamps[2] < stamps[1] && stamps[1] < stamps[0]) {
		t.Fatalf("head-line aging bias missing: stamps %v (order 2 must be oldest)", stamps)
	}
}

// promotionStream builds a stream where block A ends with an always-taken
// branch into block B: promotion must eventually merge them.
func promotionStream(iters int) *trace.Stream {
	s := &trace.Stream{Name: "prom"}
	for i := 0; i < iters; i++ {
		// A: 3 seq uops + always-taken branch to B.
		s.Recs = append(s.Recs,
			mkRec(0x100, isa.Seq, 3, false, 0),
			mkRec(0x104, isa.CondBranch, 1, true, 0x200),
			// B: 3 seq uops + loop branch back to A (alternating so it
			// never promotes).
			mkRec(0x200, isa.Seq, 3, false, 0),
			mkRec(0x204, isa.CondBranch, 1, true, 0x100),
		)
	}
	return s
}

func TestPromotionMergesBlocksEndToEnd(t *testing.T) {
	s := promotionStream(500)
	cfg := DefaultConfig(8 * 1024)
	fe := New(cfg, frontend.DefaultConfig())
	m := frontend.Run(fe, s)
	if m.Extra["promotions"] < 1 {
		t.Fatalf("monotonic branch never promoted: %+v", m.Extra)
	}
	// After promotion the merged block spans A+B (8 uops); the extension
	// path (case 2) must have fired when the combined block was stored.
	if m.Extra["extensions"] < 1 {
		t.Fatalf("combined XB never extended the existing one: %v", m.Extra["extensions"])
	}
	if m.Uops != s.Uops() {
		t.Fatal("conservation broken")
	}
}

func TestPromotionDisabledNeverMerges(t *testing.T) {
	s := promotionStream(500)
	cfg := DefaultConfig(8 * 1024)
	cfg.Promotion = false
	m := frontend.Run(New(cfg, frontend.DefaultConfig()), s)
	if m.Extra["promotions"] != 0 || m.Extra["prom_violations"] != 0 {
		t.Fatalf("promotion activity while disabled: %+v", m.Extra)
	}
}

func TestDeepCallChainStream(t *testing.T) {
	// A call chain deeper than the XRSB must still simulate correctly
	// (returns beyond the stack depth mispredict, nothing breaks).
	s := &trace.Stream{Name: "deep"}
	const depth = 24 // > XRSBDepth (16)
	// Calls down: f0 calls f1 calls f2 ...
	for d := 0; d < depth; d++ {
		base := isa.Addr(0x1000 * (d + 1))
		s.Recs = append(s.Recs,
			mkRec(base, isa.Seq, 2, false, 0),
			mkRec(base+8, isa.Call, 1, true, isa.Addr(0x1000*(d+2))),
		)
	}
	// Leaf body, then returns back up.
	leaf := isa.Addr(0x1000 * (depth + 1))
	s.Recs = append(s.Recs, mkRec(leaf, isa.Seq, 2, false, 0))
	retFrom := leaf + 8
	for d := depth - 1; d >= 0; d-- {
		// Return lands after the call at level d.
		target := isa.Addr(0x1000*(d+1)) + 8 + 4
		s.Recs = append(s.Recs, mkRec(retFrom, isa.Return, 1, true, target))
		s.Recs = append(s.Recs, mkRec(target, isa.Seq, 1, false, 0))
		if d > 0 {
			// Jump to the next return site to keep the walk well formed.
			s.Recs = append(s.Recs, mkRec(target+4, isa.Jump, 1, true, isa.Addr(0x1000*(d))+8+4+8))
			retFrom = isa.Addr(0x1000*(d)) + 8 + 4 + 8
		}
	}
	m := frontend.Run(New(DefaultConfig(8*1024), frontend.DefaultConfig()), s)
	if m.Uops != s.Uops() {
		t.Fatalf("deep chain broke conservation: %d vs %d", m.Uops, s.Uops())
	}
	if m.RetExec == 0 {
		t.Fatal("no returns executed")
	}
}

func TestQuotaChainStream(t *testing.T) {
	// A long straight-line loop whose period is a multiple of the quota:
	// cuts land identically every iteration, so after the first pass the
	// Seq-block pointer chain must keep delivery alive.
	s := &trace.Stream{Name: "straight"}
	for rep := 0; rep < 50; rep++ {
		ip := isa.Addr(0x100)
		for i := 0; i < 39; i++ {
			r := mkRec(ip, isa.Seq, 2, false, 0)
			s.Recs = append(s.Recs, r)
			ip = r.FallThrough()
		}
		// 78 + 2 = 80 uops per iteration: 5 exact quota blocks.
		last := mkRec(ip, isa.Jump, 2, true, 0x100)
		s.Recs = append(s.Recs, last)
	}
	m := frontend.Run(New(DefaultConfig(8*1024), frontend.DefaultConfig()), s)
	if m.Uops != s.Uops() {
		t.Fatal("conservation broken")
	}
	if m.UopMissRate() > 5 {
		t.Fatalf("straight-line region misses %.1f%%: quota-cut pointer chain broken", m.UopMissRate())
	}
	if m.CondExec != 0 {
		t.Fatalf("phantom conditional branches: %d", m.CondExec)
	}
}

func TestQuotaAlignmentDrift(t *testing.T) {
	// When the loop period is NOT a multiple of the quota, cut positions
	// shift each iteration, multiplying the effective block population —
	// an inherent alignment sensitivity of quota-cut designs (the paper's
	// included). The cache must still converge once every alignment has
	// been built (period 81, quota 16 -> 16 alignments).
	s := &trace.Stream{Name: "drift"}
	const reps = 200
	for rep := 0; rep < reps; rep++ {
		ip := isa.Addr(0x100)
		for i := 0; i < 40; i++ {
			r := mkRec(ip, isa.Seq, 2, false, 0)
			s.Recs = append(s.Recs, r)
			ip = r.FallThrough()
		}
		s.Recs = append(s.Recs, mkRec(ip, isa.Jump, 1, true, 0x100)) // 81 uops
	}
	m := frontend.Run(New(DefaultConfig(16*1024), frontend.DefaultConfig()), s)
	// 16 alignments x 81 uops build once ~= 1296/16200 = 8%; allow slack.
	if m.UopMissRate() > 12 {
		t.Fatalf("alignment drift did not converge: %.1f%% misses", m.UopMissRate())
	}
	if m.UopMissRate() < 1 {
		t.Fatalf("drift test degenerate: %.2f%% misses (expected one build per alignment)", m.UopMissRate())
	}
}

func TestComplexXBEndToEnd(t *testing.T) {
	// The paper's case 3: two paths (via X or via Y) share the suffix S
	// and end at the same instruction. Both dynamic blocks must become
	// variants of one entry, share S's chunks, and both deliver.
	s := &trace.Stream{Name: "complex"}
	for i := 0; i < 400; i++ {
		viaX := i%2 == 0
		// P: dispatch block ending in an alternating branch.
		s.Recs = append(s.Recs, mkRec(0x100, isa.Seq, 2, false, 0))
		if viaX {
			s.Recs = append(s.Recs, mkRec(0x104, isa.CondBranch, 1, true, 0x200))
			// X: prefix, then jump to the shared suffix.
			s.Recs = append(s.Recs, mkRec(0x200, isa.Seq, 4, false, 0))
			s.Recs = append(s.Recs, mkRec(0x204, isa.Jump, 1, true, 0x400))
		} else {
			s.Recs = append(s.Recs, mkRec(0x104, isa.CondBranch, 1, false, 0))
			// Y (fallthrough): different prefix, same suffix.
			s.Recs = append(s.Recs, mkRec(0x108, isa.Seq, 3, false, 0))
			s.Recs = append(s.Recs, mkRec(0x10c, isa.Jump, 1, true, 0x400))
		}
		// S: shared suffix ending on a back branch to P.
		s.Recs = append(s.Recs, mkRec(0x400, isa.Seq, 4, false, 0))
		s.Recs = append(s.Recs, mkRec(0x404, isa.CondBranch, 1, true, 0x100))
	}
	cfg := DefaultConfig(8 * 1024)
	cfg.Promotion = false // keep the cut stable for this test
	m := frontend.Run(New(cfg, frontend.DefaultConfig()), s)
	if m.Extra["complex_xbs"] < 1 {
		t.Fatalf("case 3 never triggered: %+v", m.Extra)
	}
	// After warmup both variants deliver: misses should be the first
	// handful of blocks only.
	if m.UopMissRate() > 5 {
		t.Fatalf("complex XBs not delivering: %.2f%% miss", m.UopMissRate())
	}
	// Suffix sharing keeps redundancy near 1 even with two variants.
	if red := m.Extra["redundancy"]; red > 1.25 {
		t.Fatalf("suffix not shared: redundancy %.3f", red)
	}
}

func TestComplexXBDisabledRedundancy(t *testing.T) {
	// Same stream with ComplexXB disabled: variants stop sharing chunks,
	// so redundancy must be strictly higher than with sharing on.
	mk := func(complexOn bool) float64 {
		s := &trace.Stream{Name: "complex-off"}
		for i := 0; i < 400; i++ {
			viaX := i%2 == 0
			s.Recs = append(s.Recs, mkRec(0x100, isa.Seq, 2, false, 0))
			if viaX {
				s.Recs = append(s.Recs, mkRec(0x104, isa.CondBranch, 1, true, 0x200))
				s.Recs = append(s.Recs, mkRec(0x200, isa.Seq, 4, false, 0))
				s.Recs = append(s.Recs, mkRec(0x204, isa.Jump, 1, true, 0x400))
			} else {
				s.Recs = append(s.Recs, mkRec(0x104, isa.CondBranch, 1, false, 0))
				s.Recs = append(s.Recs, mkRec(0x108, isa.Seq, 3, false, 0))
				s.Recs = append(s.Recs, mkRec(0x10c, isa.Jump, 1, true, 0x400))
			}
			s.Recs = append(s.Recs, mkRec(0x400, isa.Seq, 4, false, 0))
			s.Recs = append(s.Recs, mkRec(0x404, isa.CondBranch, 1, true, 0x100))
		}
		cfg := DefaultConfig(8 * 1024)
		cfg.Promotion = false
		cfg.ComplexXB = complexOn
		return frontend.Run(New(cfg, frontend.DefaultConfig()), s).Extra["redundancy"]
	}
	on, off := mk(true), mk(false)
	if off <= on {
		t.Fatalf("disabling complex XBs should raise redundancy: on=%.3f off=%.3f", on, off)
	}
}
