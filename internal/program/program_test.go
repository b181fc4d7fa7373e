package program

import (
	"math"
	"testing"

	"xbc/internal/isa"
)

func testSpec(seed int64) Spec {
	s := DefaultSpec("test", seed)
	s.Functions = 40
	return s
}

func TestSpecValidate(t *testing.T) {
	if err := DefaultSpec("ok", 1).Validate(); err != nil {
		t.Fatalf("default spec invalid: %v", err)
	}
	mutations := []func(*Spec){
		func(s *Spec) { s.Functions = 0 },
		func(s *Spec) { s.BlocksPerFunc = [2]int{0, 4} },
		func(s *Spec) { s.BlocksPerFunc = [2]int{5, 4} },
		func(s *Spec) { s.InstsPerBlock = [2]int{-1, 4} },
		func(s *Spec) { s.LoopTrip = [2]int{0, 4} },
		func(s *Spec) { s.LongLoopTrip = [2]int{5, 4} },
		func(s *Spec) { s.IndTargets = [2]int{0, 4} },
		func(s *Spec) { s.Interleave = -1 },
		func(s *Spec) { s.WCond, s.WJump, s.WCall, s.WIndJump, s.WIndCall, s.WReturn = 0, 0, 0, 0, 0, 0 },
		func(s *Spec) { s.UopWeights = [4]float64{0, 0, 0, 0} },
		func(s *Spec) { s.UopWeights[0] = -1 },
		func(s *Spec) { s.LoopFrac = 1.5 },
		func(s *Spec) { s.MonotonicFrac, s.PatternFrac = 0.7, 0.7 },
	}
	for i, mut := range mutations {
		s := DefaultSpec("bad", 1)
		mut(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

// TestSpecValidateCodeLimit pins the 4 GiB limit on the worst-case code
// layout at its edge: one function of B one-instruction blocks ends at
// codeBase + 8B + 15 at worst, which is 2³²-1 for the largest B accepted.
func TestSpecValidateCodeLimit(t *testing.T) {
	const edge = (codeLimit - 1 - codeBase - (funcAlign - 1)) / maxInstSize
	spec := func(fns, blocks, insts int) Spec {
		s := DefaultSpec("huge", 1)
		s.Functions, s.BlocksPerFunc, s.InstsPerBlock = fns, [2]int{1, blocks}, [2]int{0, insts}
		return s
	}
	if err := spec(1, edge, 0).Validate(); err != nil {
		t.Fatalf("code ending at 2^32-1 rejected: %v", err)
	}
	for _, s := range []Spec{
		spec(1, edge+1, 0),                    // just over
		spec(2, edge/2+1, 0),                  // over through the function count
		spec(1, edge/2+1, 1),                  // over through the block length
		spec(math.MaxInt, math.MaxInt, 0),     // products that would overflow
		spec(1<<20, math.MaxInt, math.MaxInt), // an int64 of instructions per block
	} {
		if err := s.Validate(); err == nil {
			t.Errorf("functions %d, blocks %v, insts %v: accepted, worst end %#x", s.Functions, s.BlocksPerFunc, s.InstsPerBlock, s.worstCodeEnd())
		}
	}
}

// TestWorstCodeEndBounds checks the bound Validate relies on against real
// layouts, including ones in which phase drivers are the largest
// functions.
func TestWorstCodeEndBounds(t *testing.T) {
	tiny := DefaultSpec("tiny", 4)
	tiny.Functions, tiny.BlocksPerFunc, tiny.InstsPerBlock, tiny.Interleave = 12, [2]int{1, 1}, [2]int{0, 0}, 6
	specs := []Spec{tiny, DefaultSpec("default", 1)}
	for seed := int64(1); seed <= 4; seed++ {
		s := testSpec(seed)
		s.Interleave = int(seed)
		specs = append(specs, s)
	}
	for _, s := range specs {
		p := MustBuild(s)
		var end uint64
		for _, f := range p.Funcs {
			for _, b := range f.Blocks {
				last := b.Insts[len(b.Insts)-1]
				end = max(end, uint64(last.IP)+uint64(last.Size))
			}
		}
		if bound := s.worstCodeEnd(); end > bound {
			t.Errorf("%s (seed %d): code ends at %#x, past its bound %#x", s.Name, s.Seed, end, bound)
		}
	}
}

func TestBuildDeterministic(t *testing.T) {
	a := MustBuild(testSpec(7))
	b := MustBuild(testSpec(7))
	if a.StaticInsts() != b.StaticInsts() || a.StaticUops() != b.StaticUops() {
		t.Fatalf("same seed, different programs: %d/%d vs %d/%d",
			a.StaticInsts(), a.StaticUops(), b.StaticInsts(), b.StaticUops())
	}
	for fi := range a.Funcs {
		if len(a.Funcs[fi].Blocks) != len(b.Funcs[fi].Blocks) {
			t.Fatalf("func %d block count differs", fi)
		}
		for bi := range a.Funcs[fi].Blocks {
			ba, bb := a.Funcs[fi].Blocks[bi], b.Funcs[fi].Blocks[bi]
			if len(ba.Insts) != len(bb.Insts) {
				t.Fatalf("f%d b%d inst count differs", fi, bi)
			}
			for k := range ba.Insts {
				if ba.Insts[k] != bb.Insts[k] {
					t.Fatalf("f%d b%d inst %d differs", fi, bi, k)
				}
			}
		}
	}
}

func TestBuildSeedChangesProgram(t *testing.T) {
	a := MustBuild(testSpec(1))
	b := MustBuild(testSpec(2))
	if a.StaticUops() == b.StaticUops() && a.StaticInsts() == b.StaticInsts() {
		// Extremely unlikely unless the seed is ignored.
		t.Fatal("different seeds produced identical-size programs")
	}
}

func TestBuildValidates(t *testing.T) {
	p := MustBuild(testSpec(3))
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := Build(Spec{}); err == nil {
		t.Fatal("zero spec accepted")
	}
}

func TestBuildDAGProperty(t *testing.T) {
	p := MustBuild(testSpec(11))
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			if b.Callee != nil && b.Callee.ID <= f.ID {
				t.Fatalf("call graph cycle risk: f%d calls f%d", f.ID, b.Callee.ID)
			}
			for _, c := range b.IndFns {
				if c.ID <= f.ID {
					t.Fatalf("indirect call graph cycle risk: f%d -> f%d", f.ID, c.ID)
				}
			}
		}
	}
}

func TestBuildAddressesMonotonic(t *testing.T) {
	p := MustBuild(testSpec(5))
	var prevEnd isa.Addr
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Insts {
				if in.IP < prevEnd {
					t.Fatalf("overlapping instruction at %#x (prev end %#x)", in.IP, prevEnd)
				}
				prevEnd = in.FallThrough()
			}
		}
	}
}

func TestDriversExist(t *testing.T) {
	s := testSpec(9)
	s.Interleave = 3
	p := MustBuild(s)
	if len(p.PhaseEntries) != 3 {
		t.Fatalf("phase entries = %d, want 3", len(p.PhaseEntries))
	}
	for i, f := range p.PhaseEntries {
		if f.ID != i {
			t.Fatalf("phase entry %d is function %d", i, f.ID)
		}
		calls := 0
		for _, b := range f.Blocks {
			if b.Term().Class == isa.Call {
				calls++
			}
		}
		if calls < 5 {
			t.Fatalf("driver %d has only %d calls", i, calls)
		}
	}
}

func TestWalkerContinuity(t *testing.T) {
	p := MustBuild(testSpec(21))
	w := NewWalker(p)
	prev := w.Next()
	for i := 0; i < 50_000; i++ {
		cur := w.Next()
		if cur.Inst.IP != prev.NextIP {
			t.Fatalf("discontinuity at step %d: prev.Next=%#x cur.IP=%#x", i, prev.NextIP, cur.Inst.IP)
		}
		if cur.Inst.Class == isa.Seq && cur.NextIP != cur.Inst.FallThrough() {
			t.Fatalf("sequential inst with non-fallthrough successor at %#x", cur.Inst.IP)
		}
		prev = cur
	}
}

func TestWalkerResetReplaysIdentically(t *testing.T) {
	p := MustBuild(testSpec(33))
	w := NewWalker(p)
	const n = 20_000
	first := make([]DynInst, n)
	for i := range first {
		first[i] = w.Next()
	}
	w.Reset()
	for i := 0; i < n; i++ {
		if got := w.Next(); got != first[i] {
			t.Fatalf("replay diverged at %d: %+v vs %+v", i, got, first[i])
		}
	}
}

func TestWalkerMakesProgress(t *testing.T) {
	// The walker must keep producing instructions and eventually complete
	// phase iterations (no unbounded spinning in one loop).
	p := MustBuild(testSpec(55))
	w := NewWalker(p)
	for i := 0; i < 500_000 && w.Iterations() < 1; i++ {
		w.Next()
	}
	if w.Iterations() < 1 {
		t.Skip("no phase completed within 500k instructions; acceptable for loop-heavy seeds")
	}
	if w.Insts() == 0 || w.Uops() < w.Insts() {
		t.Fatalf("counts wrong: insts=%d uops=%d", w.Insts(), w.Uops())
	}
}

func TestWalkerStackBalanced(t *testing.T) {
	p := MustBuild(testSpec(77))
	w := NewWalker(p)
	maxDepth := 0
	for i := 0; i < 100_000; i++ {
		w.Next()
		if d := w.Depth(); d > maxDepth {
			maxDepth = d
		}
	}
	if maxDepth == 0 {
		t.Fatal("no calls executed in 100k instructions")
	}
	if maxDepth > p.Spec.Functions {
		t.Fatalf("call depth %d exceeds DAG bound %d", maxDepth, p.Spec.Functions)
	}
}

func TestBehaviors(t *testing.T) {
	l := NewLoop(3)
	want := []bool{true, true, false, true, true, false}
	for i, w := range want {
		if got := l.Next(); got != w {
			t.Fatalf("loop outcome %d = %v, want %v", i, got, w)
		}
	}
	l.Reset()
	if !l.Next() {
		t.Fatal("reset loop should start taken")
	}

	pt := NewPattern([]bool{true, false, false})
	got := []bool{pt.Next(), pt.Next(), pt.Next(), pt.Next()}
	if got[0] != true || got[1] != false || got[2] != false || got[3] != true {
		t.Fatalf("pattern sequence wrong: %v", got)
	}

	b1 := NewBiased(0.8, 42)
	b2 := NewBiased(0.8, 42)
	for i := 0; i < 100; i++ {
		if b1.Next() != b2.Next() {
			t.Fatal("same-seed biased behaviours diverged")
		}
	}
	b1.Reset()
	b3 := NewBiased(0.8, 42)
	for i := 0; i < 100; i++ {
		if b1.Next() != b3.Next() {
			t.Fatal("reset did not rewind biased behaviour")
		}
	}
}

func TestBiasedExtremes(t *testing.T) {
	hi := NewBiased(0.99, 7)
	taken := 0
	for i := 0; i < 1000; i++ {
		if hi.Next() {
			taken++
		}
	}
	if taken < 950 {
		t.Fatalf("0.99-biased behaviour only %d/1000 taken", taken)
	}
}

func TestChoosers(t *testing.T) {
	c := NewSkewedChooser(4, 0.9, 11)
	counts := make([]int, 4)
	for i := 0; i < 4000; i++ {
		tgt := c.NextTarget()
		if tgt < 0 || tgt >= 4 {
			t.Fatalf("target out of range: %d", tgt)
		}
		counts[tgt]++
	}
	if counts[0] <= counts[3] {
		t.Fatalf("skew not applied: %v", counts)
	}
	c.Reset()
	c2 := NewSkewedChooser(4, 0.9, 11)
	for i := 0; i < 100; i++ {
		if c.NextTarget() != c2.NextTarget() {
			t.Fatal("reset chooser diverged from fresh chooser")
		}
	}
}

func TestPhasedChooserRotates(t *testing.T) {
	base := NewSkewedChooser(3, 1.0, 5) // heavily favours target 0
	p := NewPhasedChooser(base, 3, 10)
	seen := map[int]int{}
	for i := 0; i < 300; i++ {
		seen[p.NextTarget()]++
	}
	if len(seen) < 2 {
		t.Fatalf("phased chooser never rotated: %v", seen)
	}
}
