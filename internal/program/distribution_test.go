package program

import (
	"math"
	"testing"

	"xbc/internal/isa"
)

// These tests validate the statistical properties the workload generator
// promises — the calibration the experiments rest on.

func buildBig(t *testing.T, seed int64) *Program {
	t.Helper()
	s := DefaultSpec("dist", seed)
	s.Functions = 200
	return mustBuild(s)
}

func TestUopWeightDistribution(t *testing.T) {
	p := buildBig(t, 3)
	counts := [isa.MaxUopsPerInst + 1]int{}
	total := 0
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Insts {
				counts[in.NumUops]++
				total++
			}
		}
	}
	// Spec weights 0.72/0.18/0.07/0.03 with sampling noise.
	want := []float64{0, 0.72, 0.18, 0.07, 0.03}
	for n := 1; n <= isa.MaxUopsPerInst; n++ {
		got := float64(counts[n]) / float64(total)
		if math.Abs(got-want[n]) > 0.03 {
			t.Errorf("%d-uop instructions: %.3f, want ~%.2f", n, got, want[n])
		}
	}
}

func TestInstructionSizeRange(t *testing.T) {
	p := buildBig(t, 4)
	var sum, n float64
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Insts {
				if in.Size < 1 || in.Size > 8 {
					t.Fatalf("instruction size %d out of x86-ish range", in.Size)
				}
				sum += float64(in.Size)
				n++
			}
		}
	}
	if mean := sum / n; mean < 3.0 || mean > 4.5 {
		t.Errorf("mean instruction size %.2f outside [3.0, 4.5]", mean)
	}
}

func TestTerminatorMix(t *testing.T) {
	p := buildBig(t, 5)
	classCounts := map[isa.Class]int{}
	total := 0
	for _, f := range p.Funcs[p.Spec.Interleave:] { // skip drivers
		for _, b := range f.Blocks {
			classCounts[b.Term().Class]++
			total++
		}
	}
	if classCounts[isa.CondBranch] == 0 || classCounts[isa.Return] == 0 ||
		classCounts[isa.Call] == 0 || classCounts[isa.Jump] == 0 {
		t.Fatalf("terminator classes missing: %v", classCounts)
	}
	// Conditional branches dominate, as configured.
	if frac := float64(classCounts[isa.CondBranch]) / float64(total); frac < 0.4 {
		t.Errorf("cond terminator fraction %.2f suspiciously low", frac)
	}
}

func TestBranchBehaviourPopulation(t *testing.T) {
	// The generator promises a bimodal bias population: most conditional
	// branches strongly lean one way. Measure dynamic outcomes per static
	// branch.
	p := buildBig(t, 6)
	w := NewWalker(p)
	taken := map[isa.Addr]int{}
	total := map[isa.Addr]int{}
	for i := 0; i < 400_000; i++ {
		d := w.Next()
		if d.Inst.Class == isa.CondBranch {
			total[d.Inst.IP]++
			if d.Taken {
				taken[d.Inst.IP]++
			}
		}
	}
	strong, weak, sampled := 0, 0, 0
	for ip, n := range total {
		if n < 50 {
			continue
		}
		sampled++
		bias := float64(taken[ip]) / float64(n)
		if bias < 0.15 || bias > 0.85 {
			strong++
		} else if bias > 0.35 && bias < 0.65 {
			weak++
		}
	}
	if sampled < 20 {
		t.Skipf("only %d branches sampled", sampled)
	}
	if frac := float64(strong) / float64(sampled); frac < 0.4 {
		t.Errorf("strongly biased branch fraction %.2f too low for realistic code", frac)
	}
}

func TestProgramsAreAddressDisjointFromSeed(t *testing.T) {
	// Different seeds must produce structurally different control flow,
	// not just relabelled copies: compare terminator class sequences.
	a := buildBig(t, 10)
	b := buildBig(t, 11)
	same, total := 0, 0
	for fi := 0; fi < len(a.Funcs) && fi < len(b.Funcs); fi++ {
		fa, fb := a.Funcs[fi], b.Funcs[fi]
		for bi := 0; bi < len(fa.Blocks) && bi < len(fb.Blocks); bi++ {
			total++
			if fa.Blocks[bi].Term().Class == fb.Blocks[bi].Term().Class {
				same++
			}
		}
	}
	if total == 0 {
		t.Fatal("nothing compared")
	}
	if frac := float64(same) / float64(total); frac > 0.9 {
		t.Errorf("programs from different seeds share %.0f%% of terminator structure", 100*frac)
	}
}
