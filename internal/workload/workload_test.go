package workload

import (
	"testing"

	"xbc/internal/isa"
	"xbc/internal/program"
	"xbc/internal/trace"
)

// bySuite returns the workloads of one suite.
func bySuite(s Suite) []Workload {
	var out []Workload
	for _, w := range All() {
		if w.Suite == s {
			out = append(out, w)
		}
	}
	return out
}

func mustBuild(t *testing.T, spec program.Spec) *program.Program {
	t.Helper()
	p, err := program.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestSuiteComposition(t *testing.T) {
	all := All()
	if len(all) != 21 {
		t.Fatalf("workloads = %d, want 21", len(all))
	}
	counts := map[Suite]int{}
	for _, w := range all {
		counts[w.Suite]++
	}
	if counts[SPECint] != 8 || counts[SYSmark] != 8 || counts[Games] != 5 {
		t.Fatalf("suite sizes: %v (paper: 8 SPECint, 8 SYSmark, 5 games)", counts)
	}
}

func TestNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, n := range Names() {
		if seen[n] {
			t.Fatalf("duplicate workload name %q", n)
		}
		seen[n] = true
	}
	if len(seen) != 21 {
		t.Fatalf("names = %d", len(seen))
	}
}

func TestByName(t *testing.T) {
	w, ok := ByName("gcc")
	if !ok || w.Name != "gcc" || w.Suite != SPECint {
		t.Fatalf("ByName(gcc) = %+v, %v", w, ok)
	}
	if _, ok := ByName("nonesuch"); ok {
		t.Fatal("phantom workload")
	}
}

// TestTablesHandOutCopies changes every workload each accessor returns and
// checks that later lookups still see the workloads as defined: callers
// may tweak what they are handed.
func TestTablesHandOutCopies(t *testing.T) {
	want, _ := ByName("gcc")
	wantMicro, _ := MicroByName("loopnest")
	mutate := func(ws ...Workload) {
		for i := range ws {
			ws[i].Name = "changed"
			ws[i].Spec.Seed++
			ws[i].Spec.LoopTrip[1]++
		}
	}
	mutate(All()...)
	mutate(Micro()...)
	Names()[2] = "changed"

	if got, ok := ByName("gcc"); !ok || got != want {
		t.Fatalf("ByName(gcc) after changing returned copies = %+v, want %+v", got, want)
	}
	if got, ok := MicroByName("loopnest"); !ok || got != wantMicro {
		t.Fatalf("MicroByName(loopnest) after changing returned copies = %+v, want %+v", got, wantMicro)
	}
	if got := Names()[2]; got != "gcc" {
		t.Fatalf("Names()[2] = %q after changing a returned copy", got)
	}
}

func TestBySuite(t *testing.T) {
	if got := len(bySuite(Games)); got != 5 {
		t.Fatalf("games = %d", got)
	}
}

func TestSuiteString(t *testing.T) {
	if SPECint.String() != "SPECint95" || SYSmark.String() != "SYSmark32" || Games.String() != "Games" {
		t.Fatal("suite names wrong")
	}
	if Suite(9).String() != "suite(9)" {
		t.Fatal("unknown suite string")
	}
}

func TestAllSpecsValidateAndBuild(t *testing.T) {
	for _, w := range All() {
		if err := w.Spec.Validate(); err != nil {
			t.Errorf("%s: %v", w.Name, err)
			continue
		}
		if _, err := program.Build(w.Spec); err != nil {
			t.Errorf("%s: build: %v", w.Name, err)
		}
	}
}

func TestSpecsAreDistinct(t *testing.T) {
	// Per-workload jitter must make the programs differ.
	seen := map[int]string{}
	for _, w := range All() {
		p := mustBuild(t, w.Spec)
		if prev, dup := seen[p.StaticUops()]; dup {
			t.Errorf("workloads %s and %s have identical static size %d", prev, w.Name, p.StaticUops())
		}
		seen[p.StaticUops()] = w.Name
	}
}

func TestSuiteFootprintOrdering(t *testing.T) {
	// SYSmark programs must have the largest code footprints (OS +
	// application), SPECint the smallest; this drives Figure 9's capacity
	// pressure.
	meanStatic := func(s Suite) float64 {
		var sum float64
		ws := bySuite(s)
		for _, w := range ws {
			sum += float64(mustBuild(t, w.Spec).StaticUops())
		}
		return sum / float64(len(ws))
	}
	spec, sys, games := meanStatic(SPECint), meanStatic(SYSmark), meanStatic(Games)
	if !(spec < games && games < sys) {
		t.Fatalf("footprint ordering violated: spec=%.0f games=%.0f sys=%.0f", spec, games, sys)
	}
}

func TestFigure1Calibration(t *testing.T) {
	// The generator must land near the paper's Figure 1 means: basic
	// block 7.7, XB 8.0, XB+promotion 10.0, dual XB 12.7 (+-25%
	// tolerance, averaged over a sample of workloads).
	if testing.Short() {
		t.Skip("calibration check is slow")
	}
	sample := []string{"go", "word", "quake", "li", "paradox"}
	var bb, xb, xp, dx float64
	for _, name := range sample {
		w, _ := ByName(name)
		s, err := trace.Generate(w.Spec, 200_000)
		if err != nil {
			t.Fatal(err)
		}
		bias := trace.MeasureBias(s)
		bb += trace.SegmentLengths(s, trace.BasicBlock, nil).Mean()
		xb += trace.SegmentLengths(s, trace.XB, nil).Mean()
		xp += trace.SegmentLengths(s, trace.XBPromoted, bias).Mean()
		dx += trace.SegmentLengths(s, trace.DualXB, nil).Mean()
	}
	n := float64(len(sample))
	bb, xb, xp, dx = bb/n, xb/n, xp/n, dx/n
	check := func(name string, got, want float64) {
		if got < want*0.75 || got > want*1.25 {
			t.Errorf("%s mean = %.2f, paper %.2f (outside +-25%%)", name, got, want)
		}
	}
	check("basic block", bb, 7.7)
	check("XB", xb, 8.0)
	check("XB+promotion", xp, 10.0)
	check("dual XB", dx, 12.7)
	if !(bb <= xb && xb <= xp) {
		t.Errorf("ordering violated: %.2f %.2f %.2f", bb, xb, xp)
	}
}

func TestMicroWorkloads(t *testing.T) {
	ms := Micro()
	if len(ms) != 5 {
		t.Fatalf("micro workloads = %d", len(ms))
	}
	seen := map[string]bool{}
	for _, w := range ms {
		if seen[w.Name] {
			t.Fatalf("duplicate micro name %q", w.Name)
		}
		seen[w.Name] = true
		if err := w.Spec.Validate(); err != nil {
			t.Errorf("%s: %v", w.Name, err)
			continue
		}
		if _, err := program.Build(w.Spec); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
	}
	if _, ok := MicroByName("loopnest"); !ok {
		t.Fatal("MicroByName failed")
	}
	if _, ok := MicroByName("nope"); ok {
		t.Fatal("phantom micro workload")
	}
}

func TestMicroWorkloadCharacters(t *testing.T) {
	// Each micro workload must actually exhibit its advertised character.
	get := func(name string) trace.Summary {
		w, _ := MicroByName(name)
		s, err := trace.Generate(w.Spec, 100_000)
		if err != nil {
			t.Fatal(err)
		}
		return trace.Summarize(s)
	}
	if sum := get("straightline"); sum.XBLen.Mean() < 9 {
		t.Errorf("straightline mean XB %.2f too short", sum.XBLen.Mean())
	}
	if sum := get("callheavy"); sum.ClassMix(isa.Call)+sum.ClassMix(isa.IndirectCall) < 0.05 {
		t.Errorf("callheavy call mix %.3f too low",
			sum.ClassMix(isa.Call)+sum.ClassMix(isa.IndirectCall))
	}
	if sum := get("switchheavy"); sum.ClassMix(isa.IndirectJump) < 0.02 {
		t.Errorf("switchheavy ijmp mix %.3f too low", sum.ClassMix(isa.IndirectJump))
	}
}
