// Package workload defines the 21 named synthetic workloads standing in
// for the paper's 21 proprietary Intel traces: 8 SPECint95-flavoured, 8
// SYSmark32-for-Windows-95-flavoured, and 5 game-flavoured programs.
//
// The suites differ the way the real ones do from a frontend's point of
// view: SPECint is loop-dominated with a moderate code footprint; SYSmark
// mixes application and OS-like activity over a much larger footprint with
// heavy call/indirect traffic; games sit in between with very hot inner
// loops. Per-workload jitter (seeded by the workload index) keeps the 21
// programs distinct while staying inside the suite's envelope.
package workload

import (
	"fmt"
	"math/rand"

	"xbc/internal/program"
)

// Suite identifies one of the paper's three trace suites.
type Suite int

const (
	SPECint Suite = iota
	SYSmark
	Games
)

// String returns the suite name as used in the paper.
func (s Suite) String() string {
	switch s {
	case SPECint:
		return "SPECint95"
	case SYSmark:
		return "SYSmark32"
	case Games:
		return "Games"
	default:
		return fmt.Sprintf("suite(%d)", int(s))
	}
}

// Workload names one synthetic trace and the spec that generates it.
type Workload struct {
	Name  string
	Suite Suite
	Spec  program.Spec
}

var specNames = []string{"go", "m88ksim", "gcc", "compress", "li", "ijpeg", "perl", "vortex"}
var sysNames = []string{"word", "excel", "powerpnt", "corel", "pagemkr", "paradox", "freelnc", "quattro"}
var gameNames = []string{"quake", "doom", "hexen", "duke3d", "descent"}

// All returns the 21 workloads in suite order (8 SPECint, 8 SYSmark, 5
// Games). The result is freshly built on each call; specs are value types
// so callers may tweak them freely.
func All() []Workload {
	var out []Workload
	for i, n := range specNames {
		out = append(out, Workload{Name: n, Suite: SPECint, Spec: specintSpec(n, i)})
	}
	for i, n := range sysNames {
		out = append(out, Workload{Name: n, Suite: SYSmark, Spec: sysmarkSpec(n, i)})
	}
	for i, n := range gameNames {
		out = append(out, Workload{Name: n, Suite: Games, Spec: gamesSpec(n, i)})
	}
	return out
}

// ByName returns the named workload, or false when unknown.
func ByName(name string) (Workload, bool) {
	for _, w := range All() {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// Names returns all 21 workload names in order.
func Names() []string {
	var out []string
	for _, w := range All() {
		out = append(out, w.Name)
	}
	return out
}

// jitter returns a deterministic multiplier in [1-amp, 1+amp] for the
// given workload identity and parameter slot.
func jitter(seed int64, slot int, amp float64) float64 {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(slot)))
	return 1 + amp*(2*rng.Float64()-1)
}

func scaleInt(v int, m float64) int {
	out := int(float64(v)*m + 0.5)
	if out < 1 {
		out = 1
	}
	return out
}

// specintSpec: loop-dominated integer codes, moderate footprint
// (~30-60K static uops), strongly biased branch population.
func specintSpec(name string, i int) program.Spec {
	seed := int64(101 + i)
	s := program.DefaultSpec(name, seed)
	s.Functions = scaleInt(650, jitter(seed, 0, 0.35))
	s.BlocksPerFunc = [2]int{5, 26}
	s.InstsPerBlock = [2]int{1, 8}
	s.UopWeights = [4]float64{0.72, 0.18, 0.07, 0.03}
	s.WCond, s.WJump, s.WCall = 0.60, 0.09, 0.14
	s.WIndJump, s.WIndCall, s.WReturn = 0.012, 0.008, 0.135
	s.LoopFrac = 0.42 * jitter(seed, 1, 0.2)
	s.MonotonicFrac = 0.24 * jitter(seed, 2, 0.25)
	s.PatternFrac = 0.16
	s.BiasSpread = 0.70
	s.LoopTrip = [2]int{2, 10}
	s.LongLoopFrac = 0.10
	s.LongLoopTrip = [2]int{128, 384}
	s.IndTargets = [2]int{2, 6}
	s.IndSkew = 0.85
	s.HotFrac, s.HotProb = 0.40, 0.55
	s.Interleave = 6
	return s
}

// sysmarkSpec: productivity applications plus OS activity — large
// footprint (~120-220K static uops), call- and indirect-heavy, flatter
// biases, more phases.
func sysmarkSpec(name string, i int) program.Spec {
	seed := int64(201 + i)
	s := program.DefaultSpec(name, seed)
	s.Functions = scaleInt(2000, jitter(seed, 0, 0.3))
	s.BlocksPerFunc = [2]int{4, 22}
	s.InstsPerBlock = [2]int{1, 8}
	s.UopWeights = [4]float64{0.68, 0.20, 0.08, 0.04}
	s.WCond, s.WJump, s.WCall = 0.52, 0.11, 0.19
	s.WIndJump, s.WIndCall, s.WReturn = 0.02, 0.018, 0.11
	s.LoopFrac = 0.28 * jitter(seed, 1, 0.2)
	s.MonotonicFrac = 0.18 * jitter(seed, 2, 0.25)
	s.PatternFrac = 0.12
	s.BiasSpread = 0.55
	s.LoopTrip = [2]int{2, 8}
	s.LongLoopFrac = 0.06
	s.LongLoopTrip = [2]int{128, 256}
	s.IndTargets = [2]int{2, 10}
	s.IndSkew = 0.75
	s.HotFrac, s.HotProb = 0.45, 0.45
	s.Interleave = 8
	return s
}

// gamesSpec: engine loops with hot math/render kernels — mid footprint
// (~50-110K static uops), very hot function subset, longer blocks.
func gamesSpec(name string, i int) program.Spec {
	seed := int64(301 + i)
	s := program.DefaultSpec(name, seed)
	s.Functions = scaleInt(900, jitter(seed, 0, 0.3))
	s.BlocksPerFunc = [2]int{5, 24}
	s.InstsPerBlock = [2]int{2, 10}
	s.UopWeights = [4]float64{0.70, 0.19, 0.08, 0.03}
	s.WCond, s.WJump, s.WCall = 0.56, 0.09, 0.16
	s.WIndJump, s.WIndCall, s.WReturn = 0.015, 0.012, 0.14
	s.LoopFrac = 0.45 * jitter(seed, 1, 0.2)
	s.MonotonicFrac = 0.26 * jitter(seed, 2, 0.25)
	s.PatternFrac = 0.13
	s.BiasSpread = 0.72
	s.LoopTrip = [2]int{2, 12}
	s.LongLoopFrac = 0.12
	s.LongLoopTrip = [2]int{128, 512}
	s.IndTargets = [2]int{2, 8}
	s.IndSkew = 0.80
	s.HotFrac, s.HotProb = 0.35, 0.65
	s.Interleave = 4
	return s
}
