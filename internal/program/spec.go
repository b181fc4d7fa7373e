// Package program synthesizes deterministic control-flow graphs and walks
// them to produce dynamic instruction streams.
//
// The XBC paper evaluates on 21 proprietary Intel traces (30M x86
// instructions each). Those traces are unavailable, so this package builds
// the closest synthetic equivalent: seeded random programs — functions,
// loop nests, calls and returns, indirect switches, and conditional
// branches with calibrated behaviour mixes — that are then executed to
// yield dynamic streams with the same structural statistics the paper's
// figures depend on (basic-block/XB length distributions, branch bias
// population, code footprint vs. cache capacity).
//
// Everything is driven by a Spec and a seed; identical inputs produce
// bit-identical programs and streams.
package program

import "fmt"

// Spec parameterizes a synthetic program. The zero value is not usable;
// start from one of the workload suite constructors (package workload) or
// from DefaultSpec.
type Spec struct {
	Name string // human-readable workload name
	Seed int64  // master seed; all randomness derives from it

	// Static shape.
	Functions     int    // number of functions (function 0 is "main")
	BlocksPerFunc [2]int // [min,max] basic blocks per function
	InstsPerBlock [2]int // [min,max] non-terminator instructions per block

	// UopWeights[i] is the relative weight of an instruction decoding to
	// i+1 uops. IA-32 integer code is dominated by 1-uop instructions.
	UopWeights [4]float64

	// Terminator class mix (relative weights). Every block ends with
	// exactly one control-flow instruction drawn from this mix, except
	// that the builder forces structural terminators where needed (the
	// last block of a function always returns, leaf functions never
	// call).
	WCond, WJump, WCall, WIndJump, WIndCall, WReturn float64

	// Conditional branch behaviour mix.
	LoopFrac      float64 // fraction of back-edge candidates that become bounded loops
	MonotonicFrac float64 // fraction of forward branches that are >=99% biased (promotion fodder)
	PatternFrac   float64 // fraction of forward branches that follow a short repeating pattern
	// The remainder are Bernoulli with a per-branch bias drawn from a
	// symmetric Beta-like distribution shaped by BiasSpread: 0 pushes all
	// biases to 50/50, 1 spreads them toward the extremes.
	BiasSpread float64

	LoopTrip [2]int // [min,max] loop trip count for loop back edges

	// LongLoopFrac of loop back edges get a trip count from LongLoopTrip
	// instead of LoopTrip. Long loops are >=99% taken, making them
	// promotion candidates (section 3.8), as in real code.
	LongLoopFrac float64
	LongLoopTrip [2]int

	// Indirect control flow.
	IndTargets [2]int  // [min,max] distinct targets of an indirect jump
	IndSkew    float64 // Zipf-like skew of the indirect target distribution (0=uniform)

	// Call structure. Calls only target higher-numbered functions, so the
	// static call graph is a DAG and execution trivially terminates.
	HotFrac float64 // fraction of functions considered "hot"
	HotProb float64 // probability a call targets a hot function

	// Interleave controls how many independent "phases" the program has;
	// main cycles through phase entry functions, emulating an application
	// alternating between working sets. 1 = single phase.
	Interleave int
}

// DefaultSpec returns a mid-sized, SPECint-flavoured specification.
func DefaultSpec(name string, seed int64) Spec {
	return Spec{
		Name:          name,
		Seed:          seed,
		Functions:     48,
		BlocksPerFunc: [2]int{6, 24},
		InstsPerBlock: [2]int{2, 9},
		UopWeights:    [4]float64{0.72, 0.18, 0.07, 0.03},
		WCond:         0.58,
		WJump:         0.10,
		WCall:         0.16,
		WIndJump:      0.03,
		WIndCall:      0.02,
		WReturn:       0.11,
		LoopFrac:      0.35,
		MonotonicFrac: 0.22,
		PatternFrac:   0.15,
		BiasSpread:    0.65,
		LoopTrip:      [2]int{2, 40},
		LongLoopFrac:  0.12,
		LongLoopTrip:  [2]int{128, 1024},
		IndTargets:    [2]int{2, 8},
		IndSkew:       0.8,
		HotFrac:       0.25,
		HotProb:       0.75,
		Interleave:    1,
	}
}

// Validate reports the first structural problem with the spec, if any.
func (s Spec) Validate() error {
	switch {
	case s.Functions < 1:
		return fmt.Errorf("program: spec %q: need at least 1 function", s.Name)
	case s.BlocksPerFunc[0] < 1 || s.BlocksPerFunc[1] < s.BlocksPerFunc[0]:
		return fmt.Errorf("program: spec %q: bad BlocksPerFunc %v", s.Name, s.BlocksPerFunc)
	case s.InstsPerBlock[0] < 0 || s.InstsPerBlock[1] < s.InstsPerBlock[0]:
		return fmt.Errorf("program: spec %q: bad InstsPerBlock %v", s.Name, s.InstsPerBlock)
	case s.LoopTrip[0] < 1 || s.LoopTrip[1] < s.LoopTrip[0]:
		return fmt.Errorf("program: spec %q: bad LoopTrip %v", s.Name, s.LoopTrip)
	case s.LongLoopTrip[0] < 1 || s.LongLoopTrip[1] < s.LongLoopTrip[0]:
		return fmt.Errorf("program: spec %q: bad LongLoopTrip %v", s.Name, s.LongLoopTrip)
	case s.IndTargets[0] < 1 || s.IndTargets[1] < s.IndTargets[0]:
		return fmt.Errorf("program: spec %q: bad IndTargets %v", s.Name, s.IndTargets)
	case s.Interleave < 0:
		return fmt.Errorf("program: spec %q: bad Interleave %d", s.Name, s.Interleave)
	}
	sum := s.WCond + s.WJump + s.WCall + s.WIndJump + s.WIndCall + s.WReturn
	if sum <= 0 {
		return fmt.Errorf("program: spec %q: terminator weights sum to %v", s.Name, sum)
	}
	var uw float64
	for _, w := range s.UopWeights {
		if w < 0 {
			return fmt.Errorf("program: spec %q: negative uop weight", s.Name)
		}
		uw += w
	}
	if uw <= 0 {
		return fmt.Errorf("program: spec %q: uop weights sum to %v", s.Name, uw)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"LoopFrac", s.LoopFrac}, {"MonotonicFrac", s.MonotonicFrac},
		{"PatternFrac", s.PatternFrac}, {"BiasSpread", s.BiasSpread},
		{"LongLoopFrac", s.LongLoopFrac},
		{"HotFrac", s.HotFrac}, {"HotProb", s.HotProb}, {"IndSkew", s.IndSkew},
	} {
		if f.v < 0 || f.v > 1 {
			return fmt.Errorf("program: spec %q: %s=%v outside [0,1]", s.Name, f.name, f.v)
		}
	}
	if s.MonotonicFrac+s.PatternFrac > 1 {
		return fmt.Errorf("program: spec %q: MonotonicFrac+PatternFrac > 1", s.Name)
	}
	if end := s.worstCodeEnd(); end >= codeLimit {
		return fmt.Errorf("program: spec %q: worst-case code layout reaches %#x, past the 32-bit address space", s.Name, end)
	}
	return nil
}

// codeLimit is the size of the 32-bit address space (isa.Addr): every
// instruction, and the fallthrough of the last one, must lie below it.
const codeLimit = 1 << 32

// worstCodeEnd bounds from above where Build's layout can end: every
// function as large as a phase driver or a regular function can be,
// every instruction at its largest size, plus alignment, from codeBase.
// It saturates at codeLimit, so no product can overflow.
func (s Spec) worstCodeEnd() uint64 {
	regular := satMul(uint64(s.BlocksPerFunc[1]), uint64(s.InstsPerBlock[1])+1)
	perFunc := max(regular, (maxDriverCalls+2)*(maxDriverBody+1))
	perFunc = satMul(perFunc, maxInstSize) + funcAlign - 1
	return min(codeBase+satMul(uint64(s.Functions), perFunc), codeLimit)
}

// satMul is a*b, saturated at codeLimit.
func satMul(a, b uint64) uint64 {
	if a != 0 && b > codeLimit/a {
		return codeLimit
	}
	return min(a*b, codeLimit)
}
