package program

import (
	"math/rand"

	"xbc/internal/isa"
)

// The layout Build produces, named so that Spec.Validate can bound it.
const (
	codeBase       = 0x1000 // address of the first instruction
	funcAlign      = 16     // every function starts on this boundary
	maxInstSize    = 8      // largest instruction pickSize draws, in bytes
	minDriverCalls = 28     // call blocks of a phase driver, at least...
	maxDriverCalls = 71     // ...and at most; two more blocks loop and return
	maxDriverBody  = 3      // most non-terminator instructions in a driver block
)

// Build synthesizes a Program from the spec. Identical specs produce
// identical programs. The construction maintains three termination
// invariants the Walker relies on:
//
//  1. unconditional direct jumps and indirect-jump targets are always
//     forward (to a later block of the same function),
//  2. conditional back edges carry bounded-loop or sub-unity-bias
//     behaviours, and
//  3. calls (direct and indirect) only target strictly higher-numbered
//     functions, so the static call graph is a DAG.
func Build(spec Spec) (*Program, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	p := &Program{Spec: spec, Funcs: make([]*Func, 0, spec.Functions)}

	// Pass 1: create functions and blocks with bodies but no wiring.
	for fi := 0; fi < spec.Functions; fi++ {
		nblocks := randRange(rng, spec.BlocksPerFunc)
		f := &Func{ID: fi, Blocks: make([]*Block, 0, nblocks)}
		for bi := 0; bi < nblocks; bi++ {
			body := randRange(rng, spec.InstsPerBlock)
			b := &Block{Fn: f, Index: bi, Insts: make([]isa.Inst, 0, body+1)}
			for j := 0; j < body; j++ {
				b.Insts = append(b.Insts, isa.Inst{
					Class:   isa.Seq,
					NumUops: pickUops(rng, spec.UopWeights),
					Size:    pickSize(rng),
				})
			}
			// Placeholder terminator; classified in pass 2.
			b.Insts = append(b.Insts, isa.Inst{
				Class:   isa.Return,
				NumUops: pickUops(rng, spec.UopWeights),
				Size:    pickSize(rng),
			})
			f.Blocks = append(f.Blocks, b)
		}
		p.Funcs = append(p.Funcs, f)
	}

	// Mark hot functions (never main).
	if spec.Functions > 1 {
		hotWant := int(spec.HotFrac * float64(spec.Functions-1))
		perm := rng.Perm(spec.Functions - 1)
		for i := 0; i < hotWant && i < len(perm); i++ {
			p.Funcs[perm[i]+1].Hot = true
		}
	}

	// The first Interleave functions are phase drivers: like a real main,
	// each loops over a sequence of calls into the rest of the program.
	// This keeps every phase walk substantial (a trivial entry function
	// would otherwise collapse the dynamic stream to a handful of
	// instructions) and spreads the dynamic footprint across the callees.
	nDrivers := spec.Interleave
	if nDrivers < 1 {
		nDrivers = 1
	}
	if nDrivers > spec.Functions-1 {
		nDrivers = spec.Functions - 1
	}
	if nDrivers < 1 {
		nDrivers = 0 // single-function program: no room for drivers
	}
	for fi := 0; fi < nDrivers; fi++ {
		rebuildAsDriver(rng, spec, p.Funcs[fi])
	}

	// Pass 2: classify terminators and wire control flow.
	for fi, f := range p.Funcs {
		if fi < nDrivers {
			wireDriver(rng, spec, p, f, nDrivers)
		} else {
			wireFunc(rng, spec, p, f)
		}
	}

	// Pass 3: assign addresses. Functions are laid out back to back,
	// funcAlign-aligned, in ID order; blocks in layout order. Spec.Validate
	// has checked that even the largest layout fits below 4 GiB.
	var cursor isa.Addr = codeBase
	for _, f := range p.Funcs {
		cursor = (cursor + funcAlign - 1) &^ (funcAlign - 1)
		for _, b := range f.Blocks {
			for j := range b.Insts {
				b.Insts[j].IP = cursor
				cursor += isa.Addr(b.Insts[j].Size)
			}
		}
	}
	// Pass 4: now that addresses exist, fill direct targets.
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			term := &b.Insts[len(b.Insts)-1]
			switch term.Class {
			case isa.CondBranch, isa.Jump:
				term.Target = b.TakenBlk.FirstIP()
			case isa.Call:
				term.Target = b.Callee.Entry().FirstIP()
			}
			p.staticInsts += len(b.Insts)
			p.staticUops += b.Uops()
		}
	}

	// Phase entries are the drivers (or function 0 for single-function
	// programs).
	if nDrivers == 0 {
		p.PhaseEntries = append(p.PhaseEntries, p.Funcs[0])
	}
	for i := 0; i < nDrivers; i++ {
		p.PhaseEntries = append(p.PhaseEntries, p.Funcs[i])
	}

	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// MustBuild is Build that panics on error; for tests and examples where the
// spec is a known-good literal.
func MustBuild(spec Spec) *Program {
	p, err := Build(spec)
	if err != nil {
		panic(err)
	}
	return p
}

// rebuildAsDriver replaces the function's blocks with a driver skeleton:
// a run of small call-site blocks, one loop back edge repeating the whole
// sequence a few times, and a final return.
func rebuildAsDriver(rng *rand.Rand, spec Spec, f *Func) {
	nCalls := minDriverCalls + rng.Intn(maxDriverCalls-minDriverCalls+1)
	f.Blocks = make([]*Block, 0, nCalls+2)
	for bi := 0; bi < nCalls+2; bi++ {
		body := 1 + rng.Intn(maxDriverBody)
		b := &Block{Fn: f, Index: bi, Insts: make([]isa.Inst, 0, body+1)}
		for j := 0; j < body; j++ {
			b.Insts = append(b.Insts, isa.Inst{
				Class:   isa.Seq,
				NumUops: pickUops(rng, spec.UopWeights),
				Size:    pickSize(rng),
			})
		}
		b.Insts = append(b.Insts, isa.Inst{
			Class:   isa.Return, // placeholder; wireDriver classifies
			NumUops: pickUops(rng, spec.UopWeights),
			Size:    pickSize(rng),
		})
		f.Blocks = append(f.Blocks, b)
	}
}

// wireDriver wires a phase driver: blocks 0..n-3 call into the program,
// block n-2 loops the sequence a few times, block n-1 returns.
func wireDriver(rng *rand.Rand, spec Spec, p *Program, f *Func, nDrivers int) {
	nblocks := len(f.Blocks)
	for bi, b := range f.Blocks {
		term := &b.Insts[len(b.Insts)-1]
		switch {
		case bi == nblocks-1:
			term.Class = isa.Return
		case bi == nblocks-2:
			term.Class = isa.CondBranch
			b.TakenBlk = f.Blocks[0]
			b.Behavior = NewLoop(2 + rng.Intn(5))
		default:
			term.Class = isa.Call
			// Spread callees over the non-driver ID space so the phase
			// touches a wide slice of the program.
			lo := nDrivers
			if f.ID+1 > lo {
				lo = f.ID + 1
			}
			b.Callee = p.Funcs[lo+rng.Intn(spec.Functions-lo)]
		}
	}
}

// wireFunc classifies every terminator of f and wires targets, behaviours
// and choosers.
func wireFunc(rng *rand.Rand, spec Spec, p *Program, f *Func) {
	nblocks := len(f.Blocks)
	isLeaf := f.ID >= spec.Functions-1
	for bi, b := range f.Blocks {
		term := &b.Insts[len(b.Insts)-1]
		if bi == nblocks-1 {
			term.Class = isa.Return
			continue
		}
		class := pickTerminator(rng, spec)
		// Apply structural constraints, degrading gracefully to a
		// conditional branch (always legal for non-final blocks).
		forward := nblocks - 1 - bi // blocks strictly after bi
		switch class {
		case isa.Call, isa.IndirectCall:
			if isLeaf {
				class = isa.CondBranch
			}
		case isa.Jump:
			if forward < 2 {
				// A jump to the immediately next block is a no-op in CFG
				// terms; require at least one block to skip.
				class = isa.CondBranch
			}
		case isa.IndirectJump:
			if forward < spec.IndTargets[0]+1 {
				class = isa.CondBranch
			}
		}
		term.Class = class
		switch class {
		case isa.CondBranch:
			wireCond(rng, spec, f, b, bi)
		case isa.Jump:
			// Forward, skipping at least the next block.
			t := bi + 2 + rng.Intn(nblocks-bi-2)
			b.TakenBlk = f.Blocks[t]
		case isa.Call:
			b.Callee = pickCallee(rng, spec, p, f)
		case isa.IndirectJump:
			k := randRange(rng, spec.IndTargets)
			if k > forward-1 {
				k = forward - 1
			}
			perm := rng.Perm(forward - 1) // candidate offsets bi+2..nblocks-1
			for i := 0; i < k; i++ {
				b.IndBlks = append(b.IndBlks, f.Blocks[bi+2+perm[i]])
			}
			if len(b.IndBlks) == 0 {
				b.IndBlks = append(b.IndBlks, f.Blocks[bi+1])
			}
			b.Chooser = newChooser(rng, spec, len(b.IndBlks))
		case isa.IndirectCall:
			// Real indirect call sites are mostly monomorphic: 1-3 live
			// callees with one strongly dominant.
			k := 1 + rng.Intn(3)
			seen := map[int]bool{}
			for i := 0; i < k; i++ {
				c := pickCallee(rng, spec, p, f)
				if !seen[c.ID] {
					seen[c.ID] = true
					b.IndFns = append(b.IndFns, c)
				}
			}
			b.Chooser = NewSkewedChooser(len(b.IndFns), 0.93, rng.Int63())
		case isa.Return:
			// Early return; nothing to wire.
		}
	}
}

// wireCond wires a conditional branch for block bi of f: picks the taken
// target (possibly a back edge) and attaches an outcome behaviour.
func wireCond(rng *rand.Rand, spec Spec, f *Func, b *Block, bi int) {
	nblocks := len(f.Blocks)
	const backEdgeProb = 0.22
	if bi > 0 && rng.Float64() < backEdgeProb {
		// Back edge: loop to an earlier (or this) block.
		b.TakenBlk = f.Blocks[rng.Intn(bi+1)]
		if rng.Float64() < spec.LoopFrac {
			trips := spec.LoopTrip
			if rng.Float64() < spec.LongLoopFrac {
				trips = spec.LongLoopTrip
			}
			b.Behavior = NewLoop(randRange(rng, trips))
		} else {
			// Taken probability < 1 keeps expected trips bounded.
			b.Behavior = NewBiased(0.25+0.50*rng.Float64(), rng.Int63())
		}
		return
	}
	// Forward edge.
	b.TakenBlk = f.Blocks[bi+1+rng.Intn(nblocks-bi-1)]
	x := rng.Float64()
	switch {
	case x < spec.MonotonicFrac:
		// Promotion fodder: >=99% biased one way.
		p := 0.002 + 0.006*rng.Float64()
		if rng.Intn(2) == 0 {
			p = 1 - p
		}
		b.Behavior = NewBiased(p, rng.Int63())
	case x < spec.MonotonicFrac+spec.PatternFrac:
		n := 2 + rng.Intn(7)
		bits := make([]bool, n)
		for i := range bits {
			bits[i] = rng.Intn(2) == 0
		}
		b.Behavior = NewPattern(bits)
	default:
		// Real branch-bias populations are bimodal: most static branches
		// lean strongly one way, with a minority of genuinely hard
		// branches. BiasSpread controls how extreme the leaning is.
		u := rng.Float64()
		var p float64
		if rng.Float64() < 0.12 {
			// Hard branch: near 50/50, unpredictable beyond its bias.
			p = 0.35 + 0.3*u
		} else {
			lean := 0.02 + 0.20*u*u // concentrated near the extremes
			p = lean
			if rng.Intn(2) == 0 {
				p = 1 - lean
			}
			// Pull toward 50/50 as BiasSpread decreases.
			p = 0.5 + (p-0.5)*(0.5+0.5*spec.BiasSpread)
		}
		b.Behavior = NewBiased(p, rng.Int63())
	}
}

// pickCallee selects a callee for function f honouring the DAG constraint
// and the hot-function locality knobs.
func pickCallee(rng *rand.Rand, spec Spec, p *Program, f *Func) *Func {
	lo := f.ID + 1
	if lo >= spec.Functions {
		// Callers guard with isLeaf; defensive fallback.
		return p.Funcs[spec.Functions-1]
	}
	if rng.Float64() < spec.HotProb {
		// Draw uniformly among the hot candidates above f: count them,
		// then walk to the k-th, so no slice is built per call.
		n := 0
		for _, c := range p.Funcs[lo:] {
			if c.Hot {
				n++
			}
		}
		if n > 0 {
			k := rng.Intn(n)
			for _, c := range p.Funcs[lo:] {
				if c.Hot {
					if k == 0 {
						return c
					}
					k--
				}
			}
		}
	}
	return p.Funcs[lo+rng.Intn(spec.Functions-lo)]
}

func newChooser(rng *rand.Rand, spec Spec, n int) Chooser {
	c := NewSkewedChooser(n, spec.IndSkew, rng.Int63())
	if rng.Float64() < 0.25 {
		// A minority of indirect sites drift between target clusters over
		// long phases; most stay repetitive, as real dispatch sites do.
		c = NewPhasedChooser(c, n, 2048+rng.Intn(4096))
	}
	return c
}

func pickTerminator(rng *rand.Rand, spec Spec) isa.Class {
	w := []float64{spec.WCond, spec.WJump, spec.WCall, spec.WIndJump, spec.WIndCall, spec.WReturn}
	classes := []isa.Class{isa.CondBranch, isa.Jump, isa.Call, isa.IndirectJump, isa.IndirectCall, isa.Return}
	var sum float64
	for _, v := range w {
		sum += v
	}
	x := rng.Float64() * sum
	for i, v := range w {
		if x < v {
			return classes[i]
		}
		x -= v
	}
	return isa.CondBranch
}

func pickUops(rng *rand.Rand, weights [4]float64) uint8 {
	var sum float64
	for _, v := range weights {
		sum += v
	}
	x := rng.Float64() * sum
	for i, v := range weights {
		if x < v {
			return uint8(i + 1)
		}
		x -= v
	}
	return 1
}

// pickSize draws an x86-flavoured instruction byte length (1..8, mean ~3.5).
func pickSize(rng *rand.Rand) uint8 {
	// Cumulative weights for sizes 1..8.
	x := rng.Float64()
	switch {
	case x < 0.08:
		return 1
	case x < 0.30:
		return 2
	case x < 0.58:
		return 3
	case x < 0.74:
		return 4
	case x < 0.84:
		return 5
	case x < 0.92:
		return 6
	case x < 0.97:
		return 7
	default:
		return maxInstSize
	}
}

func randRange(rng *rand.Rand, r [2]int) int {
	if r[1] <= r[0] {
		return r[0]
	}
	return r[0] + rng.Intn(r[1]-r[0]+1)
}
