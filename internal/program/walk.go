package program

import "xbc/internal/isa"

// DynInst is one dynamically executed instruction: the static instruction
// plus its resolved outcome.
type DynInst struct {
	Inst   isa.Inst
	Taken  bool     // control-flow outcome; always true for unconditional transfers
	NextIP isa.Addr // address of the next dynamic instruction
}

// Uops returns the uop count of the executed instruction.
func (d DynInst) Uops() int { return int(d.Inst.NumUops) }

// Walker executes a Program, yielding an endless dynamic instruction
// stream. It owns the mutable behaviour state embedded in the Program, so
// at most one Walker should drive a given Program at a time; Reset rewinds
// both the walker position and all behaviour state, making replays
// bit-identical.
type Walker struct {
	prog  *Program
	phase int
	cur   *Block
	idx   int
	stack []*Block // return continuations

	insts uint64 // dynamic instructions emitted
	uops  uint64 // dynamic uops emitted
	iters uint64 // completed phase walks
}

// NewWalker returns a walker positioned at the program's first phase entry
// with all behaviour state rewound.
func NewWalker(p *Program) *Walker {
	w := &Walker{prog: p}
	w.Reset()
	return w
}

// Reset rewinds the walker and all branch behaviours and indirect choosers
// to their initial state.
func (w *Walker) Reset() {
	for _, f := range w.prog.Funcs {
		for _, b := range f.Blocks {
			if b.Behavior != nil {
				b.Behavior.Reset()
			}
			if b.Chooser != nil {
				b.Chooser.Reset()
			}
		}
	}
	w.phase = 0
	w.cur = w.prog.PhaseEntries[0].Entry()
	w.idx = 0
	w.stack = w.stack[:0]
	w.insts, w.uops, w.iters = 0, 0, 0
}

// Insts reports how many dynamic instructions have been emitted.
func (w *Walker) Insts() uint64 { return w.insts }

// Uops reports how many dynamic uops have been emitted.
func (w *Walker) Uops() uint64 { return w.uops }

// Depth reports the current call-stack depth.
func (w *Walker) Depth() int { return len(w.stack) }

// Next returns the next dynamically executed instruction. The stream is
// endless: when a phase entry function returns, the walker moves to the
// next phase entry (wrapping around).
func (w *Walker) Next() DynInst {
	b := w.cur
	in := b.Insts[w.idx]
	w.insts++
	w.uops += uint64(in.NumUops)

	if w.idx < len(b.Insts)-1 {
		// Mid-block: sequential flow.
		w.idx++
		return DynInst{Inst: in, Taken: false, NextIP: in.FallThrough()}
	}

	// Terminator: resolve the transfer.
	var next *Block
	taken := true
	switch in.Class {
	case isa.CondBranch:
		taken = b.Behavior.Next()
		if taken {
			next = b.TakenBlk
		} else {
			next = b.Next()
		}
	case isa.Jump:
		next = b.TakenBlk
	case isa.Call:
		w.stack = append(w.stack, b.Next())
		next = b.Callee.Entry()
	case isa.IndirectJump:
		next = b.IndBlks[b.Chooser.NextTarget()]
	case isa.IndirectCall:
		w.stack = append(w.stack, b.Next())
		next = b.IndFns[b.Chooser.NextTarget()].Entry()
	case isa.Return:
		if n := len(w.stack); n > 0 {
			next = w.stack[n-1]
			w.stack = w.stack[:n-1]
		} else {
			w.iters++
			w.phase = (w.phase + 1) % len(w.prog.PhaseEntries)
			next = w.prog.PhaseEntries[w.phase].Entry()
		}
	default:
		// Unreachable for validated programs: blocks end in control flow.
		next = b.Next()
		taken = false
	}
	w.cur = next
	w.idx = 0
	return DynInst{Inst: in, Taken: taken, NextIP: next.FirstIP()}
}
