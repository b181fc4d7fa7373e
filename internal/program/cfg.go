package program

import (
	"fmt"

	"xbc/internal/isa"
)

// Program is a synthesized static program: a DAG of functions, each a
// control-flow graph of basic blocks with concrete instruction addresses.
type Program struct {
	Spec  Spec
	Funcs []*Func

	// PhaseEntries are the functions main cycles through; len>=1.
	PhaseEntries []*Func

	staticInsts int
	staticUops  int
}

// Func is one function: an entry block plus a layout-ordered block list.
type Func struct {
	ID     int
	Blocks []*Block // Blocks[0] is the entry
	Hot    bool
}

// Entry returns the function's entry block.
func (f *Func) Entry() *Block { return f.Blocks[0] }

// Block is a basic block: zero or more sequential instructions followed by
// exactly one control-flow terminator.
type Block struct {
	Fn    *Func
	Index int // position in Fn.Blocks (layout order)

	Insts []isa.Inst // includes the terminator as the last element

	// Terminator wiring; which fields are meaningful depends on the
	// terminator's class.
	TakenBlk *Block   // CondBranch taken target / Jump target
	Callee   *Func    // Call callee
	IndBlks  []*Block // IndirectJump targets
	IndFns   []*Func  // IndirectCall callees

	Behavior Behavior // CondBranch outcome stream
	Chooser  Chooser  // IndirectJump/IndirectCall target stream
}

// Term returns the block's terminating instruction.
func (b *Block) Term() isa.Inst { return b.Insts[len(b.Insts)-1] }

// FirstIP returns the address of the block's first instruction.
func (b *Block) FirstIP() isa.Addr { return b.Insts[0].IP }

// Next returns the next block in layout order, or nil at function end.
func (b *Block) Next() *Block {
	if b.Index+1 < len(b.Fn.Blocks) {
		return b.Fn.Blocks[b.Index+1]
	}
	return nil
}

// Uops returns the total uop count of the block.
func (b *Block) Uops() int {
	n := 0
	for _, in := range b.Insts {
		n += int(in.NumUops)
	}
	return n
}

// StaticInsts returns the number of static instructions in the program.
func (p *Program) StaticInsts() int { return p.staticInsts }

// StaticUops returns the number of static uops in the program — the code
// footprint that competes for XBC/TC capacity.
func (p *Program) StaticUops() int { return p.staticUops }

// Validate checks structural invariants of the built program: instruction
// encodings, terminator wiring, forward-only unconditional jumps, and the
// call-graph DAG property (callees have strictly larger IDs). These are the
// properties that guarantee the Walker terminates.
func (p *Program) Validate() error {
	if len(p.Funcs) == 0 {
		return fmt.Errorf("program %q: no functions", p.Spec.Name)
	}
	if len(p.PhaseEntries) == 0 {
		return fmt.Errorf("program %q: no phase entries", p.Spec.Name)
	}
	for _, f := range p.Funcs {
		if len(f.Blocks) == 0 {
			return fmt.Errorf("program %q: function %d has no blocks", p.Spec.Name, f.ID)
		}
		for _, b := range f.Blocks {
			if len(b.Insts) == 0 {
				return fmt.Errorf("program %q: f%d b%d empty", p.Spec.Name, f.ID, b.Index)
			}
			for _, in := range b.Insts {
				if err := in.Validate(); err != nil {
					return err
				}
			}
			for _, in := range b.Insts[:len(b.Insts)-1] {
				if in.Class != isa.Seq {
					return fmt.Errorf("program %q: f%d b%d has control flow mid-block", p.Spec.Name, f.ID, b.Index)
				}
			}
			term := b.Term()
			switch term.Class {
			case isa.CondBranch:
				if b.TakenBlk == nil || b.Behavior == nil {
					return fmt.Errorf("program %q: f%d b%d cond branch unwired", p.Spec.Name, f.ID, b.Index)
				}
				if b.Next() == nil {
					return fmt.Errorf("program %q: f%d b%d cond branch falls off function end", p.Spec.Name, f.ID, b.Index)
				}
				if b.TakenBlk.Index <= b.Index && b.Behavior == nil {
					return fmt.Errorf("program %q: f%d b%d back edge without behaviour", p.Spec.Name, f.ID, b.Index)
				}
			case isa.Jump:
				if b.TakenBlk == nil {
					return fmt.Errorf("program %q: f%d b%d jump unwired", p.Spec.Name, f.ID, b.Index)
				}
				if b.TakenBlk.Index <= b.Index {
					return fmt.Errorf("program %q: f%d b%d backward unconditional jump", p.Spec.Name, f.ID, b.Index)
				}
			case isa.Call:
				if b.Callee == nil {
					return fmt.Errorf("program %q: f%d b%d call unwired", p.Spec.Name, f.ID, b.Index)
				}
				if b.Callee.ID <= f.ID {
					return fmt.Errorf("program %q: f%d b%d call does not go down the DAG", p.Spec.Name, f.ID, b.Index)
				}
				if b.Next() == nil {
					return fmt.Errorf("program %q: f%d b%d call has no continuation", p.Spec.Name, f.ID, b.Index)
				}
			case isa.IndirectJump:
				if len(b.IndBlks) == 0 || b.Chooser == nil {
					return fmt.Errorf("program %q: f%d b%d indirect jump unwired", p.Spec.Name, f.ID, b.Index)
				}
				for _, t := range b.IndBlks {
					if t.Index <= b.Index {
						return fmt.Errorf("program %q: f%d b%d backward indirect target", p.Spec.Name, f.ID, b.Index)
					}
				}
			case isa.IndirectCall:
				if len(b.IndFns) == 0 || b.Chooser == nil {
					return fmt.Errorf("program %q: f%d b%d indirect call unwired", p.Spec.Name, f.ID, b.Index)
				}
				for _, c := range b.IndFns {
					if c.ID <= f.ID {
						return fmt.Errorf("program %q: f%d b%d indirect call does not go down the DAG", p.Spec.Name, f.ID, b.Index)
					}
				}
				if b.Next() == nil {
					return fmt.Errorf("program %q: f%d b%d indirect call has no continuation", p.Spec.Name, f.ID, b.Index)
				}
			case isa.Return:
				// Nothing to wire.
			default:
				return fmt.Errorf("program %q: f%d b%d terminator class %v", p.Spec.Name, f.ID, b.Index, term.Class)
			}
		}
		if f.Blocks[len(f.Blocks)-1].Term().Class != isa.Return {
			// Not strictly required for termination (any reachable return
			// suffices) but the builder guarantees it; check it stays true.
			return fmt.Errorf("program %q: f%d last block does not return", p.Spec.Name, f.ID)
		}
	}
	return nil
}
