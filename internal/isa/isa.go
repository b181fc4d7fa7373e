// Package isa defines the synthetic instruction-set model used by the
// frontend simulators.
//
// The eXtended Block Cache paper evaluates frontends on IA-32 traces in
// which each variable-length instruction is decoded into one or more
// fixed-length micro-instructions (uops). None of the evaluated structures
// depend on instruction semantics: they only consume, per dynamic
// instruction, its address, its control-flow class, its uop count, and the
// dynamic outcome. This package models exactly that surface.
package isa

import "fmt"

// Addr is a virtual instruction address. The XBC uses virtual tags, so no
// translation layer is modelled. The paper's traces are 32-bit IA-32 code,
// and 32 bits keep every trace record at 12 bytes: program.Spec.Validate
// rejects programs whose code could pass 4 GiB, and every decoder (.xtr
// files, snapshots) refuses an address that does not fit.
type Addr uint32

// MaxUopsPerInst bounds how many uops a single instruction decodes into.
// Typical IA-32 integer code decodes to 1-4 uops per instruction.
const MaxUopsPerInst = 4

// Class is the control-flow class of an instruction.
type Class uint8

const (
	// Seq is any non-control-flow instruction (ALU, load, store, ...).
	Seq Class = iota
	// CondBranch is a conditional direct branch. It may or may not be
	// taken; it ends extended blocks, basic blocks, and counts toward the
	// trace-cache branch limit.
	CondBranch
	// Jump is an unconditional direct jump. It redirects flow to a single
	// location, so it ends a basic block but does NOT end an extended
	// block (section 3.1 of the paper).
	Jump
	// Call is a direct call. It transfers to a single location but must
	// end an extended block so that its XBTB entry can anchor the return
	// stack bookkeeping (section 3.5).
	Call
	// IndirectJump is a computed jump (e.g. a switch table) with several
	// possible targets. Ends extended blocks and traces.
	IndirectJump
	// IndirectCall is a call through a register or memory operand.
	IndirectCall
	// Return pops the return address. Ends extended blocks and traces.
	Return

	numClasses
)

// NumClasses reports how many instruction classes exist; useful for
// per-class statistics arrays.
const NumClasses = int(numClasses)

// String returns a short mnemonic for the class.
func (c Class) String() string {
	switch c {
	case Seq:
		return "seq"
	case CondBranch:
		return "jcc"
	case Jump:
		return "jmp"
	case Call:
		return "call"
	case IndirectJump:
		return "ijmp"
	case IndirectCall:
		return "icall"
	case Return:
		return "ret"
	default:
		return fmt.Sprintf("class(%d)", uint8(c))
	}
}

// IsControlFlow reports whether the instruction redirects (or may redirect)
// the sequential flow.
func (c Class) IsControlFlow() bool { return c != Seq }

// IsIndirect reports whether the instruction has more than one possible
// target resolved at run time (indirect jumps and calls, and returns).
func (c Class) IsIndirect() bool {
	return c == IndirectJump || c == IndirectCall || c == Return
}

// IsCall reports whether the instruction pushes a return address.
func (c Class) IsCall() bool { return c == Call || c == IndirectCall }

// EndsXB reports whether an instruction of this class terminates an
// extended block. Per section 3.1: conditional branches, indirect branches,
// returns, and calls end XBs; unconditional direct jumps do not.
func (c Class) EndsXB() bool {
	switch c {
	case CondBranch, Call, IndirectJump, IndirectCall, Return:
		return true
	case Seq, Jump:
		// Unconditional direct jumps are embedded inside XBs (their
		// successor is static); sequential instructions never cut.
		return false
	}
	return false
}

// EndsBasicBlock reports whether an instruction of this class terminates a
// basic block ("ends with any jump" in the paper's Figure 1 terminology).
func (c Class) EndsBasicBlock() bool { return c.IsControlFlow() }

// EndsTrace reports whether an instruction of this class unconditionally
// terminates a trace-cache trace (indirect branches and returns; conditional
// branches only end a trace through the 3-branch limit).
func (c Class) EndsTrace() bool { return c.IsIndirect() }

// Inst is a static instruction.
type Inst struct {
	IP      Addr  // virtual address of the first byte
	Size    uint8 // length in bytes
	NumUops uint8 // 1..MaxUopsPerInst decoded uops
	Class   Class
	Target  Addr // static target for CondBranch/Jump/Call; 0 otherwise
}

// FallThrough returns the address of the sequentially next instruction.
func (in Inst) FallThrough() Addr { return in.IP + Addr(in.Size) }

// Validate checks internal consistency of the instruction encoding.
func (in Inst) Validate() error {
	if in.NumUops == 0 || in.NumUops > MaxUopsPerInst {
		return fmt.Errorf("isa: instruction at %#x has %d uops (want 1..%d)", in.IP, in.NumUops, MaxUopsPerInst)
	}
	if in.Size == 0 {
		return fmt.Errorf("isa: instruction at %#x has zero size", in.IP)
	}
	if in.Class >= numClasses {
		return fmt.Errorf("isa: instruction at %#x has invalid class %d", in.IP, in.Class)
	}
	switch in.Class {
	case CondBranch, Jump, Call:
		if in.Target == 0 {
			return fmt.Errorf("isa: direct %s at %#x has no target", in.Class, in.IP)
		}
	default:
		// Seq has no target; indirect classes resolve theirs at run time.
	}
	return nil
}

// UopID uniquely identifies a single uop: the instruction address combined
// with the uop's index within the instruction. Because MaxUopsPerInst is 4,
// two bits suffice for the index.
type UopID uint64

// Uop returns the identity of the idx-th uop of the instruction at ip.
func Uop(ip Addr, idx int) UopID { return UopID(ip)<<2 | UopID(idx&3) }

// IP recovers the instruction address from a uop identity.
func (u UopID) IP() Addr { return Addr(u >> 2) }

// Index recovers the uop index within its instruction.
func (u UopID) Index() int { return int(u & 3) }
