// Package trace defines the dynamic instruction stream format consumed by
// every frontend simulator, generation of streams from synthetic programs,
// a compact binary serialization (.xtr), and the structural segmentation
// passes behind the paper's Figure 1.
//
// The paper's simulator is trace-driven: the stream of committed
// instructions is the oracle; frontends replay it, consulting predictors to
// model fetch. A Rec carries exactly what the paper's traces carry per
// instruction: address, class, uop count, dynamic outcome and successor.
package trace

import (
	"fmt"

	"xbc/internal/isa"
	"xbc/internal/program"
)

// Rec is one dynamic instruction record.
type Rec struct {
	IP      isa.Addr  // instruction address
	Next    isa.Addr  // address of the dynamically next instruction
	Class   isa.Class // control-flow class
	NumUops uint8     // decoded uop count (1..isa.MaxUopsPerInst)
	Size    uint8     // instruction length in bytes
	Taken   bool      // conditional outcome (true for unconditional transfers)
}

// FallThrough returns the address of the sequentially next instruction.
func (r Rec) FallThrough() isa.Addr { return r.IP + isa.Addr(r.Size) }

// Stream is an in-memory trace, replayable any number of times.
type Stream struct {
	Name string
	Recs []Rec
}

// Records returns the stream's backing record slice: frontends range over
// it directly. The slice is shared — corpus-cached
// streams hand the same backing array to every caller — so it must be
// treated as immutable.
func (s *Stream) Records() []Rec { return s.Recs }

// Len returns the number of records.
func (s *Stream) Len() int { return len(s.Recs) }

// Uops returns the total dynamic uop count of the stream.
func (s *Stream) Uops() uint64 {
	var n uint64
	for _, r := range s.Recs {
		n += uint64(r.NumUops)
	}
	return n
}

// Validate checks stream invariants: every record well formed, and each
// record's Next matching the following record's IP (stream continuity).
func (s *Stream) Validate() error {
	for i, r := range s.Recs {
		if r.NumUops == 0 || r.NumUops > isa.MaxUopsPerInst {
			return fmt.Errorf("trace %q: rec %d has %d uops", s.Name, i, r.NumUops)
		}
		if i+1 < len(s.Recs) && r.Next != s.Recs[i+1].IP {
			return fmt.Errorf("trace %q: rec %d Next=%#x but rec %d IP=%#x", s.Name, i, r.Next, i+1, s.Recs[i+1].IP)
		}
		if r.Class == isa.Seq && r.Next != r.FallThrough() {
			return fmt.Errorf("trace %q: rec %d sequential but Next != fallthrough", s.Name, i)
		}
		if r.Class == isa.CondBranch && !r.Taken && r.Next != r.FallThrough() {
			return fmt.Errorf("trace %q: rec %d not-taken branch but Next != fallthrough", s.Name, i)
		}
	}
	return nil
}

// FromDyn converts a walker output record to a trace record.
func FromDyn(d program.DynInst) Rec {
	return Rec{
		IP:      d.Inst.IP,
		Next:    d.NextIP,
		Class:   d.Inst.Class,
		NumUops: d.Inst.NumUops,
		Size:    d.Inst.Size,
		Taken:   d.Taken,
	}
}

// Generate builds the program described by spec and walks it until at
// least minUops dynamic uops have been produced, returning the stream.
func Generate(spec program.Spec, minUops uint64) (*Stream, error) {
	p, err := program.Build(spec)
	if err != nil {
		return nil, err
	}
	return GenerateFrom(p, minUops), nil
}

// GenerateFrom walks an already-built program until at least minUops
// dynamic uops have been produced.
func GenerateFrom(p *Program, minUops uint64) *Stream {
	w := program.NewWalker(p)
	// The paper workloads run 0.63 to 0.83 records per uop (0.71 on
	// average). Sizing for 3/4 spares most of the slice growth and leaves
	// no more unused capacity than growing from empty does, which counts
	// because the corpus keeps these slices resident.
	s := &Stream{Name: p.Spec.Name, Recs: make([]Rec, 0, minUops*3/4)}
	var uops uint64
	for uops < minUops {
		d := w.Next()
		uops += uint64(d.Inst.NumUops)
		s.Recs = append(s.Recs, FromDyn(d))
	}
	return s
}

// Program aliases program.Program so cmd-level callers can use this package
// as their single entry point for stream generation.
type Program = program.Program
