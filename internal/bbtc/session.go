package bbtc

import (
	"fmt"

	"xbc/internal/cachesim"
	"xbc/internal/frontend"
	"xbc/internal/isa"
	"xbc/internal/snapshot"
	"xbc/internal/trace"
)

// session is one incremental run of the BBTC frontend: the Run loop with
// its state (block cache, trace table, fetch path, predictors, counters,
// position) lifted into a struct so it can pause at an episode boundary.
type session struct {
	frontend.Replay
	f      *Frontend
	blocks *cachesim.Table[block]
	traces *cachesim.Table[[]isa.Addr]
	// ptrs and fill are the per-episode assembly buffers; dead between
	// episodes (build copies them into way storage).
	ptrs []isa.Addr
	fill []blockInst
}

// NewSession returns a cold-state incremental run.
func (f *Frontend) NewSession() frontend.Session {
	return &session{
		Replay: frontend.NewReplay(f.fecfg, frontend.DefaultICConfig()),
		f:      f,
		blocks: cachesim.NewTable[block](f.cfg.BlockSets, f.cfg.BlockWays, 1),
		traces: cachesim.NewTable[[]isa.Addr](f.cfg.TraceSets, f.cfg.TraceWays, 1),
		ptrs:   make([]isa.Addr, 0, f.cfg.PtrsPerTrace),
		fill:   make([]blockInst, 0, f.cfg.BlockUops),
	}
}

// StepTo simulates delivery and build episodes until the position
// reaches target, stopping only at episode boundaries.
func (s *session) StepTo(recs []trace.Rec, target int) int {
	f, m := s.f, &s.M
	i := s.Pos()
	//xbc:hot
	for i < target && i < len(recs) {
		if t := s.traces.Lookup(uint32(recs[i].IP)); t != nil {
			next := s.deliver(recs, i, *t)
			if next > i {
				s.InDelivery = true
				i = next
				continue
			}
			// The pointer trace exists but its first block was evicted:
			// nothing could be supplied, so rebuild through the IC path.
		}
		m.StructMisses++
		if s.InDelivery {
			s.InDelivery = false
			m.PenaltyCycles += uint64(f.fecfg.BuildEntryPenalty)
		}
		i = s.build(recs, i)
	}
	s.Seek(i)
	return i
}

// Finish attaches the extras and finalizes.
func (s *session) Finish() (frontend.Metrics, error) {
	m := &s.M
	// Pointer redundancy: average number of trace-table references per
	// resident block (the redundancy the BBTC moves out of uop storage).
	// Sized for every block slot up front, so counting does not grow it.
	refs := make(map[isa.Addr]int, s.f.cfg.BlockSets*s.f.cfg.BlockWays)
	s.traces.Each(func(t *[]isa.Addr) {
		for _, b := range *t {
			refs[b]++
		}
	})
	if len(refs) > 0 {
		total := 0
		//xbc:ignore nondeterm commutative integer sum; order-insensitive
		for _, n := range refs {
			total += n
		}
		m.AddExtra("pointer_redundancy", float64(total)/float64(len(refs)))
	}
	usedUops, validBlocks := 0, 0
	s.blocks.Each(func(b *block) {
		validBlocks++
		usedUops += b.uops
	})
	if validBlocks > 0 {
		m.AddExtra("fragmentation", 1-float64(usedUops)/float64(validBlocks*s.f.cfg.BlockUops))
	}
	return s.Replay.Finish()
}

// SaveState serializes the complete session state.
func (s *session) SaveState(w *snapshot.Writer) {
	s.Replay.SaveState(w)
	s.blocks.SaveState(w, func(w *snapshot.Writer, b *block) {
		w.Int(b.uops)
		w.Len(len(b.insts))
		for _, e := range b.insts {
			w.U64(uint64(e.ip))
			w.U8(e.numUops)
			w.U8(uint8(e.class))
		}
	})
	s.traces.SaveState(w, func(w *snapshot.Writer, t *[]isa.Addr) {
		w.Len(len(*t))
		for _, b := range *t {
			w.U64(uint64(b))
		}
	})
}

// LoadState restores state saved by SaveState.
func (s *session) LoadState(r *snapshot.Reader) error {
	if err := s.Replay.LoadState(r); err != nil {
		return err
	}
	err := s.blocks.LoadState(r, func(r *snapshot.Reader, b *block) error {
		b.uops = r.Int()
		n := r.Len(10)
		if err := r.Err(); err != nil {
			return err
		}
		if n > s.f.cfg.BlockUops {
			return fmt.Errorf("bbtc: block holds %d insts, cap %d", n, s.f.cfg.BlockUops)
		}
		b.insts = b.insts[:0]
		for j := 0; j < n; j++ {
			b.insts = append(b.insts, blockInst{
				ip:      r.Addr(),
				numUops: r.U8(),
				class:   isa.Class(r.U8()),
			})
		}
		return nil
	})
	if err != nil {
		return err
	}
	return s.traces.LoadState(r, func(r *snapshot.Reader, t *[]isa.Addr) error {
		n := r.Len(8)
		if err := r.Err(); err != nil {
			return err
		}
		if n > s.f.cfg.PtrsPerTrace {
			return fmt.Errorf("bbtc: trace holds %d pointers, cap %d", n, s.f.cfg.PtrsPerTrace)
		}
		*t = (*t)[:0]
		for j := 0; j < n; j++ {
			*t = append(*t, r.Addr())
		}
		return nil
	})
}
