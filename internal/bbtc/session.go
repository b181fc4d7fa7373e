package bbtc

import (
	"fmt"

	"xbc/internal/frontend"
	"xbc/internal/isa"
	"xbc/internal/snapshot"
	"xbc/internal/trace"
)

// session is one incremental run of the BBTC frontend: the Run loop with
// its state (block cache, trace table, fetch path, predictors, counters,
// position) lifted into a struct so it can pause at an episode boundary.
type session struct {
	f     *Frontend
	m     frontend.Metrics
	st    *state
	path  *frontend.ICPath
	preds *frontend.PredictorSet
	// scratch holds the per-episode assembly buffers; dead between
	// episodes (insertBlock/insertTrace copy into line storage).
	scratch    *buildScratch
	pos        int
	inDelivery bool
}

// NewSession returns a cold-state incremental run.
func (f *Frontend) NewSession() frontend.Session {
	return &session{
		f: f,
		st: &state{
			blocks: make([]block, f.cfg.BlockSets*f.cfg.BlockWays),
			traces: make([]ptrTrace, f.cfg.TraceSets*f.cfg.TraceWays),
			cfg:    f.cfg,
		},
		path:  frontend.NewICPath(f.fecfg, frontend.DefaultICConfig()),
		preds: frontend.NewPredictorSet(),
		scratch: &buildScratch{
			ptrs: make([]isa.Addr, 0, f.cfg.PtrsPerTrace),
			fill: make([]blockInst, 0, f.cfg.BlockUops),
		},
	}
}

// Pos returns the current record position.
func (s *session) Pos() int { return s.pos }

// Seek repositions without touching state.
func (s *session) Seek(target int) { s.pos = target }

// StepTo simulates delivery and build episodes until the position
// reaches target, stopping only at episode boundaries.
func (s *session) StepTo(recs []trace.Rec, target int) int {
	f, m := s.f, &s.m
	i := s.pos
	//xbc:hot
	for i < target && i < len(recs) {
		if t := s.st.lookupTrace(recs[i].IP); t != nil {
			next := f.deliver(s.st, recs, i, t, s.preds, m)
			if next > i {
				s.inDelivery = true
				i = next
				continue
			}
			// The pointer trace exists but its first block was evicted:
			// nothing could be supplied, so rebuild through the IC path.
		}
		m.StructMisses++
		if s.inDelivery {
			s.inDelivery = false
			m.PenaltyCycles += uint64(f.fecfg.BuildEntryPenalty)
		}
		i = f.build(s.st, recs, i, s.path, s.preds, s.scratch, m)
	}
	s.pos = i
	return i
}

// Warm functionally warms predictors and IC over [pos, target).
func (s *session) Warm(recs []trace.Rec, target int) {
	frontend.WarmPath(s.path, s.preds, recs, s.pos, target)
	s.pos = target
}

// Metrics returns the raw counters accumulated so far.
func (s *session) Metrics() frontend.Metrics { return s.m }

// Finish attaches the extras and finalizes.
func (s *session) Finish() (frontend.Metrics, error) {
	m, st, f := &s.m, s.st, s.f
	// Pointer redundancy: average number of trace-table references per
	// resident block (the redundancy the BBTC moves out of uop storage).
	// Sized for every block slot up front, so counting does not grow it.
	refs := make(map[isa.Addr]int, len(st.blocks))
	for k := range st.traces {
		if st.traces[k].valid {
			for _, b := range st.traces[k].blocks {
				refs[b]++
			}
		}
	}
	if len(refs) > 0 {
		total := 0
		//xbc:ignore nondeterm commutative integer sum; order-insensitive
		for _, n := range refs {
			total += n
		}
		m.AddExtra("pointer_redundancy", float64(total)/float64(len(refs)))
	}
	usedUops, validBlocks := 0, 0
	for k := range st.blocks {
		if st.blocks[k].valid {
			validBlocks++
			usedUops += st.blocks[k].uops
		}
	}
	if validBlocks > 0 {
		m.AddExtra("fragmentation", 1-float64(usedUops)/float64(validBlocks*f.cfg.BlockUops))
	}
	m.AddExtra("ic_miss_rate", s.path.MissRate())
	m.Finalize(f.fecfg)
	return s.m, nil
}

// SaveState serializes the complete session state.
func (s *session) SaveState(w *snapshot.Writer) {
	w.Int(s.pos)
	w.Bool(s.inDelivery)
	s.m.SaveState(w)
	s.path.SaveState(w)
	s.preds.SaveState(w)
	w.U64(s.st.tick)
	w.Len(len(s.st.blocks))
	for k := range s.st.blocks {
		b := &s.st.blocks[k]
		w.Bool(b.valid)
		w.U64(uint64(b.startIP))
		w.Int(b.uops)
		w.U64(b.stamp)
		w.Len(len(b.insts))
		for _, e := range b.insts {
			w.U64(uint64(e.ip))
			w.U8(e.numUops)
			w.U8(uint8(e.class))
		}
	}
	w.Len(len(s.st.traces))
	for k := range s.st.traces {
		t := &s.st.traces[k]
		w.Bool(t.valid)
		w.U64(uint64(t.startIP))
		w.U64(t.stamp)
		w.Len(len(t.blocks))
		for _, b := range t.blocks {
			w.U64(uint64(b))
		}
	}
}

// LoadState restores state saved by SaveState.
func (s *session) LoadState(r *snapshot.Reader) error {
	s.pos = r.Int()
	if r.Err() == nil && s.pos < 0 {
		return fmt.Errorf("bbtc: negative position %d", s.pos)
	}
	s.inDelivery = r.Bool()
	if err := s.m.LoadState(r); err != nil {
		return err
	}
	if err := s.path.LoadState(r); err != nil {
		return err
	}
	if err := s.preds.LoadState(r); err != nil {
		return err
	}
	s.st.tick = r.U64()
	r.LenExact(len(s.st.blocks))
	for k := range s.st.blocks {
		b := &s.st.blocks[k]
		b.valid = r.Bool()
		b.startIP = r.Addr()
		b.uops = r.Int()
		b.stamp = r.U64()
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
	}
	r.LenExact(len(s.st.traces))
	for k := range s.st.traces {
		t := &s.st.traces[k]
		t.valid = r.Bool()
		t.startIP = r.Addr()
		t.stamp = r.U64()
		n := r.Len(8)
		if err := r.Err(); err != nil {
			return err
		}
		if n > s.f.cfg.PtrsPerTrace {
			return fmt.Errorf("bbtc: trace holds %d pointers, cap %d", n, s.f.cfg.PtrsPerTrace)
		}
		t.blocks = t.blocks[:0]
		for j := 0; j < n; j++ {
			t.blocks = append(t.blocks, r.Addr())
		}
	}
	return r.Err()
}
