package tcache

import (
	"fmt"

	"xbc/internal/frontend"
	"xbc/internal/isa"
	"xbc/internal/snapshot"
	"xbc/internal/trace"
)

// session is one incremental run of the trace-cache frontend: the Run
// loop with its state (cache, fetch path, predictors, retirement fill,
// counters, position) lifted into a struct so it can pause at an
// episode boundary.
type session struct {
	f     *Frontend
	m     frontend.Metrics
	cache *Cache
	path  *frontend.ICPath
	preds *frontend.PredictorSet
	rf    *retireFill // PathAssoc only; carries a partial trace across episodes
	// fill is the per-episode build scratch; dead between episodes.
	fill       []traceInst
	predDir    func(isa.Addr) bool
	pos        int
	inDelivery bool
}

// NewSession returns a cold-state incremental run.
func (f *Frontend) NewSession() frontend.Session {
	cache, err := NewCache(f.cfg)
	if err != nil {
		panic(err) // geometry was validated at construction
	}
	s := &session{
		f:     f,
		cache: cache,
		path:  frontend.NewICPath(f.fecfg, frontend.DefaultICConfig()),
		preds: frontend.NewPredictorSet(),
		fill:  make([]traceInst, 0, f.cfg.MaxUops),
	}
	if f.cfg.PathAssoc {
		s.rf = &retireFill{cfg: f.cfg}
	}
	// Bound once so lookups do not allocate a closure per call.
	s.predDir = func(ip isa.Addr) bool { return s.preds.Dir.Predict(ip) }
	return s
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
		ln, hit := s.cache.Lookup(recs[i].IP, s.predDir)
		if hit {
			if !s.inDelivery {
				s.inDelivery = true
				m.ModeSwitches++
			}
			j := f.deliver(recs, i, ln, s.preds, m)
			if s.rf != nil {
				for k := i; k < j; k++ {
					s.rf.feed(recs[k], s.cache)
				}
			}
			i = j
			continue
		}
		// Build mode: decode from the IC path, assembling a trace.
		m.StructMisses++
		if s.inDelivery {
			s.inDelivery = false
			m.ModeSwitches++
			// Falling out of delivery redirects fetch into the IC path.
			m.PenaltyCycles += uint64(f.fecfg.BuildEntryPenalty)
		}
		j := f.build(recs, i, s.cache, s.path, s.preds, &s.fill, m)
		if s.rf != nil {
			// Keep the retirement fill aligned across build episodes.
			s.rf.flush(s.cache)
		}
		i = j
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
	s.m.AddExtra("redundancy", s.cache.Redundancy())
	s.m.AddExtra("fragmentation", s.cache.Fragmentation())
	s.m.AddExtra("ic_miss_rate", s.path.MissRate())
	s.m.Finalize(s.f.fecfg)
	return s.m, nil
}

// SaveState serializes the complete session state.
func (s *session) SaveState(w *snapshot.Writer) {
	w.Int(s.pos)
	w.Bool(s.inDelivery)
	s.m.SaveState(w)
	s.path.SaveState(w)
	s.preds.SaveState(w)
	s.cache.SaveState(w)
	if s.rf != nil {
		w.U64(uint64(s.rf.startIP))
		w.Int(s.rf.uops)
		w.Int(s.rf.branches)
		w.Len(len(s.rf.buf))
		for _, ti := range s.rf.buf {
			saveTraceInst(w, ti)
		}
	}
}

// LoadState restores state saved by SaveState.
func (s *session) LoadState(r *snapshot.Reader) error {
	s.pos = r.Int()
	if r.Err() == nil && s.pos < 0 {
		return fmt.Errorf("tcache: negative position %d", s.pos)
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
	if err := s.cache.LoadState(r); err != nil {
		return err
	}
	if s.rf != nil {
		s.rf.startIP = r.Addr()
		s.rf.uops = r.Int()
		s.rf.branches = r.Int()
		n := r.Len(11)
		if err := r.Err(); err != nil {
			return err
		}
		if n > s.f.cfg.MaxUops {
			return fmt.Errorf("tcache: fill buffer holds %d insts, cap %d", n, s.f.cfg.MaxUops)
		}
		s.rf.buf = s.rf.buf[:0]
		for j := 0; j < n; j++ {
			s.rf.buf = append(s.rf.buf, loadTraceInst(r))
		}
	}
	return r.Err()
}

func saveTraceInst(w *snapshot.Writer, ti traceInst) {
	w.U64(uint64(ti.ip))
	w.U8(ti.numUops)
	w.U8(uint8(ti.class))
	w.Bool(ti.taken)
}

func loadTraceInst(r *snapshot.Reader) traceInst {
	return traceInst{
		ip:      r.Addr(),
		numUops: r.U8(),
		class:   isa.Class(r.U8()),
		taken:   r.Bool(),
	}
}

// SaveState appends the cache's dynamic state. The redundancy accounting
// (copies map and its aggregates) is NOT stored: LoadState rebuilds it
// from the stored lines, which both keeps the blob free of map-order
// concerns and guarantees the invariants hold after restore.
func (c *Cache) SaveState(w *snapshot.Writer) {
	w.U64(c.tick)
	w.U64(c.Lookups)
	w.U64(c.Hits)
	w.Len(len(c.lines))
	for k := range c.lines {
		ln := &c.lines[k]
		w.Bool(ln.valid)
		w.U64(uint64(ln.startIP))
		w.U32(ln.path)
		w.U8(ln.nbr)
		w.Int(ln.uops)
		w.U64(ln.stamp)
		w.Len(len(ln.insts))
		for _, ti := range ln.insts {
			saveTraceInst(w, ti)
		}
	}
}

// LoadState restores state saved by SaveState into a same-geometry
// cache, rebuilding the redundancy accounting from the line contents.
func (c *Cache) LoadState(r *snapshot.Reader) error {
	c.tick = r.U64()
	c.Lookups = r.U64()
	c.Hits = r.U64()
	r.LenExact(len(c.lines))
	c.storedUops, c.copiedInsts, c.totalCopies = 0, 0, 0
	clear(c.copies)
	for k := range c.lines {
		ln := &c.lines[k]
		ln.valid = r.Bool()
		ln.startIP = r.Addr()
		ln.path = r.U32()
		ln.nbr = r.U8()
		ln.uops = r.Int()
		ln.stamp = r.U64()
		n := r.Len(11)
		if err := r.Err(); err != nil {
			return err
		}
		if n > c.cfg.MaxUops {
			return fmt.Errorf("tcache: line holds %d insts, cap %d", n, c.cfg.MaxUops)
		}
		ln.insts = ln.insts[:0]
		for j := 0; j < n; j++ {
			ln.insts = append(ln.insts, loadTraceInst(r))
		}
		if !ln.valid {
			continue
		}
		c.storedUops += ln.uops
		for _, ti := range ln.insts {
			if c.copies[ti.ip] == 0 {
				c.copiedInsts++
			}
			c.copies[ti.ip]++
			c.totalCopies++
		}
	}
	return r.Err()
}
