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
	frontend.Replay
	f     *Frontend
	cache *Cache
	rf    *retireFill // PathAssoc only; carries a partial trace across episodes
	// fill is the per-episode build scratch; dead between episodes.
	fill    []traceInst
	predDir func(isa.Addr) bool
}

// NewSession returns a cold-state incremental run.
func (f *Frontend) NewSession() frontend.Session {
	cache, err := NewCache(f.cfg)
	if err != nil {
		panic(err) // geometry was validated at construction
	}
	s := &session{
		Replay: frontend.NewReplay(f.fecfg, frontend.DefaultICConfig()),
		f:      f,
		cache:  cache,
		fill:   make([]traceInst, 0, f.cfg.MaxUops),
	}
	if f.cfg.PathAssoc {
		s.rf = &retireFill{cfg: f.cfg}
	}
	// Bound once so lookups do not allocate a closure per call.
	s.predDir = func(ip isa.Addr) bool { return s.Preds.Dir.Predict(ip) }
	return s
}

// StepTo simulates delivery and build episodes until the position
// reaches target, stopping only at episode boundaries.
func (s *session) StepTo(recs []trace.Rec, target int) int {
	f, m := s.f, &s.M
	i := s.Pos()
	//xbc:hot
	for i < target && i < len(recs) {
		ln, hit := s.cache.Lookup(recs[i].IP, s.predDir)
		if hit {
			if !s.InDelivery {
				s.InDelivery = true
				m.ModeSwitches++
			}
			j := f.deliver(recs, i, ln, s.Preds, m)
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
		if s.InDelivery {
			s.InDelivery = false
			m.ModeSwitches++
			// Falling out of delivery redirects fetch into the IC path.
			m.PenaltyCycles += uint64(f.fecfg.BuildEntryPenalty)
		}
		j := f.build(recs, i, s.cache, s.Path, s.Preds, &s.fill, m)
		if s.rf != nil {
			// Keep the retirement fill aligned across build episodes.
			s.rf.flush(s.cache)
		}
		i = j
	}
	s.Seek(i)
	return i
}

// Finish attaches the extras and finalizes.
func (s *session) Finish() (frontend.Metrics, error) {
	s.M.AddExtra("redundancy", s.cache.Redundancy())
	s.M.AddExtra("fragmentation", s.cache.Fragmentation())
	return s.Replay.Finish()
}

// SaveState serializes the complete session state.
func (s *session) SaveState(w *snapshot.Writer) {
	s.Replay.SaveState(w)
	s.cache.SaveState(w)
	if s.rf != nil {
		w.U64(uint64(s.rf.startIP))
		w.Int(s.rf.uops)
		w.Int(s.rf.branches)
		saveTraceInsts(w, s.rf.startIP, s.rf.buf)
	}
}

// LoadState restores state saved by SaveState.
func (s *session) LoadState(r *snapshot.Reader) error {
	if err := s.Replay.LoadState(r); err != nil {
		return err
	}
	if err := s.cache.LoadState(r); err != nil {
		return err
	}
	if s.rf != nil {
		s.rf.startIP = r.Addr()
		s.rf.uops = r.Int()
		s.rf.branches = r.Int()
		buf, err := loadTraceInsts(r, s.rf.startIP, s.rf.buf[:0], s.f.cfg.MaxUops, "fill buffer")
		if err != nil {
			return err
		}
		s.rf.buf = buf
	}
	return r.Err()
}

// saveTraceInsts appends a length-prefixed instruction list, each address
// as a delta from the one before it (the first from start, the address
// the trace starts at).
func saveTraceInsts(w *snapshot.Writer, start isa.Addr, insts []traceInst) {
	w.Len(len(insts))
	prev := start
	for _, ti := range insts {
		w.AddrFrom(prev, ti.ip)
		w.U8(ti.numUops)
		w.U8(uint8(ti.class))
		w.Bool(ti.taken)
		prev = ti.ip
	}
}

// loadTraceInsts appends a list written by saveTraceInsts from the same
// start to dst; what names the list in the error for one longer than
// limit.
func loadTraceInsts(r *snapshot.Reader, start isa.Addr, dst []traceInst, limit int, what string) ([]traceInst, error) {
	n := r.Len(4) // one-byte address delta and three bytes per element
	if err := r.Err(); err != nil {
		return dst, err
	}
	if n > limit {
		return dst, fmt.Errorf("tcache: %s holds %d insts, cap %d", what, n, limit)
	}
	prev := start
	for j := 0; j < n; j++ {
		ti := traceInst{
			ip:      r.AddrFrom(prev),
			numUops: r.U8(),
			class:   isa.Class(r.U8()),
			taken:   r.Bool(),
		}
		dst = append(dst, ti)
		prev = ti.ip
	}
	return dst, r.Err()
}

// SaveState appends the cache's dynamic state. The redundancy accounting
// (copies map and its aggregates) is NOT stored: LoadState rebuilds it
// from the stored lines, which both keeps the blob free of map-order
// concerns and guarantees the invariants hold after restore.
func (c *Cache) SaveState(w *snapshot.Writer) {
	w.U64(c.tick)
	w.U64(c.Lookups)
	w.U64(c.Hits)
	w.Sparse(len(c.lines), func(k int) bool { return c.lines[k].valid })
	for k := range c.lines {
		ln := &c.lines[k]
		if !ln.valid {
			continue
		}
		w.U64(uint64(ln.startIP))
		w.U32(ln.path)
		w.U8(ln.nbr)
		w.Int(ln.uops)
		w.U64(c.tick - ln.stamp)
		saveTraceInsts(w, ln.startIP, ln.insts)
	}
}

// LoadState restores state saved by SaveState into a same-geometry
// cache, rebuilding the redundancy accounting from the line contents and
// leaving every invalid line as a fresh cache has it.
func (c *Cache) LoadState(r *snapshot.Reader) error {
	c.tick = r.U64()
	c.Lookups = r.U64()
	c.Hits = r.U64()
	valid := r.Sparse(len(c.lines), 6) // one-byte startIP, path, nbr, uops, age and length
	c.storedUops, c.copiedInsts, c.totalCopies = 0, 0, 0
	clear(c.copies)
	for k := range c.lines {
		ln := &c.lines[k]
		if !valid.Has(k) {
			*ln = line{}
			continue
		}
		ln.valid = true
		ln.startIP = r.Addr()
		ln.path = r.U32()
		ln.nbr = r.U8()
		ln.uops = r.Int()
		age := r.U64()
		if err := r.Err(); err != nil {
			return err
		}
		if age > c.tick {
			return fmt.Errorf("tcache: line %d is %d accesses old, clock %d", k, age, c.tick)
		}
		ln.stamp = c.tick - age
		insts, err := loadTraceInsts(r, ln.startIP, ln.insts[:0], c.cfg.MaxUops, "line")
		if err != nil {
			return err
		}
		ln.insts = insts
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
