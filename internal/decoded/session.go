package decoded

import (
	"fmt"

	"xbc/internal/frontend"
	"xbc/internal/isa"
	"xbc/internal/snapshot"
	"xbc/internal/trace"
)

// session is one incremental run of the decoded-cache frontend: the Run
// loop with its state (cache lines, LRU tick, fetch path, predictors,
// counters, position) lifted into a struct so it can pause at an
// outer-loop boundary (a delivery line or a build episode finishing).
type session struct {
	f     *Frontend
	m     frontend.Metrics
	lines []line
	tick  uint64
	path  *frontend.ICPath
	preds *frontend.PredictorSet
	// scratch is the per-episode build buffer; its contents are dead
	// between episodes (insert copies into line storage), so it is not
	// part of the snapshot state.
	scratch    []lineInst
	pos        int
	inDelivery bool
}

// NewSession returns a cold-state incremental run.
func (f *Frontend) NewSession() frontend.Session {
	return &session{
		f:       f,
		lines:   make([]line, f.cfg.Sets*f.cfg.Ways),
		path:    frontend.NewICPath(f.fecfg, frontend.DefaultICConfig()),
		preds:   frontend.NewPredictorSet(),
		scratch: make([]lineInst, 0, f.cfg.LineUops),
	}
}

func (s *session) setOf(ip isa.Addr) int { return int(uint64(ip>>1) & uint64(s.f.cfg.Sets-1)) }

func (s *session) lookup(ip isa.Addr) *line {
	base := s.setOf(ip) * s.f.cfg.Ways
	for w := 0; w < s.f.cfg.Ways; w++ {
		ln := &s.lines[base+w]
		if ln.valid && ln.startIP == ip {
			s.tick++
			ln.stamp = s.tick
			return ln
		}
	}
	return nil
}

func (s *session) insert(startIP isa.Addr, insts []lineInst, uops int) {
	base := s.setOf(startIP) * s.f.cfg.Ways
	victim := base
	for w := 0; w < s.f.cfg.Ways; w++ {
		ln := &s.lines[base+w]
		if ln.valid && ln.startIP == startIP {
			victim = base + w
			break
		}
		if !ln.valid {
			victim = base + w
			continue
		}
		if s.lines[victim].valid && ln.stamp < s.lines[victim].stamp {
			victim = base + w
		}
	}
	s.tick++
	// Reuse the victim line's storage; inserts stop allocating once
	// every line has been filled at least once.
	stored := append(s.lines[victim].insts[:0], insts...)
	s.lines[victim] = line{valid: true, startIP: startIP, uops: uops, insts: stored, stamp: s.tick}
}

// Pos returns the current record position.
func (s *session) Pos() int { return s.pos }

// Seek repositions without touching state.
func (s *session) Seek(target int) { s.pos = target }

// StepTo simulates delivery lines and build episodes until the position
// reaches target, stopping only at episode boundaries.
func (s *session) StepTo(recs []trace.Rec, target int) int {
	f, m := s.f, &s.m
	i := s.pos
	//xbc:hot
	for i < target && i < len(recs) {
		if ln := s.lookup(recs[i].IP); ln != nil {
			s.inDelivery = true
			// Delivery: one line per cycle; stop on path divergence.
			m.DeliveryFetches++
			for _, e := range ln.insts {
				if i >= len(recs) || recs[i].IP != e.ip {
					break
				}
				r := recs[i]
				m.Insts++
				m.Uops += uint64(r.NumUops)
				m.DeliveredUops += uint64(r.NumUops)
				i++
				if r.Class == isa.Seq {
					continue
				}
				out := s.preds.Resolve(r, m)
				if out.Mispredicted {
					m.PenaltyCycles += uint64(f.fecfg.MispredictPenalty)
					m.DeliveryPenalty += uint64(f.fecfg.MispredictPenalty)
				}
				if r.Next != r.FallThrough() {
					// Taken transfer: lines hold sequential runs only.
					break
				}
			}
			continue
		}
		// Build: decode a line's worth of consecutive uops.
		m.StructMisses++
		if s.inDelivery {
			s.inDelivery = false
			m.PenaltyCycles += uint64(f.fecfg.BuildEntryPenalty)
		}
		startIP := recs[i].IP
		fill := s.scratch[:0]
		uops := 0
		for i < len(recs) {
			g := s.path.FetchGroup(recs, i)
			m.BuildCycles += uint64(1 + g.Stall)
			done := false
			for k := 0; k < g.N && !done; k++ {
				r := recs[i+k]
				if uops+int(r.NumUops) > f.cfg.LineUops {
					done = true
					g.N = k
					break
				}
				m.Insts++
				m.Uops += uint64(r.NumUops)
				m.BuildUops += uint64(r.NumUops)
				uops += int(r.NumUops)
				fill = append(fill, lineInst{ip: r.IP, numUops: r.NumUops, class: r.Class})
				if out := s.preds.Resolve(r, m); out.Mispredicted {
					m.PenaltyCycles += uint64(f.fecfg.MispredictPenalty)
				}
				if r.Next != r.FallThrough() {
					done = true
					g.N = k + 1
				}
			}
			i += g.N
			if done || uops >= f.cfg.LineUops {
				break
			}
			if g.N == 0 {
				break
			}
		}
		s.scratch = fill // keep any growth for the next episode
		if len(fill) > 0 {
			s.insert(startIP, fill, uops)
		} else {
			i++ // defensive progress
		}
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
	frag := 0.0
	validLines := 0
	usedUops := 0
	for k := range s.lines {
		if s.lines[k].valid {
			validLines++
			usedUops += s.lines[k].uops
		}
	}
	if validLines > 0 {
		frag = 1 - float64(usedUops)/float64(validLines*s.f.cfg.LineUops)
	}
	s.m.AddExtra("fragmentation", frag)
	s.m.AddExtra("ic_miss_rate", s.path.MissRate())
	s.m.Finalize(s.f.fecfg)
	return s.m, nil
}

// SaveState serializes the complete session state.
func (s *session) SaveState(w *snapshot.Writer) {
	w.Int(s.pos)
	w.Bool(s.inDelivery)
	w.U64(s.tick)
	s.m.SaveState(w)
	s.path.SaveState(w)
	s.preds.SaveState(w)
	w.Len(len(s.lines))
	for k := range s.lines {
		ln := &s.lines[k]
		w.Bool(ln.valid)
		w.U64(uint64(ln.startIP))
		w.Int(ln.uops)
		w.U64(ln.stamp)
		w.Len(len(ln.insts))
		for _, e := range ln.insts {
			w.U64(uint64(e.ip))
			w.U8(e.numUops)
			w.U8(uint8(e.class))
		}
	}
}

// LoadState restores state saved by SaveState.
func (s *session) LoadState(r *snapshot.Reader) error {
	s.pos = r.Int()
	if r.Err() == nil && s.pos < 0 {
		return fmt.Errorf("decoded: negative position %d", s.pos)
	}
	s.inDelivery = r.Bool()
	s.tick = r.U64()
	if err := s.m.LoadState(r); err != nil {
		return err
	}
	if err := s.path.LoadState(r); err != nil {
		return err
	}
	if err := s.preds.LoadState(r); err != nil {
		return err
	}
	r.LenExact(len(s.lines))
	for k := range s.lines {
		ln := &s.lines[k]
		ln.valid = r.Bool()
		ln.startIP = r.Addr()
		ln.uops = r.Int()
		ln.stamp = r.U64()
		n := r.Len(10) // 8-byte ip + numUops + class per element
		if err := r.Err(); err != nil {
			return err
		}
		if n > s.f.cfg.LineUops {
			return fmt.Errorf("decoded: line holds %d insts, cap %d", n, s.f.cfg.LineUops)
		}
		ln.insts = ln.insts[:0]
		for j := 0; j < n; j++ {
			ln.insts = append(ln.insts, lineInst{
				ip:      r.Addr(),
				numUops: r.U8(),
				class:   isa.Class(r.U8()),
			})
		}
	}
	return r.Err()
}
