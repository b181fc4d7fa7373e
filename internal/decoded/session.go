package decoded

import (
	"fmt"

	"xbc/internal/cachesim"
	"xbc/internal/frontend"
	"xbc/internal/isa"
	"xbc/internal/snapshot"
	"xbc/internal/trace"
)

// session is one incremental run of the decoded-cache frontend: the Run
// loop with its state (cache lines, fetch path, predictors, counters,
// position) lifted into a struct so it can pause at an outer-loop
// boundary (a delivery line or a build episode finishing).
type session struct {
	frontend.Replay
	f     *Frontend
	lines *cachesim.Table[line]
	// scratch is the per-episode build buffer; its contents are dead
	// between episodes (insert copies into line storage), so it is not
	// part of the snapshot state.
	scratch []lineInst
}

// NewSession returns a cold-state incremental run.
func (f *Frontend) NewSession() frontend.Session {
	return &session{
		Replay:  frontend.NewReplay(f.fecfg, frontend.DefaultICConfig()),
		f:       f,
		lines:   cachesim.NewTable[line](f.cfg.Sets, f.cfg.Ways, 1),
		scratch: make([]lineInst, 0, f.cfg.LineUops),
	}
}

// StepTo simulates delivery lines and build episodes until the position
// reaches target, stopping only at episode boundaries.
func (s *session) StepTo(recs []trace.Rec, target int) int {
	f, m := s.f, &s.M
	i := s.Pos()
	//xbc:hot
	for i < target && i < len(recs) {
		if ln := s.lines.Lookup(uint32(recs[i].IP)); ln != nil {
			s.InDelivery = true
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
				out := s.Preds.Resolve(r, m)
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
		if s.InDelivery {
			s.InDelivery = false
			m.PenaltyCycles += uint64(f.fecfg.BuildEntryPenalty)
		}
		startIP := recs[i].IP
		fill := s.scratch[:0]
		uops := 0
		for i < len(recs) {
			g := s.Path.FetchGroup(recs, i)
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
				if out := s.Preds.Resolve(r, m); out.Mispredicted {
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
			// Reuse the victim line's storage; inserts stop allocating
			// once every line has been filled at least once.
			ln := s.lines.Insert(uint32(startIP))
			ln.uops = uops
			ln.insts = append(ln.insts[:0], fill...)
		} else {
			i++ // defensive progress
		}
	}
	s.Seek(i)
	return i
}

// Finish attaches the extras and finalizes.
func (s *session) Finish() (frontend.Metrics, error) {
	validLines, usedUops := 0, 0
	s.lines.Each(func(ln *line) {
		validLines++
		usedUops += ln.uops
	})
	frag := 0.0
	if validLines > 0 {
		frag = 1 - float64(usedUops)/float64(validLines*s.f.cfg.LineUops)
	}
	s.M.AddExtra("fragmentation", frag)
	return s.Replay.Finish()
}

// SaveState serializes the complete session state.
func (s *session) SaveState(w *snapshot.Writer) {
	s.Replay.SaveState(w)
	s.lines.SaveState(w, func(w *snapshot.Writer, key uint32, ln *line) {
		w.Int(ln.uops)
		w.Len(len(ln.insts))
		prev := isa.Addr(key)
		for _, e := range ln.insts {
			w.AddrFrom(prev, e.ip)
			w.U8(e.numUops)
			w.U8(uint8(e.class))
			prev = e.ip
		}
	})
}

// LoadState restores state saved by SaveState.
func (s *session) LoadState(r *snapshot.Reader) error {
	if err := s.Replay.LoadState(r); err != nil {
		return err
	}
	return s.lines.LoadState(r, func(r *snapshot.Reader, key uint32, ln *line) error {
		ln.uops = r.Int()
		n := r.Len(3) // one-byte address delta, numUops and class per element
		if err := r.Err(); err != nil {
			return err
		}
		if n > s.f.cfg.LineUops {
			return fmt.Errorf("decoded: line holds %d insts, cap %d", n, s.f.cfg.LineUops)
		}
		ln.insts = ln.insts[:0]
		prev := isa.Addr(key)
		for j := 0; j < n; j++ {
			e := lineInst{ip: r.AddrFrom(prev), numUops: r.U8(), class: isa.Class(r.U8())}
			ln.insts = append(ln.insts, e)
			prev = e.ip
		}
		return nil
	})
}
