package icfe

import (
	"xbc/internal/frontend"
	"xbc/internal/trace"
)

// session is one incremental run of the IC frontend: the loop body of Run
// with its state (fetch path, predictors, counters, position) lifted into
// a struct, so the run can pause at any fetch-cycle boundary.
type session struct {
	frontend.Replay
	f *Frontend
}

// NewSession returns a cold-state incremental run.
func (f *Frontend) NewSession() frontend.Session {
	return &session{Replay: frontend.NewReplay(f.cfg, f.icCfg), f: f}
}

// StepTo simulates fetch cycles until the position reaches target; it
// only stops at fetch-cycle boundaries, so split runs match whole runs.
func (s *session) StepTo(recs []trace.Rec, target int) int {
	f, m := s.f, &s.M
	i := s.Pos()
	for i < target && i < len(recs) {
		// One fetch cycle: up to ports consecutive runs, stopped early by
		// a misprediction (the re-steer wastes the remaining ports).
		m.DeliveryFetches++
		mispredicted := false
		for p := 0; p < f.ports && i < len(recs) && !mispredicted; p++ {
			g := s.Path.FetchGroup(recs, i)
			m.PenaltyCycles += uint64(g.Stall)
			m.DeliveryPenalty += uint64(g.Stall)
			m.DeliveredUops += uint64(g.Uops)
			for k := 0; k < g.N; k++ {
				r := recs[i+k]
				m.Insts++
				m.Uops += uint64(r.NumUops)
				if out := s.Preds.Resolve(r, m); out.Mispredicted {
					m.PenaltyCycles += uint64(f.cfg.MispredictPenalty)
					m.DeliveryPenalty += uint64(f.cfg.MispredictPenalty)
					mispredicted = true
				}
			}
			i += g.N
		}
	}
	s.Seek(i)
	return i
}
