package icfe

import (
	"fmt"

	"xbc/internal/frontend"
	"xbc/internal/snapshot"
	"xbc/internal/trace"
)

// session is one incremental run of the IC frontend: the loop body of Run
// with its state (fetch path, predictors, counters, position) lifted into
// a struct, so the run can pause at any fetch-cycle boundary.
type session struct {
	f     *Frontend
	m     frontend.Metrics
	path  *frontend.ICPath
	preds *frontend.PredictorSet
	pos   int
}

// NewSession returns a cold-state incremental run.
func (f *Frontend) NewSession() frontend.Session {
	return &session{
		f:     f,
		path:  frontend.NewICPath(f.cfg, f.icCfg),
		preds: frontend.NewPredictorSet(),
	}
}

// Pos returns the current record position.
func (s *session) Pos() int { return s.pos }

// Seek repositions without touching state.
func (s *session) Seek(target int) { s.pos = target }

// StepTo simulates fetch cycles until the position reaches target; it
// only stops at fetch-cycle boundaries, so split runs match whole runs.
func (s *session) StepTo(recs []trace.Rec, target int) int {
	f, m := s.f, &s.m
	i := s.pos
	for i < target && i < len(recs) {
		// One fetch cycle: up to ports consecutive runs, stopped early by
		// a misprediction (the re-steer wastes the remaining ports).
		m.DeliveryFetches++
		mispredicted := false
		for p := 0; p < f.ports && i < len(recs) && !mispredicted; p++ {
			g := s.path.FetchGroup(recs, i)
			m.PenaltyCycles += uint64(g.Stall)
			m.DeliveryPenalty += uint64(g.Stall)
			m.DeliveredUops += uint64(g.Uops)
			for k := 0; k < g.N; k++ {
				r := recs[i+k]
				m.Insts++
				m.Uops += uint64(r.NumUops)
				if out := s.preds.Resolve(r, m); out.Mispredicted {
					m.PenaltyCycles += uint64(f.cfg.MispredictPenalty)
					m.DeliveryPenalty += uint64(f.cfg.MispredictPenalty)
					mispredicted = true
				}
			}
			i += g.N
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
	s.m.AddExtra("ic_miss_rate", s.path.MissRate())
	s.m.Finalize(s.f.cfg)
	return s.m, nil
}

// SaveState serializes the complete session state.
func (s *session) SaveState(w *snapshot.Writer) {
	w.Int(s.pos)
	s.m.SaveState(w)
	s.path.SaveState(w)
	s.preds.SaveState(w)
}

// LoadState restores state saved by SaveState.
func (s *session) LoadState(r *snapshot.Reader) error {
	s.pos = r.Int()
	if r.Err() == nil && s.pos < 0 {
		return fmt.Errorf("icfe: negative position %d", s.pos)
	}
	if err := s.m.LoadState(r); err != nil {
		return err
	}
	if err := s.path.LoadState(r); err != nil {
		return err
	}
	return s.preds.LoadState(r)
}
