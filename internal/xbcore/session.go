package xbcore

import (
	"fmt"

	"xbc/internal/bpred"
	"xbc/internal/frontend"
	"xbc/internal/isa"
	"xbc/internal/snapshot"
	"xbc/internal/trace"
)

// session is one incremental run of the XBC frontend: the committed-block
// loop's state (cache, XBTB complex, XBP, fetch path, previous-XB
// context, counters, position) lifted into a struct so it can pause at a
// committed-block boundary.
type session struct {
	f  *Frontend
	m  frontend.Metrics
	st *runState
	// chk is the cycle-level invariant checker (Config.Check only). A
	// checked session is never snapshotted — jobspec excludes Check runs
	// from both snapshots and sampling — so SaveState/LoadState ignore it.
	chk *checker
	// err is the first invariant violation; once set, StepTo stops.
	err error
	// cur is the per-run cut scratch, reused across iterations so the
	// committed-block loop does not allocate.
	cur      dynXB
	promoted promQuery
	pos      int
}

// NewSession returns a cold-state incremental run.
func (f *Frontend) NewSession() frontend.Session {
	cache, err := NewCache(f.cfg)
	if err != nil {
		panic(err) // geometry was validated at construction
	}
	st := &runState{
		cache: cache,
		xbtb:  NewXBTB(f.cfg),
		xibtb: NewXiBTB(10, 8),
		xrsb:  NewXRSB(f.cfg.XRSBDepth),
		xbp:   f.cfg.newXBP(),
		path:  frontend.NewICPath(f.fecfg, frontend.DefaultICConfig()),
	}
	if f.cfg.NextXB {
		st.nxb = NewXiBTB(12, 10)
	}
	s := &session{
		f:  f,
		st: st,
		cur: dynXB{
			rseq:  make([]isa.UopID, 0, f.cfg.Quota),
			inner: make([]promObs, 0, f.cfg.Quota),
		},
	}
	if f.cfg.Check {
		s.chk = newChecker(f.cfg, cache, st.xbtb)
	}
	s.promoted = func(ip isa.Addr) (bool, bool) {
		if !f.cfg.Promotion {
			return false, false
		}
		return st.xbtb.PromotedDir(ip)
	}
	return s
}

// Pos returns the current record position.
func (s *session) Pos() int { return s.pos }

// Seek repositions without touching state.
func (s *session) Seek(target int) { s.pos = target }

// StepTo simulates committed XBs until the position reaches target,
// stopping only at block boundaries.
func (s *session) StepTo(recs []trace.Rec, target int) int {
	f, st, m := s.f, s.st, &s.m
	i := s.pos
	//xbc:hot
	for i < target && i < len(recs) && s.err == nil {
		cutXBInto(&s.cur, recs, i, f.cfg.Quota, s.promoted)
		cur := &s.cur
		if cur.end == cur.start {
			break // defensive: no progress possible
		}

		// Resolve how fetch reached cur: predict the previous XB's ending
		// branch and obtain the pointer along the committed path.
		follow := f.resolvePrev(st, cur, m)

		if st.delivery {
			if !f.deliverXB(st, cur, follow, m) {
				st.delivery = false
				m.ModeSwitches++
				m.StructMisses++
				st.reasons[st.reason]++
				// Falling out of delivery redirects fetch into the IC
				// path (section 3.5's switch to build mode).
				m.PenaltyCycles += uint64(f.fecfg.BuildEntryPenalty)
				f.buildXB(st, recs, cur, m)
			}
		} else {
			f.buildXB(st, recs, cur, m)
		}

		// Wire pointers from the previous XB to cur and roll the context.
		f.commit(st, cur, m)
		if s.chk != nil {
			if err := s.chk.afterCommit(cur, st.prevEntry); err != nil {
				s.err = err
				i = cur.end
				break
			}
		}
		i = cur.end
	}
	s.pos = i
	return i
}

// Warm functionally warms the IC path and the XBP direction predictor
// over [pos, target). The XB-granularity structures (XBTB, XiBTB, XRSB,
// the cache itself) key on dynamic block identities that only detailed
// simulation produces, so they stay as-is — stale, not cold.
func (s *session) Warm(recs []trace.Rec, target int) {
	frontend.WarmIC(s.st.path, recs, s.pos, target)
	xbp := s.st.xbp
	for i := s.pos; i < target && i < len(recs); i++ {
		if r := recs[i]; r.Class == isa.CondBranch {
			xbp.Update(r.IP, r.Taken)
		}
	}
	s.pos = target
}

// Metrics returns the raw counters accumulated so far.
func (s *session) Metrics() frontend.Metrics { return s.m }

// Finish runs the end-of-stream checker sweep, attaches the extras, and
// finalizes. After a checker violation the extras are skipped and the
// violation is returned with the metrics up to it.
func (s *session) Finish() (frontend.Metrics, error) {
	f, st, m := s.f, s.st, &s.m
	if s.chk != nil && s.err == nil {
		s.err = s.chk.sweep()
	}
	if s.err != nil {
		m.Finalize(f.fecfg)
		return s.m, s.err
	}
	m.AddExtra("redundancy", st.cache.Redundancy())
	m.AddExtra("fragmentation", st.cache.Fragmentation())
	m.AddExtra("ic_miss_rate", st.path.MissRate())
	m.AddExtra("set_searches", float64(st.cache.SetSearches))
	m.AddExtra("bank_conflicts", float64(st.bankConflicts))
	m.AddExtra("promotions", float64(st.xbtb.Promotions))
	m.AddExtra("depromotions", float64(st.xbtb.Depromotions))
	m.AddExtra("prom_violations", float64(st.promViolations))
	m.AddExtra("prom_redirects", float64(st.promRedirects))
	if st.nxb != nil {
		m.AddExtra("nxb_hits", float64(st.nxbHits))
		m.AddExtra("nxb_misses", float64(st.nxbMisses))
	}
	m.AddExtra("complex_xbs", float64(st.cache.ComplexXBs))
	m.AddExtra("extensions", float64(st.cache.Extensions))
	m.AddExtra("replacements", float64(st.cache.Replacements))
	for r, v := range st.reasons {
		if v > 0 {
			m.AddExtra(reasonKeys[r], float64(v))
		}
	}
	m.Finalize(f.fecfg)
	return s.m, nil
}

// SaveState serializes the complete session state.
func (s *session) SaveState(w *snapshot.Writer) {
	st := s.st
	w.Int(s.pos)
	s.m.SaveState(w)
	st.path.SaveState(w)
	st.cache.SaveState(w)
	st.xbtb.SaveState(w)
	st.xibtb.SaveState(w)
	w.Bool(st.nxb != nil)
	if st.nxb != nil {
		st.nxb.SaveState(w)
	}
	st.xrsb.SaveState(w)
	bpred.SaveDir(w, st.xbp)

	w.Int(st.xbtb.entryIndex(st.prevEntry))
	w.U8(uint8(st.prevClass))
	w.U64(uint64(st.prevIP))
	w.Bool(st.prevTaken)
	w.Bool(st.prevViolated)
	w.Bool(st.prevPromoted)
	w.U64(uint64(st.pendingCall))
	w.Bool(st.pendingCallValid)
	savePtr(w, st.retPtr)
	w.Bool(st.retPtrValid)
	w.U64(uint64(st.cycleBanks))
	w.Int(st.cycleXBs)
	w.Int(st.cycleUops)
	w.Bool(st.delivery)
	w.U64(st.bankConflicts)
	w.U64(st.promViolations)
	w.U64(st.promRedirects)
	w.U64(st.nxbHits)
	w.U64(st.nxbMisses)
	for _, v := range st.reasons {
		w.U64(v)
	}
}

// LoadState restores state saved by SaveState.
func (s *session) LoadState(r *snapshot.Reader) error {
	st := s.st
	s.pos = r.Int()
	if r.Err() == nil && s.pos < 0 {
		return fmt.Errorf("xbcore: negative position %d", s.pos)
	}
	if err := s.m.LoadState(r); err != nil {
		return err
	}
	if err := st.path.LoadState(r); err != nil {
		return err
	}
	if err := st.cache.LoadState(r); err != nil {
		return err
	}
	if err := st.xbtb.LoadState(r); err != nil {
		return err
	}
	if err := st.xibtb.LoadState(r); err != nil {
		return err
	}
	hasNXB := r.Bool()
	if r.Err() == nil && hasNXB != (st.nxb != nil) {
		return fmt.Errorf("xbcore: snapshot next-XB predictor mismatch")
	}
	if st.nxb != nil {
		if err := st.nxb.LoadState(r); err != nil {
			return err
		}
	}
	if err := st.xrsb.LoadState(r); err != nil {
		return err
	}
	if err := bpred.LoadDir(r, st.xbp); err != nil {
		return err
	}

	prevIdx := r.Int()
	if r.Err() == nil {
		e, err := st.xbtb.entryAt(prevIdx)
		if err != nil {
			return err
		}
		st.prevEntry = e
	}
	st.prevClass = isa.Class(r.U8())
	st.prevIP = isa.Addr(r.U64())
	st.prevTaken = r.Bool()
	st.prevViolated = r.Bool()
	st.prevPromoted = r.Bool()
	st.pendingCall = isa.Addr(r.U64())
	st.pendingCallValid = r.Bool()
	st.retPtr = loadPtr(r)
	st.retPtrValid = r.Bool()
	st.cycleBanks = uint(r.U64())
	st.cycleXBs = r.Int()
	st.cycleUops = r.Int()
	st.delivery = r.Bool()
	st.bankConflicts = r.U64()
	st.promViolations = r.U64()
	st.promRedirects = r.U64()
	st.nxbHits = r.U64()
	st.nxbMisses = r.U64()
	for k := range st.reasons {
		st.reasons[k] = r.U64()
	}
	return r.Err()
}
