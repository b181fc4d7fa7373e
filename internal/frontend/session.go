package frontend

import (
	"xbc/internal/bpred"
	"xbc/internal/isa"
	"xbc/internal/snapshot"
	"xbc/internal/trace"
)

// Session is an incremental run of one frontend over one record stream,
// split at outer-loop boundaries so the caller can pause it (to snapshot
// warm state), fast-forward it (the sampled fidelity's functional
// warming), and resume it. Run is a session stepped straight from 0 to
// the end; the session property tests assert that pausing, snapshotting
// and resuming it produces bit-identical metrics.
type Session interface {
	// Pos returns the current record position.
	Pos() int
	// StepTo simulates from the current position until it reaches at
	// least target (a record index), returning the new position. It may
	// overrun target by finishing the fetch group or block it is in —
	// stopping only at outer-loop boundaries is what makes split runs
	// bit-identical to uninterrupted ones.
	StepTo(recs []trace.Rec, target int) int
	// Warm functionally warms the predictors and the instruction cache
	// over recs[pos:target] without simulating timing or structure
	// contents, then sets the position to target. No metric moves.
	Warm(recs []trace.Rec, target int)
	// Seek sets the position without touching any state (used to skip
	// regions outside the warming window in sampled mode).
	Seek(target int)
	// Metrics returns a copy of the raw (pre-Finalize, extras-free)
	// counters accumulated so far, for per-interval deltas.
	Metrics() Metrics
	// Finish computes the structure-specific extras and finalizes the
	// metrics, ending the run. The error is the first invariant violation
	// a checking session detected (the XBC with Config.Check); the
	// metrics then cover the run up to it.
	Finish() (Metrics, error)
	// SaveState serializes the complete session state, position included.
	SaveState(w *snapshot.Writer)
	// LoadState restores state saved by SaveState into a session built
	// from the same spec. On error the session is unusable.
	LoadState(r *snapshot.Reader) error
}

// WarmPath is the shared functional-warming loop: it trains the full
// predictor set with each control-flow record and touches the
// instruction cache line of every record, but charges no cycles and
// moves no metric counters. This is what makes fast-forwarding an order
// of magnitude cheaper than detailed simulation while keeping the
// microarchitectural state warm enough for the error bounds to hold.
//
//xbc:hot
func WarmPath(path *ICPath, ps *PredictorSet, recs []trace.Rec, pos, target int) {
	var scratch Metrics // counters discarded; Resolve needs somewhere to count
	prevLine := uint64(0)
	havePrev := false
	for i := pos; i < target && i < len(recs); i++ {
		r := recs[i]
		if line := path.ic.LineOf(uint64(r.IP)); !havePrev || line != prevLine {
			path.ic.Access(uint64(r.IP))
			prevLine, havePrev = line, true
		}
		if r.Class != isa.Seq {
			ps.Resolve(r, &scratch)
		}
	}
}

// WarmIC is the IC-only half of WarmPath, for frontends that keep their
// own direction/target predictors (the XBC core) and warm those
// themselves: it touches the instruction-cache line of every record but
// trains no shared predictor and moves no metric counters.
//
//xbc:hot
func WarmIC(path *ICPath, recs []trace.Rec, pos, target int) {
	prevLine := uint64(0)
	havePrev := false
	for i := pos; i < target && i < len(recs); i++ {
		ip := uint64(recs[i].IP)
		if line := path.ic.LineOf(ip); !havePrev || line != prevLine {
			path.ic.Access(ip)
			prevLine, havePrev = line, true
		}
	}
}

// SaveState appends the path's dynamic state (IC contents + counters).
func (p *ICPath) SaveState(w *snapshot.Writer) {
	p.ic.SaveState(w)
	w.U64(p.Accesses)
	w.U64(p.Misses)
}

// LoadState restores state saved by SaveState.
func (p *ICPath) LoadState(r *snapshot.Reader) error {
	if err := p.ic.LoadState(r); err != nil {
		return err
	}
	p.Accesses = r.U64()
	p.Misses = r.U64()
	return r.Err()
}

// SaveState appends every predictor's dynamic state.
func (ps *PredictorSet) SaveState(w *snapshot.Writer) {
	bpred.SaveDir(w, ps.Dir)
	ps.BTB.SaveState(w)
	ps.RAS.SaveState(w)
	ps.Ind.SaveState(w)
}

// LoadState restores state saved by SaveState into a same-configuration
// predictor set.
func (ps *PredictorSet) LoadState(r *snapshot.Reader) error {
	if err := bpred.LoadDir(r, ps.Dir); err != nil {
		return err
	}
	if err := ps.BTB.LoadState(r); err != nil {
		return err
	}
	if err := ps.RAS.LoadState(r); err != nil {
		return err
	}
	return ps.Ind.LoadState(r)
}

// SaveState appends the metrics counters (Extra map in sorted key order).
func (m *Metrics) SaveState(w *snapshot.Writer) {
	w.U64(m.Insts)
	w.U64(m.Uops)
	w.U64(m.DeliveredUops)
	w.U64(m.BuildUops)
	w.U64(m.DeliveryFetches)
	w.U64(m.DeliveryCycles)
	w.U64(m.BuildCycles)
	w.U64(m.PenaltyCycles)
	w.U64(m.DeliveryPenalty)
	w.U64(m.CondExec)
	w.U64(m.CondMiss)
	w.U64(m.IndExec)
	w.U64(m.IndMiss)
	w.U64(m.RetExec)
	w.U64(m.RetMiss)
	w.U64(m.StructMisses)
	w.U64(m.ModeSwitches)
	w.StringMapF64(m.Extra)
}

// LoadState restores counters saved by SaveState.
func (m *Metrics) LoadState(r *snapshot.Reader) error {
	m.Insts = r.U64()
	m.Uops = r.U64()
	m.DeliveredUops = r.U64()
	m.BuildUops = r.U64()
	m.DeliveryFetches = r.U64()
	m.DeliveryCycles = r.U64()
	m.BuildCycles = r.U64()
	m.PenaltyCycles = r.U64()
	m.DeliveryPenalty = r.U64()
	m.CondExec = r.U64()
	m.CondMiss = r.U64()
	m.IndExec = r.U64()
	m.IndMiss = r.U64()
	m.RetExec = r.U64()
	m.RetMiss = r.U64()
	m.StructMisses = r.U64()
	m.ModeSwitches = r.U64()
	m.Extra = r.StringMapF64()
	return r.Err()
}
