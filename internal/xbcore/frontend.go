package xbcore

import (
	"xbc/internal/bpred"
	"xbc/internal/frontend"
	"xbc/internal/isa"
	"xbc/internal/trace"
)

// Frontend is the XBC-based instruction supply of Figure 6: an IC/decoder
// path that feeds both the renamer (build mode) and the XFU fill unit, an
// XBC reached only through the XBTB, and a decoupling queue to the
// renamer. It replays a committed stream XB by XB:
//
//   - in delivery mode the XBTB chain supplies pointers to the next XBs,
//     the XBP (GSHARE) picks between taken/fall-through pointers, the
//     XiBTB supplies indirect successors and the XRSB return successors;
//     mispredictions charge a re-steer penalty; pointer misses and stale
//     pointers (misfetches) switch to build mode, since the XBC cannot be
//     looked up by target address (section 3.5);
//   - in build mode uops come from the IC path while the XFU assembles
//     XBs into the XBC and wires XBTB pointers; finding the block already
//     resident switches back to delivery.
type Frontend struct {
	cfg   Config
	fecfg frontend.Config
}

// New returns an XBC frontend with the given cache and timing
// configuration.
func New(cfg Config, fecfg frontend.Config) *Frontend {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Frontend{cfg: cfg, fecfg: fecfg}
}

// Name identifies the model.
func (f *Frontend) Name() string { return "xbc" }

// runState carries the per-run simulation state.
type runState struct {
	cache *Cache
	xbtb  *XBTB
	xibtb *XiBTB
	nxb   *XiBTB // next-XB predictor (optional; same structure as XiBTB)
	xrsb  *XRSB
	xbp   bpred.DirPredictor
	path  *frontend.ICPath

	// Previous-XB context (the paper's XB_-1 pointer).
	prevEntry    *Entry
	prevClass    isa.Class
	prevIP       isa.Addr
	prevTaken    bool
	prevViolated bool
	prevPromoted bool
	// pendingCall is the call whose Fall pointer should be wired to the
	// XB following the just-executed return.
	pendingCall      isa.Addr
	pendingCallValid bool
	// popped return pointer, consumed when the successor is examined.
	retPtr      Ptr
	retPtrValid bool

	// Delivery fetch-cycle packing state (dual fetch, bank conflicts).
	cycleBanks uint
	cycleXBs   int
	cycleUops  int

	delivery bool

	bankConflicts  uint64
	promViolations uint64
	promRedirects  uint64
	nxbHits        uint64
	nxbMisses      uint64

	// reasons counts why delivery was abandoned, for diagnostics. The
	// hot path records an enum index; the string names the metrics report
	// uses are materialized once, at the end of the run.
	reasons [numAbandonReasons]uint64
	reason  abandonReason
}

// abandonReason enumerates why deliverXB refused to supply a block, one
// index per former "reasons" map key: an XBC data-array miss, an invalid
// pointer after each previous-XB class, or a stale pointer after each
// previous-XB class. Indexing by a small integer keeps the per-abandon
// bookkeeping allocation-free; reasonKey reconstructs the report string.
type abandonReason uint16

const (
	abandonXBCMiss    abandonReason = 0
	abandonPtrInvalid abandonReason = 1                                                 // + previous XB's isa.Class
	abandonPtrStale   abandonReason = abandonPtrInvalid + abandonReason(isa.NumClasses) // + class
	numAbandonReasons               = 1 + 2*isa.NumClasses
)

// reasonKey renders the Metrics.Extra key for one reason index, matching
// the keys the former string-keyed map produced.
func reasonKey(r abandonReason) string {
	switch {
	case r == abandonXBCMiss:
		return "reason_xbc_miss"
	case r < abandonPtrStale:
		return "reason_ptr_invalid_" + isa.Class(r-abandonPtrInvalid).String()
	default:
		return "reason_ptr_stale_" + isa.Class(r-abandonPtrStale).String()
	}
}

// charge adds a misprediction penalty to the metrics (suppressed in the
// oracle limit study, where prediction is perfect).
func (f *Frontend) charge(st *runState, m *frontend.Metrics, c int) {
	if f.cfg.Oracle {
		return
	}
	m.PenaltyCycles += uint64(c)
	if st.delivery {
		m.DeliveryPenalty += uint64(c)
	}
}

// oracleFollow models the oracle limit where the fetch engine always
// knows the successor's location if the block is resident at all.
func (f *Frontend) oracleFollow(st *runState, cur *dynXB) Ptr {
	return st.cache.LocatePtr(cur.endIP, cur.rseq, cur.uops)
}

// resolvePrev predicts the previous XB's ending transfer, charges
// misprediction penalties, and returns the XBTB pointer along the
// committed path toward cur (invalid = XBTB miss / misfetch).
//
//xbc:hot
func (f *Frontend) resolvePrev(st *runState, cur *dynXB, m *frontend.Metrics) Ptr {
	if st.prevEntry == nil {
		return Ptr{}
	}
	// Next-XB prediction ([Jaco97]-style): a direct hit supplies the
	// successor pointer without spending a per-branch prediction; a miss
	// falls through to the standard XBP/XBTB/XiBTB/XRSB chain with its
	// usual penalties.
	if st.nxb != nil {
		if pred, ok := st.nxb.Predict(st.prevIP); ok && pred.Matches(cur.endIP, cur.uops) {
			st.nxbHits++
			// Keep the direction predictor and statistics warm.
			switch st.prevClass {
			case isa.CondBranch:
				if !st.prevPromoted {
					m.CondExec++
					st.xbp.Update(st.prevIP, st.prevTaken)
				}
			case isa.IndirectJump, isa.IndirectCall:
				m.IndExec++
			case isa.Return:
				m.RetExec++
				// The XRSB was already popped when the return-ending XB
				// committed; just consume the pending pointer.
				st.retPtrValid = false
			default:
				// Call, Jump, Seq: unconditional along the committed path;
				// no predictor to keep warm.
			}
			return pred
		}
		st.nxbMisses++
	}
	var follow Ptr
	switch st.prevClass {
	case isa.CondBranch:
		if st.prevPromoted {
			// Promoted: fetch assumed the promoted direction; no XBP
			// prediction was spent. A violation is a misfetch with a
			// full re-steer penalty.
			if st.prevViolated {
				f.charge(st, m, f.fecfg.MispredictPenalty)
				st.promViolations++
			}
		} else {
			m.CondExec++
			pred := st.xbp.Predict(st.prevIP)
			st.xbp.Update(st.prevIP, st.prevTaken)
			if pred != st.prevTaken {
				m.CondMiss++
				f.charge(st, m, f.fecfg.MispredictPenalty)
			}
		}
		if st.prevTaken {
			follow = st.prevEntry.Taken
		} else {
			follow = st.prevEntry.Fall
		}
	case isa.Call:
		follow = st.prevEntry.Taken
	case isa.IndirectJump, isa.IndirectCall:
		m.IndExec++
		pred, ok := st.xibtb.Predict(st.prevIP)
		if !ok || !pred.Matches(cur.endIP, cur.uops) {
			m.IndMiss++
			f.charge(st, m, f.fecfg.MispredictPenalty)
			if f.cfg.Oracle {
				follow = f.oracleFollow(st, cur)
			} else {
				// The correct successor cannot be located by target
				// address (section 3.5): only a matching XiBTB pointer
				// keeps us in delivery mode.
				follow = Ptr{}
			}
		} else {
			follow = pred
		}
	case isa.Return:
		m.RetExec++
		if !st.retPtrValid || !st.retPtr.Matches(cur.endIP, cur.uops) {
			m.RetMiss++
			f.charge(st, m, f.fecfg.MispredictPenalty)
			if f.cfg.Oracle {
				follow = f.oracleFollow(st, cur)
			} else {
				follow = Ptr{}
			}
		} else {
			follow = st.retPtr
		}
	default: // isa.Seq: quota cut, single successor
		follow = st.prevEntry.Taken
	}
	return follow
}

// deliverXB tries to supply cur from the XBC; returns false on any miss
// (caller switches to build mode).
//
//xbc:hot
func (f *Frontend) deliverXB(st *runState, cur *dynXB, follow Ptr, m *frontend.Metrics) bool {
	if !follow.Valid {
		st.reason = abandonPtrInvalid + abandonReason(st.prevClass)
		return false
	}
	if !follow.Matches(cur.endIP, cur.uops) {
		// Stale pointer. If it names a block that has since been promoted
		// into a combined XB, its XBTB entry forwards us there with a
		// one-cycle penalty instead of a build switch (section 3.8).
		if e0, ok := st.xbtb.Lookup(follow.EndIP); ok && e0.Promoted && e0.PromotedTo.Valid &&
			e0.PromotedTo.EndIP == cur.endIP && int(follow.Offset)+int(e0.PromotedTo.Offset) == cur.uops {
			res := st.cache.FetchPtr(e0.PromotedTo, cur.uops, cur.rseq)
			if res.OK {
				m.PenaltyCycles++
				m.DeliveryPenalty++
				f.packFetch(st, cur, e0.PromotedTo, res.Banks, m)
				m.Insts += uint64(cur.end - cur.start)
				m.Uops += uint64(cur.uops)
				m.DeliveredUops += uint64(cur.uops)
				st.promRedirects++
				return true
			}
		}
		st.reason = abandonPtrStale + abandonReason(st.prevClass)
		return false
	}
	res := st.cache.FetchPtr(follow, cur.uops, cur.rseq)
	if !res.OK {
		st.reason = abandonXBCMiss
		return false
	}
	if res.Searched {
		// Set search costs a cycle but avoids the build switch (3.9).
		m.PenaltyCycles++
		m.DeliveryPenalty++
	}
	f.packFetch(st, cur, follow, res.Banks, m)
	m.Insts += uint64(cur.end - cur.start)
	m.Uops += uint64(cur.uops)
	m.DeliveredUops += uint64(cur.uops)
	return true
}

// packFetch performs the fetch-cycle accounting: up to two XBs per cycle
// (the XBTB supplies two pointers), subject to bank conflicts and the
// 16-uop fetch width. Conflicting blocks are deferred to the next cycle
// and feed the dynamic-placement counters (section 3.10).
//
//xbc:hot
func (f *Frontend) packFetch(st *runState, cur *dynXB, p Ptr, banks uint, m *frontend.Metrics) {
	fetchWidth := f.cfg.Banks * f.cfg.BankUops
	if f.cfg.XBsPerCycle <= 1 {
		m.DeliveryFetches++
		return
	}
	conflict := st.cycleBanks&banks != 0
	if st.cycleXBs >= 1 && !conflict && st.cycleXBs < f.cfg.XBsPerCycle && st.cycleUops+cur.uops <= fetchWidth {
		// Packs into the current cycle alongside the previous XB(s).
		st.cycleBanks |= banks
		st.cycleXBs++
		st.cycleUops += cur.uops
		if st.cycleXBs == f.cfg.XBsPerCycle {
			st.cycleXBs, st.cycleBanks, st.cycleUops = 0, 0, 0
		}
		return
	}
	if st.cycleXBs >= 1 && conflict {
		st.bankConflicts++
		st.cache.NoteConflictPtr(p, cur.uops, st.cycleBanks&banks)
	}
	// Start a new fetch cycle with cur.
	m.DeliveryFetches++
	st.cycleBanks = banks
	st.cycleXBs = 1
	st.cycleUops = cur.uops
}

// buildXB supplies cur through the IC path while the XFU assembles and
// stores it, then wires the mode-switch condition.
func (f *Frontend) buildXB(st *runState, recs []trace.Rec, cur *dynXB, m *frontend.Metrics) {
	// Decode groups cover exactly this XB's records.
	for j := cur.start; j < cur.end; {
		g := st.path.FetchGroup(recs[:cur.end], j)
		if g.N == 0 {
			g.N = 1
			g.Uops = int(recs[j].NumUops)
		}
		m.BuildCycles += uint64(1 + g.Stall)
		j += g.N
	}
	m.Insts += uint64(cur.end - cur.start)
	m.Uops += uint64(cur.uops)
	m.BuildUops += uint64(cur.uops)

	avoid := st.cycleBanks // smart placement dodges the in-flight banks
	_, _, resident := st.cache.Insert(cur.endIP, cur.rseq, avoid)
	if resident {
		// The XB was already in the XBC: XBC hit + XBTB hit switches
		// back to delivery (section 3.5).
		if !st.delivery {
			st.delivery = true
			m.ModeSwitches++
		}
	}
}

// commit wires XBTB state after cur has been supplied: allocates/refreshes
// cur's entry, updates the previous XB's pointer along the committed path,
// trains promotion counters, and maintains the XRSB and its learning
// shadow stack.
//
//xbc:hot
func (f *Frontend) commit(st *runState, cur *dynXB, m *frontend.Metrics) {
	e := st.xbtb.Ensure(cur.endIP, cur.class)
	curPtr := st.cache.LocatePtr(cur.endIP, cur.rseq, cur.uops)

	if st.nxb != nil && st.prevEntry != nil && curPtr.Valid {
		st.nxb.Update(st.prevIP, curPtr)
	}

	// Wire the previous XB's successor pointer along the committed path.
	if st.prevEntry != nil && curPtr.Valid {
		switch st.prevClass {
		case isa.CondBranch:
			if st.prevTaken {
				st.prevEntry.Taken = curPtr
			} else {
				st.prevEntry.Fall = curPtr
			}
		case isa.Call:
			st.prevEntry.Taken = curPtr
		case isa.IndirectJump, isa.IndirectCall:
			st.xibtb.Update(st.prevIP, curPtr)
		case isa.Return:
			if st.pendingCallValid {
				ce := st.xbtb.Ensure(st.pendingCall, isa.Call)
				ce.Fall = curPtr
			}
		default: // quota cut
			st.prevEntry.Taken = curPtr
		}
	}
	st.pendingCallValid = false
	st.retPtrValid = false

	// Promotion counter training: the ending branch (when it is a live,
	// non-promoted conditional) and every promoted branch traversed
	// inside the block (the counter keeps gathering statistics, 3.8).
	if cur.class == isa.CondBranch && !cur.endPromoted {
		st.xbtb.Train(e, cur.taken, f.cfg)
	}
	if cur.violated {
		st.xbtb.Train(e, cur.taken, f.cfg)
	}
	for _, obs := range cur.inner {
		pe := st.xbtb.Ensure(obs.ip, isa.CondBranch)
		st.xbtb.Train(pe, obs.taken, f.cfg)
		if pe.Promoted && curPtr.Valid {
			// Record where the combined block lives and the tail length
			// past this branch, so stale pointers to the old block can
			// redirect regardless of their entry point (section 3.8).
			pe.PromotedTo = Ptr{EndIP: curPtr.EndIP, Variant: curPtr.Variant, Offset: int32(cur.uops - obs.cum), Valid: true, vref: curPtr.vref}
		}
	}

	// Return-stack maintenance: push the call entry reference; at the
	// return, read the after-return pointer out of that entry (it may
	// have been learned since the push) and remember the call for the
	// XB_ret pointer update.
	switch cur.class {
	case isa.Call, isa.IndirectCall:
		st.xrsb.Push(cur.endIP)
	case isa.Return:
		callIP, ok := st.xrsb.Pop()
		st.retPtrValid = false
		if ok {
			if ce, found := st.xbtb.Lookup(callIP); found {
				st.retPtr, st.retPtrValid = ce.Fall, ce.Fall.Valid
			}
			st.pendingCall = callIP
			st.pendingCallValid = true
		}
	default:
		// CondBranch, IndirectJump, Jump, Seq: no return-stack activity.
	}

	st.prevEntry = e
	st.prevClass = cur.class
	st.prevIP = cur.endIP
	st.prevTaken = cur.taken
	st.prevViolated = cur.violated
	st.prevPromoted = cur.endPromoted
}

var _ frontend.Frontend = (*Frontend)(nil)
