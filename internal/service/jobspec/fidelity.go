// Fidelity ladder: how Execute trades exactness for throughput.
//
//   - full: every uop through the cycle-level model. Exact. When a
//     snapshot manager is attached the warmup prefix is restored from a
//     warm-state snapshot instead of re-simulated — an exact shortcut
//     (the restore→continue property test guarantees bit-identity), not
//     an approximation.
//   - sampled: cluster-based sampled simulation (internal/sampling):
//     representative intervals in detail, functional warming in between,
//     extrapolated metrics with a per-metric error bound.
//   - estimate: the same machinery degenerated to a single representative
//     window with a widened bound — the cheapest rung, for coarse sweeps.
package jobspec

import (
	"context"
	"sync/atomic"

	"xbc/internal/frontend"
	"xbc/internal/interval"
	"xbc/internal/lru"
	"xbc/internal/sampling"
	"xbc/internal/snapshot"
	"xbc/internal/trace"
)

// Fidelity rungs. The empty string means full: Normalize folds "full"
// into "" so specs submitted before the ladder existed keep their keys.
const (
	FidelityFull     = "full"
	FidelitySampled  = "sampled"
	FidelityEstimate = "estimate"
)

// Fidelities returns the rungs in decreasing-exactness order.
func Fidelities() []string { return []string{FidelityFull, FidelitySampled, FidelityEstimate} }

// ValidFidelity reports whether f names a fidelity rung ("" is full).
func ValidFidelity(f string) bool {
	switch f {
	case "", FidelityFull, FidelitySampled, FidelityEstimate:
		return true
	default:
		return false
	}
}

// SamplingConfig returns the sampling configuration a fidelity rung runs
// with. Full does not sample; it gets the default config for reference.
func SamplingConfig(fidelity string) sampling.Config {
	return sampling.ConfigFor(fidelity)
}

// snapMgr is the process-wide warm-state snapshot manager, attached by
// the service (mirroring corpus.SetStore). nil disables snapshotting;
// Execute then simulates warmup like it always did.
var snapMgr atomic.Pointer[snapshot.Manager]

// SetSnapshotManager attaches (or, with nil, detaches) the warm-state
// snapshot manager consulted by full-fidelity Execute runs.
func SetSnapshotManager(m *snapshot.Manager) { snapMgr.Store(m) }

// ClearSnapshotManager detaches m if it is still the attached manager; a
// manager attached later by someone else is left in place (the same
// contract as corpus.ClearStore).
func ClearSnapshotManager(m *snapshot.Manager) { snapMgr.CompareAndSwap(m, nil) }

// SnapshotManager returns the attached manager, or nil.
func SnapshotManager() *snapshot.Manager { return snapMgr.Load() }

// maxSnapshotWarmup caps the warm-state capture point. The cap, not the
// run length, is what makes snapshots shareable: every run of at least
// twice the cap captures (and can restore) the same prefix state.
const maxSnapshotWarmup = 100_000

// SnapshotWarmupUops is the warm-state capture point for a run of the
// given length: half the run, capped at maxSnapshotWarmup so long runs
// share snapshots and short runs still spend most of their budget past
// the capture point.
func SnapshotWarmupUops(uops uint64) uint64 {
	if w := uops / 2; w < maxSnapshotWarmup {
		return w
	}
	return maxSnapshotWarmup
}

// execute runs the normalized spec n over recs, restoring and saving warm
// state through mgr (nil: none) and taking the stream analysis of a
// sampled rung from analyze. Execute passes the attached caches; the key
// soundness test passes none, to compute each value with caching off.
func execute(n Spec, recs []trace.Rec, mgr *snapshot.Manager, analyze func(Spec, []trace.Rec) (sampling.Analysis, error)) (Result, error) {
	fe, err := n.NewFrontend()
	if err != nil {
		return Result{}, err
	}
	var res Result
	switch n.Fidelity {
	case FidelitySampled, FidelityEstimate:
		var a sampling.Analysis
		var sr sampling.Result
		if a, err = analyze(n, recs); err == nil {
			sr, err = sampling.RunAnalyzed(fe, recs, frontend.DefaultConfig(), SamplingConfig(n.Fidelity), a)
		}
		res = Result{Metrics: sr.Metrics, Fidelity: n.Fidelity, ErrorBound: sr.ErrorBound, SampledUops: sr.SimulatedUops}
	default:
		res, err = executeFull(n, fe, recs, mgr)
	}
	if err != nil {
		return Result{}, err
	}
	if n.Core != nil {
		est, err := interval.FromMetrics(res.Metrics, *n.Core)
		if err != nil {
			return Result{}, err
		}
		res.Estimate = &est
	}
	return res, nil
}

// executeFull runs the exact cycle-level simulation on one session. With
// a snapshot manager, the warmup prefix is restored from the warm state
// saved under the spec's snapshot key, or simulated and saved there; the
// metrics are bit-identical either way. Checked runs pass a nil manager.
func executeFull(n Spec, fe frontend.Frontend, recs []trace.Rec, mgr *snapshot.Manager) (Result, error) {
	ses, hit := fe.NewSession(), false
	if mgr != nil {
		key, err := n.SnapshotKey()
		if err != nil {
			return Result{}, err
		}
		if blob, ok := mgr.Load(key); ok {
			if restored := restoreSession(fe, blob, len(recs)); restored != nil {
				ses, hit = restored, true
			} else {
				mgr.Invalidate(key)
			}
		}
		if !hit {
			if blob, ok := saveWarm(ses, recs, n.Uops); ok {
				mgr.Save(key, blob)
			}
		}
	}
	ses.StepTo(recs, len(recs))
	m, err := ses.Finish()
	if err != nil {
		return Result{}, err
	}
	return Result{Metrics: m, Fidelity: FidelityFull, SnapshotHit: hit}, nil
}

// saveWarm steps ses to the warm-up point of a run of uops over recs and
// returns its sealed warm state, or false when that point is not inside
// the run.
func saveWarm(ses frontend.Session, recs []trace.Rec, uops uint64) ([]byte, bool) {
	warmIdx := recIndexAtUops(recs, SnapshotWarmupUops(uops))
	if warmIdx <= 0 || warmIdx >= len(recs) {
		return nil, false
	}
	ses.StepTo(recs, warmIdx)
	var w snapshot.Writer
	ses.SaveState(&w)
	return snapshot.Seal(w.Bytes()), true
}

// restoreSession opens and decodes a snapshot blob into a fresh session,
// returning nil if the blob is unusable (corrupt, version-skewed, or
// positioned at or beyond this run's end).
func restoreSession(fe frontend.Frontend, blob []byte, limit int) frontend.Session {
	payload, err := snapshot.Open(blob)
	if err != nil {
		return nil
	}
	ses := fe.NewSession()
	if err := ses.LoadState(snapshot.NewReader(payload)); err != nil {
		return nil
	}
	if pos := ses.Pos(); pos <= 0 || pos >= limit {
		return nil
	}
	return ses
}

// recIndexAtUops returns the first record index at which at least uops
// uops have been consumed.
func recIndexAtUops(recs []trace.Rec, uops uint64) int {
	var u uint64
	for i, r := range recs {
		if u >= uops {
			return i
		}
		u += uint64(r.NumUops)
	}
	return len(recs)
}

// analyses memoizes sampling.Analyze across Execute calls. The analysis
// is frontend-independent and the dominant cost of a sampled cell, so a
// sweep fanning budgets or frontends out over one stream pays it once,
// and concurrent misses on one key coalesce onto one Analyze.
var analyses = lru.New[analysisKey, sampling.Analysis](64)

// analyzeCached returns the memoized analysis for the stream of the
// normalized spec n, computing it on a miss.
func analyzeCached(n Spec, recs []trace.Rec) (sampling.Analysis, error) {
	key, err := n.analysisKey()
	if err != nil {
		return sampling.Analysis{}, err
	}
	a, _, err := analyses.Do(context.TODO(), key, func() (sampling.Analysis, error) {
		return sampling.Analyze(recs, SamplingConfig(n.Fidelity))
	})
	return a, err
}
