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
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync/atomic"

	"xbc/internal/corpus"
	"xbc/internal/frontend"
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

// SnapshotKey content-addresses the warm state a run of this spec can
// reuse: the normalized spec minus the run length — the trace generator
// is a deterministic walker, so specs differing only in Uops share a
// stream prefix and hence warm state — and minus the post-run analysis
// knobs (Core) and the rung (Fidelity) that don't shape simulator state;
// plus the warmup point and the snapshot format version, so a format bump
// or a different capture point misses instead of misrestoring.
func (s Spec) SnapshotKey() (string, error) {
	n := s.Normalize()
	if err := n.Validate(); err != nil {
		return "", err
	}
	warmup := SnapshotWarmupUops(n.Uops)
	n.Workload = "" // the resolved program is the trace identity
	n.Uops = 0
	n.Fidelity = ""
	n.Core = nil
	b, err := json.Marshal(struct {
		Spec    Spec   `json:"spec"`
		Warmup  uint64 `json:"warmup"`
		Version uint32 `json:"version"`
	}{n, warmup, snapshot.Version})
	if err != nil {
		return "", fmt.Errorf("jobspec: canonicalizing snapshot key: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
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
			if warmIdx := recIndexAtUops(recs, SnapshotWarmupUops(n.Uops)); warmIdx > 0 && warmIdx < len(recs) {
				ses.StepTo(recs, warmIdx)
				var w snapshot.Writer
				ses.SaveState(&w)
				mgr.Save(key, snapshot.Seal(w.Bytes()))
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

// analysisKey identifies one memoized stream analysis: the analysis is a
// deterministic function of the stream, named by its corpus content key,
// and of the interval configuration.
type analysisKey struct {
	stream   corpus.Key
	interval int
	clusters int
}

// analyses memoizes sampling.Analyze across Execute calls. The analysis
// is frontend-independent and the dominant cost of a sampled cell, so a
// sweep fanning budgets or frontends out over one stream pays it once,
// and concurrent misses on one key coalesce onto one Analyze.
var analyses = lru.New[analysisKey, sampling.Analysis](64)

// analyzeCached returns the memoized analysis for the stream of the
// normalized spec n, computing it on a miss.
func analyzeCached(n Spec, recs []trace.Rec, cfg sampling.Config) (sampling.Analysis, error) {
	stream, err := corpus.KeyFor(*n.Program, n.Uops)
	if err != nil {
		return sampling.Analysis{}, err
	}
	key := analysisKey{stream: stream, interval: cfg.IntervalUops, clusters: cfg.MaxClusters}
	a, _, err := analyses.Do(context.TODO(), key, func() (sampling.Analysis, error) {
		return sampling.Analyze(recs, cfg)
	})
	return a, err
}

// executeSampled runs the sampled or estimate rung through
// internal/sampling.
func executeSampled(n Spec, fe frontend.Frontend, recs []trace.Rec) (Result, error) {
	cfg := SamplingConfig(n.Fidelity)
	a, err := analyzeCached(n, recs, cfg)
	if err != nil {
		return Result{}, err
	}
	sr, err := sampling.RunAnalyzed(fe, recs, frontend.DefaultConfig(), cfg, a)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Metrics:     sr.Metrics,
		Fidelity:    n.Fidelity,
		ErrorBound:  sr.ErrorBound,
		SampledUops: sr.SimulatedUops,
	}, nil
}
