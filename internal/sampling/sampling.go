package sampling

import (
	"fmt"
	"math"

	"xbc/internal/frontend"
	"xbc/internal/interval"
	"xbc/internal/trace"
)

// Config tunes the sampled run.
type Config struct {
	// IntervalUops is the fixed interval size in uops.
	IntervalUops int
	// MaxClusters bounds how many representative intervals are simulated
	// in detail (the K of k-center). 1 degenerates into the `estimate`
	// fidelity: one window, wide bounds.
	MaxClusters int
	// WarmupUops is the functional-warming window replayed before each
	// representative whose predecessor interval was skipped.
	WarmupUops int
	// BoundScale widens (>1) or tightens (<1) the advertised error
	// bounds; the `estimate` fidelity runs with a larger scale.
	BoundScale float64
}

// DefaultConfig is tuned so that a default-length run (1M uops) simulates
// well under 10% of its uops in detail while keeping the mean IPC error
// in the low single-digit percent across the 21 paper workloads (the
// error-bound harness in internal/service/jobspec asserts this).
func DefaultConfig() Config {
	return Config{IntervalUops: 20_000, MaxClusters: 4, WarmupUops: 30_000, BoundScale: 1}
}

// estimateBoundScale widens the advertised error bounds for the
// `estimate` rung: a two-window extrapolation is honest about being a
// rough cut.
const estimateBoundScale = 3.0

// ConfigFor maps a fidelity rung name to its sampling configuration:
// "sampled" runs the default config; "estimate" keeps only the
// cold-start interval (which stands for itself alone) plus one
// steady-state window, with bounds widened to match. Any other name —
// including "" and "full" — also gets the default config; callers
// decide whether sampling applies at all.
func ConfigFor(fidelity string) Config {
	cfg := DefaultConfig()
	if fidelity == "estimate" {
		cfg.MaxClusters = 2
		cfg.BoundScale = estimateBoundScale
	}
	return cfg
}

// Validate reports the first problem with the configuration.
func (c Config) Validate() error {
	if c.IntervalUops < 1024 {
		return fmt.Errorf("sampling: interval of %d uops is below the 1024-uop floor", c.IntervalUops)
	}
	if c.MaxClusters < 1 {
		return fmt.Errorf("sampling: need at least one cluster, got %d", c.MaxClusters)
	}
	if c.WarmupUops < 0 {
		return fmt.Errorf("sampling: negative warmup %d", c.WarmupUops)
	}
	if c.BoundScale <= 0 {
		return fmt.Errorf("sampling: bound scale %g must be positive", c.BoundScale)
	}
	return nil
}

// Result is one sampled run.
type Result struct {
	// Metrics is the extrapolated full-run metrics: counter fields are
	// scaled up from the simulated representatives (Insts and Uops are
	// exact, taken from the trace itself), derived cycle counts are
	// re-finalized from the scaled counters, and the Extra measurements
	// reflect the state of the structures the sample actually built.
	Metrics frontend.Metrics
	// ErrorBound maps derived-metric names ("ipc", "uop_miss_rate") to
	// the absolute error the extrapolation advertises; the harness in
	// jobspec checks the advertised bound against ground truth.
	ErrorBound map[string]float64
	// SimulatedUops counts uops simulated in detail; WarmedUops counts
	// uops replayed through functional warming only.
	SimulatedUops uint64
	WarmedUops    uint64
	// Intervals and Representatives describe the clustering.
	Intervals       int
	Representatives int
	// Boundaries holds the interval boundaries used (first record index
	// per interval plus the final sentinel).
	Boundaries []int
}

// Analysis is the stream-analysis half of a sampled run: interval
// boundaries, feature clustering, representative selection, and cluster
// uop weights. It is a pure, deterministic function of (recs, cfg) and
// independent of the frontend being sampled, so callers fanning many
// configurations out over one stream (a budget or frontend sweep) may
// compute it once and share it across runs — it is the dominant cost of
// a sampled cell once the detailed simulation shrinks to a few windows.
type Analysis struct {
	// Boundaries holds the first record index of each interval plus the
	// final sentinel; Intervals == len(Boundaries)-1.
	Boundaries []int
	// Exact marks a stream too short to sample (every interval would be
	// a representative): run it in full, the result is exact.
	Exact bool
	// Reps maps cluster -> representative interval index; Clusters maps
	// interval -> cluster; Weights holds the total trace uops each
	// representative stands for.
	Reps     []int
	Clusters []int
	Weights  []float64
	// TotalUops is the exact uop count of the whole stream.
	TotalUops uint64
}

// Analyze computes the stream analysis for one (stream, config) pair.
func Analyze(recs []trace.Rec, cfg Config) (Analysis, error) {
	if err := cfg.Validate(); err != nil {
		return Analysis{}, err
	}
	bounds := interval.Boundaries(recs, cfg.IntervalUops)
	n := len(bounds) - 1
	a := Analysis{Boundaries: bounds, TotalUops: uopsIn(recs, 0, len(recs))}
	if n <= 1 || n <= cfg.MaxClusters {
		a.Exact = true
		return a, nil
	}
	feats := make([][featureDim]float64, n)
	for k := 0; k < n; k++ {
		feats[k] = featureVector(recs, bounds[k], bounds[k+1])
	}
	a.Reps = kCenter(feats, cfg.MaxClusters)
	a.Clusters = assign(feats, a.Reps)
	// Cluster weights: total uops of the intervals each representative
	// stands for (exact, from the trace).
	a.Weights = make([]float64, len(a.Reps))
	for k := 0; k < n; k++ {
		a.Weights[a.Clusters[k]] += float64(uopsIn(recs, bounds[k], bounds[k+1]))
	}
	return a, nil
}

// Run executes a sampled simulation of recs through a fresh session of
// fe. The interval boundaries, clustering, and warming windows are pure
// functions of the stream and cfg, so a sampled run is as deterministic
// as a full one.
func Run(fe frontend.Frontend, recs []trace.Rec, fecfg frontend.Config, cfg Config) (Result, error) {
	a, err := Analyze(recs, cfg)
	if err != nil {
		return Result{}, err
	}
	return RunAnalyzed(fe, recs, fecfg, cfg, a)
}

// RunAnalyzed is Run with the stream analysis supplied by the caller —
// necessarily one produced by Analyze over the same recs and cfg (the
// analysis is deterministic, so a cached copy is indistinguishable from
// a fresh one). An analysis whose final boundary is not the end of recs
// was made for another stream and is rejected.
func RunAnalyzed(fe frontend.Frontend, recs []trace.Rec, fecfg frontend.Config, cfg Config, a Analysis) (Result, error) {
	n := len(a.Boundaries) - 1
	if n < 0 || a.Boundaries[n] != len(recs) {
		return Result{}, fmt.Errorf("sampling: analysis does not cover this %d-record stream", len(recs))
	}
	res := Result{Intervals: n, Boundaries: a.Boundaries}
	ses := fe.NewSession()
	if a.Exact {
		// Too short to sample: every interval would be a representative,
		// so run it in full. The result is exact; the bounds are zero.
		ses.StepTo(recs, len(recs))
		m, err := ses.Finish()
		if err != nil {
			return Result{}, err
		}
		res.Metrics = m
		res.ErrorBound = map[string]float64{"ipc": 0, "uop_miss_rate": 0}
		res.SimulatedUops = m.Uops
		res.Representatives = n
		return res, nil
	}
	bounds, reps, weights := a.Boundaries, a.Reps, a.Weights
	res.Representatives = len(reps)

	// Simulate the representatives in stream order on one session: the
	// structures persist across skips (stale, not cold), and each
	// representative gets a bounded functional-warming window first.
	deltas := make([]frontend.Metrics, len(reps))
	repOf := make(map[int]int, len(reps)) // interval index -> cluster
	for c, r := range reps {
		repOf[r] = c
	}
	for k := 0; k < n; k++ {
		c, isRep := repOf[k]
		if !isRep {
			continue
		}
		start, end := bounds[k], bounds[k+1]
		warmStart := warmStartIndex(recs, start, cfg.WarmupUops)
		if ses.Pos() < warmStart {
			ses.Seek(warmStart)
		}
		if pos := ses.Pos(); pos < start {
			res.WarmedUops += uopsIn(recs, pos, start)
			ses.Warm(recs, start)
		}
		if ses.Pos() >= end {
			continue // swallowed by the previous episode's overshoot
		}
		before := ses.Metrics()
		ses.StepTo(recs, end)
		deltas[c] = sub(ses.Metrics(), before)
	}
	final, err := ses.Finish() // extras from the structures the sample built
	if err != nil {
		return Result{}, err
	}

	// Extrapolate: scale each cluster's raw counters by its uop weight,
	// then finalize the combined counters exactly like a full run would.
	var acc scaledCounters
	samples := make([]interval.IntervalSample, 0, len(reps))
	for c := range reps {
		d := deltas[c]
		if d.Uops == 0 {
			// Nothing simulated for this cluster (overshoot edge case);
			// its weight is redistributed implicitly by the ratio below.
			continue
		}
		res.SimulatedUops += d.Uops
		acc.add(d, weights[c]/float64(d.Uops))
		est, err := deriveEstimate(d, fecfg)
		if err == nil {
			samples = append(samples, interval.IntervalSample{Est: est, Weight: weights[c]})
		}
	}
	if res.SimulatedUops == 0 {
		return Result{}, fmt.Errorf("sampling: no representative produced uops")
	}
	m := acc.metrics()
	m.Insts = uint64(len(recs))
	m.Uops = a.TotalUops
	m.Extra = final.Extra
	m.Finalize(fecfg)
	res.Metrics = m
	res.ErrorBound = bounds2(samples, m, cfg.BoundScale)
	return res, nil
}

// uopsIn sums the uop counts of recs[start:end).
func uopsIn(recs []trace.Rec, start, end int) uint64 {
	var u uint64
	for i := start; i < end; i++ {
		u += uint64(recs[i].NumUops)
	}
	return u
}

// warmStartIndex walks back from start until about warmupUops uops have
// been gathered, returning the record index the warming window begins at.
func warmStartIndex(recs []trace.Rec, start, warmupUops int) int {
	u := 0
	i := start
	for i > 0 && u < warmupUops {
		i--
		u += int(recs[i].NumUops)
	}
	return i
}

// sub returns the counter-wise difference a-b (Extra ignored: sessions
// attach extras only at Finish).
func sub(a, b frontend.Metrics) frontend.Metrics {
	return frontend.Metrics{
		Insts:           a.Insts - b.Insts,
		Uops:            a.Uops - b.Uops,
		DeliveredUops:   a.DeliveredUops - b.DeliveredUops,
		BuildUops:       a.BuildUops - b.BuildUops,
		DeliveryFetches: a.DeliveryFetches - b.DeliveryFetches,
		BuildCycles:     a.BuildCycles - b.BuildCycles,
		PenaltyCycles:   a.PenaltyCycles - b.PenaltyCycles,
		DeliveryPenalty: a.DeliveryPenalty - b.DeliveryPenalty,
		CondExec:        a.CondExec - b.CondExec,
		CondMiss:        a.CondMiss - b.CondMiss,
		IndExec:         a.IndExec - b.IndExec,
		IndMiss:         a.IndMiss - b.IndMiss,
		RetExec:         a.RetExec - b.RetExec,
		RetMiss:         a.RetMiss - b.RetMiss,
		StructMisses:    a.StructMisses - b.StructMisses,
		ModeSwitches:    a.ModeSwitches - b.ModeSwitches,
	}
}

// scaledCounters accumulates weighted counter contributions in floating
// point, rounding once at the end.
type scaledCounters struct {
	deliveredUops, buildUops, deliveryFetches    float64
	buildCycles, penaltyCycles, deliveryPenalty  float64
	condExec, condMiss, indExec, indMiss         float64
	retExec, retMiss, structMisses, modeSwitches float64
}

func (s *scaledCounters) add(d frontend.Metrics, scale float64) {
	s.deliveredUops += scale * float64(d.DeliveredUops)
	s.buildUops += scale * float64(d.BuildUops)
	s.deliveryFetches += scale * float64(d.DeliveryFetches)
	s.buildCycles += scale * float64(d.BuildCycles)
	s.penaltyCycles += scale * float64(d.PenaltyCycles)
	s.deliveryPenalty += scale * float64(d.DeliveryPenalty)
	s.condExec += scale * float64(d.CondExec)
	s.condMiss += scale * float64(d.CondMiss)
	s.indExec += scale * float64(d.IndExec)
	s.indMiss += scale * float64(d.IndMiss)
	s.retExec += scale * float64(d.RetExec)
	s.retMiss += scale * float64(d.RetMiss)
	s.structMisses += scale * float64(d.StructMisses)
	s.modeSwitches += scale * float64(d.ModeSwitches)
}

func round(f float64) uint64 { return uint64(math.Round(f)) }

func (s *scaledCounters) metrics() frontend.Metrics {
	return frontend.Metrics{
		DeliveredUops:   round(s.deliveredUops),
		BuildUops:       round(s.buildUops),
		DeliveryFetches: round(s.deliveryFetches),
		BuildCycles:     round(s.buildCycles),
		PenaltyCycles:   round(s.penaltyCycles),
		DeliveryPenalty: round(s.deliveryPenalty),
		CondExec:        round(s.condExec),
		CondMiss:        round(s.condMiss),
		IndExec:         round(s.indExec),
		IndMiss:         round(s.indMiss),
		RetExec:         round(s.retExec),
		RetMiss:         round(s.retMiss),
		StructMisses:    round(s.structMisses),
		ModeSwitches:    round(s.modeSwitches),
	}
}

// deriveEstimate finalizes a copy of one representative's counter delta
// and runs interval analysis over it, producing the per-interval view the
// error bounds are computed from.
func deriveEstimate(d frontend.Metrics, fecfg frontend.Config) (interval.Estimate, error) {
	d.Finalize(fecfg)
	core := interval.DefaultCore()
	return interval.FromMetrics(d, core)
}

// Error-bound constants: the advertised bound is
//
//	scale * (C1 * weighted spread across clusters + Crel * |value| + C0)
//
// tuned (generously) against the 21-workload ground-truth harness so the
// mean absolute error sits comfortably inside the bound.
// Note the scales: ipc is uops/cycle (order 1..8); uop_miss_rate is a
// percentage (0..100), so its absolute floor is in percentage points.
const (
	boundSpreadMult  = 3.0
	boundRelIPC      = 0.08
	boundAbsIPC      = 0.05
	boundRelMissRate = 0.25
	boundAbsMissRate = 2.0
)

// bounds2 derives the advertised per-metric error bounds from the spread
// of the per-cluster derived metrics around the combined result.
func bounds2(samples []interval.IntervalSample, m frontend.Metrics, scale float64) map[string]float64 {
	ipc := m.OverallBandwidth()
	miss := m.UopMissRate()
	var ipcSpread float64
	if len(samples) > 1 {
		if comb, err := interval.FromIntervals(samples); err == nil {
			ipcSpread = comb.IPCStdDev()
		}
	}
	// The miss-rate spread: weighted std-dev of per-cluster supply CPKu
	// is a proxy too indirect; use the IPC spread's relative size.
	rel := 0.0
	if ipc > 0 {
		rel = ipcSpread / ipc
	}
	return map[string]float64{
		"ipc":           scale * (boundSpreadMult*ipcSpread + boundRelIPC*ipc + boundAbsIPC),
		"uop_miss_rate": scale * (boundSpreadMult*rel*miss + boundRelMissRate*miss + boundAbsMissRate),
	}
}
