package interval

import (
	"fmt"
	"math"

	"xbc/internal/trace"
)

// This file extends interval analysis to sampled simulation: a run is
// split into fixed-size intervals, only some are simulated in detail, and
// the whole-run estimate is the uop-weighted combination of the simulated
// intervals — with the spread across them exposed as a variance, which is
// what the sampled fidelity's error bounds are built from.

// Boundaries splits recs into intervals of about intervalUops uops each,
// cut at record granularity: the returned slice holds the first record
// index of every interval plus a final len(recs) sentinel, so interval k
// covers recs[b[k]:b[k+1]]. An empty stream yields just the sentinel.
func Boundaries(recs []trace.Rec, intervalUops int) []int {
	if intervalUops < 1 {
		intervalUops = 1
	}
	b := []int{0}
	uops := 0
	for i := range recs {
		uops += int(recs[i].NumUops)
		if uops >= intervalUops && i+1 < len(recs) {
			b = append(b, i+1)
			uops = 0
		}
	}
	if len(recs) == 0 {
		return []int{0}
	}
	return append(b, len(recs))
}

// IntervalSample is one simulated interval's contribution to a sampled
// estimate: the interval's own analysis plus the uop weight it stands for
// (its cluster's total uops, for cluster-representative sampling).
type IntervalSample struct {
	Est    Estimate
	Weight float64
}

// FromIntervals combines per-interval estimates into a whole-run Estimate
// by uop-weighted averaging of the cycle budgets (CPKu values are
// per-kilouop, so they weight linearly); the throughput numbers are
// re-derived from the combined budget. The weighted variance of the
// per-interval uop throughput is retained — IPCStdDev exposes it — but
// lives in an unexported field, so the JSON shape of Estimate is exactly
// what the full-fidelity path produces.
func FromIntervals(samples []IntervalSample) (Estimate, error) {
	var totalW float64
	for _, s := range samples {
		if s.Weight < 0 {
			return Estimate{}, fmt.Errorf("interval: negative sample weight %g", s.Weight)
		}
		totalW += s.Weight
	}
	if totalW <= 0 {
		return Estimate{}, fmt.Errorf("interval: no weighted samples")
	}
	var out Estimate
	var instRatio float64 // insts per uop, weighted
	for _, s := range samples {
		w := s.Weight / totalW
		out.BaseCPKu += w * s.Est.BaseCPKu
		out.BranchCPKu += w * s.Est.BranchCPKu
		out.SupplyCPKu += w * s.Est.SupplyCPKu
		out.TotalCPKu += w * s.Est.TotalCPKu
		if s.Est.UopsPerCycle > 0 {
			instRatio += w * s.Est.InstsPerCycle / s.Est.UopsPerCycle
		}
	}
	if out.TotalCPKu <= 0 {
		return Estimate{}, fmt.Errorf("interval: combined cycle budget is empty")
	}
	out.UopsPerCycle = 1000 / out.TotalCPKu
	out.InstsPerCycle = out.UopsPerCycle * instRatio
	// Weighted variance of the per-interval throughput around the
	// combined value: the dispersion the error bound advertises.
	var v float64
	for _, s := range samples {
		d := s.Est.UopsPerCycle - out.UopsPerCycle
		v += s.Weight / totalW * d * d
	}
	out.ipcVariance = v
	return out, nil
}

// IPCStdDev is the uop-weighted standard deviation of per-interval uop
// throughput behind a sampled estimate; zero for estimates computed from
// a single full run (FromMetrics).
func (e Estimate) IPCStdDev() float64 { return math.Sqrt(e.ipcVariance) }
