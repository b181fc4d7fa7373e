// Package stats provides the small statistics toolkit shared by the
// frontend simulators and the experiment harness: counters, bounded integer
// histograms, running means, and plain-text table rendering for the
// figure/table reproductions.
package stats

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
)

// Histogram is a bounded integer histogram over [0, len(buckets)).
// Values outside the range are clamped into the closest edge bucket so no
// sample is ever silently dropped.
type Histogram struct {
	buckets []uint64
	total   uint64
	sum     float64
}

// NewHistogram creates a histogram with n buckets covering values 0..n-1.
func NewHistogram(n int) *Histogram {
	if n <= 0 {
		panic("stats: histogram needs at least one bucket")
	}
	return &Histogram{buckets: make([]uint64, n)}
}

// Add records one sample of value v.
func (h *Histogram) Add(v int) { h.AddN(v, 1) }

// AddN records count samples of value v.
func (h *Histogram) AddN(v int, count uint64) {
	if v < 0 {
		v = 0
	}
	if v >= len(h.buckets) {
		v = len(h.buckets) - 1
	}
	h.buckets[v] += count
	h.total += count
	h.sum += float64(v) * float64(count)
}

// Count returns the number of samples recorded in bucket v.
func (h *Histogram) Count(v int) uint64 {
	if v < 0 || v >= len(h.buckets) {
		return 0
	}
	return h.buckets[v]
}

// Total returns the number of samples recorded.
func (h *Histogram) Total() uint64 { return h.total }

// CountAtMost returns the number of samples whose (clamped) value is <= v
// — the cumulative shape Prometheus histogram buckets report. A negative v
// counts nothing; v past the last bucket counts everything.
func (h *Histogram) CountAtMost(v int) uint64 {
	if v < 0 {
		return 0
	}
	if v >= len(h.buckets) {
		v = len(h.buckets) - 1
	}
	var acc uint64
	for i := 0; i <= v; i++ {
		acc += h.buckets[i]
	}
	return acc
}

// Sum returns the sum of all (clamped) sample values.
func (h *Histogram) Sum() float64 { return h.sum }

// Buckets returns the number of buckets.
func (h *Histogram) Buckets() int { return len(h.buckets) }

// Mean returns the average sample value, or 0 with no samples.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// Fraction returns the fraction of samples that fell in bucket v.
func (h *Histogram) Fraction(v int) float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.Count(v)) / float64(h.total)
}

// Percentile returns the smallest value v such that at least p (0..1) of
// the samples are <= v.
func (h *Histogram) Percentile(p float64) int {
	if h.total == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	need := uint64(math.Ceil(p * float64(h.total)))
	if need == 0 {
		need = 1 // the 0th percentile is the smallest observed value
	}
	var acc uint64
	for v, c := range h.buckets {
		acc += c
		if acc >= need {
			return v
		}
	}
	return len(h.buckets) - 1
}

// Merge adds all samples of other into h. The histograms must have the same
// bucket count.
func (h *Histogram) Merge(other *Histogram) {
	if len(h.buckets) != len(other.buckets) {
		panic("stats: merging histograms of different sizes")
	}
	for v, c := range other.buckets {
		h.buckets[v] += c
	}
	h.total += other.total
	h.sum += other.sum
}

// histogramJSON is the stored form of a Histogram; the unexported fields
// need explicit marshalling so a figure run's store can round-trip
// Figure-1 cells.
type histogramJSON struct {
	Buckets []uint64 `json:"buckets"`
	Total   uint64   `json:"total"`
	Sum     float64  `json:"sum"`
}

// MarshalJSON encodes the histogram for the figure store.
func (h *Histogram) MarshalJSON() ([]byte, error) {
	return json.Marshal(histogramJSON{Buckets: h.buckets, Total: h.total, Sum: h.sum})
}

// UnmarshalJSON restores a stored histogram.
func (h *Histogram) UnmarshalJSON(data []byte) error {
	var v histogramJSON
	if err := json.Unmarshal(data, &v); err != nil {
		return err
	}
	if len(v.Buckets) == 0 {
		v.Buckets = make([]uint64, 1)
	}
	h.buckets, h.total, h.sum = v.Buckets, v.Total, v.Sum
	return nil
}

// Reset clears all samples.
func (h *Histogram) Reset() {
	for i := range h.buckets {
		h.buckets[i] = 0
	}
	h.total = 0
	h.sum = 0
}

// String renders a compact textual bar chart, useful in logs and examples.
func (h *Histogram) String() string {
	var b strings.Builder
	max := uint64(1)
	for _, c := range h.buckets {
		if c > max {
			max = c
		}
	}
	for v, c := range h.buckets {
		if c == 0 {
			continue
		}
		bar := int(40 * c / max)
		fmt.Fprintf(&b, "%3d | %-40s %6.2f%%\n", v, strings.Repeat("#", bar), 100*h.Fraction(v))
	}
	fmt.Fprintf(&b, "mean %.2f  n=%d\n", h.Mean(), h.total)
	return b.String()
}

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Ratio returns num/den, or 0 when den is 0, so callers can divide counters
// without guarding.
func Ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
