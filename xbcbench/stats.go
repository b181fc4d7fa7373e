package main

import (
	"bufio"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
)

// minTail is how many samples must lie beyond a percentile before it is
// reported: fewer, and the percentile is one or two outliers.
const minTail = 10

// percentile returns the p-quantile (0 < p < 1) of xs by nearest rank. It
// refuses when fewer than minTail samples lie beyond that rank.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	rank := int(math.Ceil(p * float64(n))) // 1-based
	if rank < 1 || n-rank < minTail {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want at least %d", p*100, n, n-rank, minTail)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// subset picks k distinct indices of [0, n) from the seed, in ascending
// order; all of them when n <= k.
func subset(seed int64, n, k int) []int {
	idx := rand.New(rand.NewSource(seed)).Perm(n)
	if k < n {
		idx = idx[:k]
	}
	sort.Ints(idx)
	return idx
}

// parseMetrics reads a Prometheus text exposition into series -> value,
// where a series is the metric name with its label set, as printed.
func parseMetrics(text string) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: %q: %w", line, err)
		}
		out[line[:i]] += v
	}
	return out, sc.Err()
}
