package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// sorted, or 0 for an empty sample.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

// rank is the 1-based nearest rank of the p-th percentile among n
// samples. The epsilon keeps 99.9 % of 10000 at 9990, not 9991.
func rank(n int, p float64) int {
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	return r
}

// tailLadder lists the tail percentiles a report may quote.
var tailLadder = []float64{90, 99, 99.9, 99.99}

// minBeyond is how many samples must lie beyond a quoted percentile.
const minBeyond = 10

// supports reports whether n samples leave at least minBeyond of them
// beyond the p-th percentile.
func supports(n int, p float64) bool {
	return n-rank(n, p) >= minBeyond
}

// highestPercentile returns the highest rung of tailLadder that n
// samples support, or 0 when they support none.
func highestPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailLadder {
		if supports(n, p) {
			best = p
		}
	}
	return best
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return percentile(sortedCopy(v), 50) }

// slicedPercentile cuts the time-ordered samples into up to maxSlices
// equal runs, each large enough to support p, and returns the median of
// the slices' p-th percentiles: one stall moves one slice, not the
// reported value. at[i] is when sample i was due; lat[i] its latency.
func slicedPercentile(at, lat []float64, from, to float64, p float64, maxSlices int) float64 {
	k := maxSlices
	for k > 1 && !supports(len(lat)/k, p) {
		k--
	}
	width := (to - from) / float64(k)
	slices := make([][]float64, k)
	for i, t := range at {
		s := int((t - from) / width)
		if s < 0 {
			s = 0
		}
		if s >= k {
			s = k - 1
		}
		slices[s] = append(slices[s], lat[i])
	}
	per := make([]float64, 0, k)
	for _, s := range slices {
		if len(s) > 0 {
			sort.Float64s(s)
			per = append(per, percentile(s, p))
		}
	}
	return median(per)
}

// quartiles returns the first quartile, median and third quartile of v
// by the exclusive method, the one Python's statistics.quantiles(v, n=4)
// uses, which is what the driver applies to repeated runs.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(q float64) float64 {
		pos := q * float64(n+1)
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(0.25), at(0.5), at(0.75)
}
