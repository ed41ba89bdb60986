package metrics

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Histogram collects duration samples and reports distribution
// statistics — used by the latency experiment to quantify the paper's
// "real-time property" (update latency under injected network delay).
// It is safe for concurrent use.
type Histogram struct {
	mu      sync.Mutex
	samples []time.Duration
	sorted  bool
	total   int // samples ever observed

	// window > 0 bounds samples to the most recent window observations,
	// held as a ring in arrival order (next is the oldest slot).
	window, next int
}

// NewHistogram returns an empty histogram that keeps every sample, so
// its statistics are exact over the whole run.
func NewHistogram() *Histogram {
	return &Histogram{}
}

// NewWindowHistogram returns an empty histogram that keeps only the
// most recent window samples: for a long-lived process that observes
// once per operation and must not grow with uptime. Count stays
// cumulative; every other statistic describes the retained window.
func NewWindowHistogram(window int) *Histogram {
	if window < 1 {
		window = 1
	}
	return &Histogram{window: window}
}

// Observe records one sample.
func (h *Histogram) Observe(d time.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.total++
	if h.window > 0 && len(h.samples) == h.window {
		h.samples[h.next] = d
		h.next = (h.next + 1) % h.window
		return
	}
	h.samples = append(h.samples, d)
	h.sorted = false
}

// Count returns the number of samples ever observed.
func (h *Histogram) Count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.total
}

// sortedLocked returns the retained samples in ascending order. Caller
// holds h.mu. An unbounded histogram sorts in place; a windowed one
// sorts a copy, because its ring must stay in arrival order.
func (h *Histogram) sortedLocked() []time.Duration {
	if h.window > 0 {
		s := append([]time.Duration(nil), h.samples...)
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		return s
	}
	if !h.sorted {
		sort.Slice(h.samples, func(i, j int) bool { return h.samples[i] < h.samples[j] })
		h.sorted = true
	}
	return h.samples
}

// Percentile returns the p-th percentile (p in [0,100]) using
// nearest-rank, or 0 for an empty histogram.
func (h *Histogram) Percentile(p float64) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return percentileOf(h.sortedLocked(), p)
}

// percentileOf is nearest-rank over ascending samples.
func percentileOf(sorted []time.Duration, p float64) time.Duration {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[n-1]
	}
	rank := int(p/100*float64(n)+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= n {
		rank = n - 1
	}
	return sorted[rank]
}

// Mean returns the average sample, or 0 when empty.
func (h *Histogram) Mean() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.samples) == 0 {
		return 0
	}
	var sum time.Duration
	for _, s := range h.samples {
		sum += s
	}
	return sum / time.Duration(len(h.samples))
}

// Max returns the largest sample, or 0 when empty.
func (h *Histogram) Max() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return percentileOf(h.sortedLocked(), 100)
}

// Min returns the smallest sample, or 0 when empty.
func (h *Histogram) Min() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return percentileOf(h.sortedLocked(), 0)
}

// Summary renders "p50=… p95=… p99=… max=… (n=…)".
func (h *Histogram) Summary() string {
	return fmt.Sprintf("p50=%v p95=%v p99=%v max=%v (n=%d)",
		h.Percentile(50).Round(time.Microsecond),
		h.Percentile(95).Round(time.Microsecond),
		h.Percentile(99).Round(time.Microsecond),
		h.Max().Round(time.Microsecond),
		h.Count())
}

// Reset discards all samples.
func (h *Histogram) Reset() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.samples = h.samples[:0]
	h.sorted = false
	h.total, h.next = 0, 0
}

// HistogramSnapshot is an immutable point-in-time view of a Histogram.
// Unlike querying the live histogram stat by stat, a snapshot is
// internally consistent (all statistics describe the same sample set)
// and costs the lock only once. Count is the number of samples ever
// observed; for a windowed histogram the other statistics describe the
// retained window only.
type HistogramSnapshot struct {
	Count          int
	Mean, Min, Max time.Duration
	sorted         []time.Duration
}

// Snapshot copies the current samples and computes their statistics.
// The histogram may keep collecting concurrently.
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	samples := make([]time.Duration, len(h.samples))
	copy(samples, h.samples)
	total := h.total
	h.mu.Unlock()
	// Sort the copy outside the lock; Observe stays cheap.
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	s := HistogramSnapshot{Count: total, sorted: samples}
	if len(samples) == 0 {
		return s
	}
	s.Min = samples[0]
	s.Max = samples[len(samples)-1]
	var sum time.Duration
	for _, d := range samples {
		sum += d
	}
	s.Mean = sum / time.Duration(len(samples))
	return s
}

// Percentile returns the p-th percentile (p in [0,100]) of the snapshot
// using nearest-rank, or 0 when empty.
func (s HistogramSnapshot) Percentile(p float64) time.Duration {
	return percentileOf(s.sorted, p)
}

// Summary renders the snapshot like Histogram.Summary.
func (s HistogramSnapshot) Summary() string {
	return fmt.Sprintf("p50=%v p95=%v p99=%v max=%v (n=%d)",
		s.Percentile(50).Round(time.Microsecond),
		s.Percentile(95).Round(time.Microsecond),
		s.Percentile(99).Round(time.Microsecond),
		s.Max.Round(time.Microsecond),
		s.Count)
}
