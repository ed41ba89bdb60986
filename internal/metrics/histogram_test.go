package metrics

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Mean() != 0 || h.Max() != 0 || h.Min() != 0 || h.Percentile(50) != 0 {
		t.Fatal("empty histogram reports nonzero stats")
	}
}

func TestHistogramSingleSample(t *testing.T) {
	h := NewHistogram()
	h.Observe(5 * time.Millisecond)
	for _, p := range []float64{0, 50, 99, 100} {
		if got := h.Percentile(p); got != 5*time.Millisecond {
			t.Fatalf("p%.0f = %v", p, got)
		}
	}
	if h.Mean() != 5*time.Millisecond {
		t.Fatalf("mean = %v", h.Mean())
	}
}

func TestHistogramPercentiles(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	if got := h.Percentile(50); got != 50*time.Millisecond {
		t.Fatalf("p50 = %v", got)
	}
	if got := h.Percentile(95); got != 95*time.Millisecond {
		t.Fatalf("p95 = %v", got)
	}
	if got := h.Min(); got != time.Millisecond {
		t.Fatalf("min = %v", got)
	}
	if got := h.Max(); got != 100*time.Millisecond {
		t.Fatalf("max = %v", got)
	}
	if got := h.Mean(); got != 50500*time.Microsecond {
		t.Fatalf("mean = %v", got)
	}
}

func TestHistogramUnorderedInsertion(t *testing.T) {
	h := NewHistogram()
	for _, ms := range []int{90, 10, 50, 30, 70} {
		h.Observe(time.Duration(ms) * time.Millisecond)
	}
	if got := h.Percentile(100); got != 90*time.Millisecond {
		t.Fatalf("p100 = %v", got)
	}
	// Observing after a quantile query re-sorts correctly.
	h.Observe(95 * time.Millisecond)
	if got := h.Max(); got != 95*time.Millisecond {
		t.Fatalf("max after late insert = %v", got)
	}
}

func TestHistogramSummary(t *testing.T) {
	h := NewHistogram()
	h.Observe(time.Millisecond)
	s := h.Summary()
	for _, want := range []string{"p50=", "p95=", "p99=", "max=", "n=1"} {
		if !strings.Contains(s, want) {
			t.Fatalf("summary %q missing %q", s, want)
		}
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 250; i++ {
				h.Observe(time.Duration(i) * time.Microsecond)
				_ = h.Percentile(50)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 1000 {
		t.Fatalf("count = %d", h.Count())
	}
}

func TestHistogramSnapshot(t *testing.T) {
	h := NewHistogram()
	for _, ms := range []int{30, 10, 20, 40} {
		h.Observe(time.Duration(ms) * time.Millisecond)
	}
	s := h.Snapshot()
	if s.Count != 4 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Min != 10*time.Millisecond || s.Max != 40*time.Millisecond {
		t.Fatalf("min/max = %v/%v", s.Min, s.Max)
	}
	if s.Mean != 25*time.Millisecond {
		t.Fatalf("mean = %v", s.Mean)
	}
	if got := s.Percentile(50); got != 20*time.Millisecond {
		t.Fatalf("p50 = %v", got)
	}
	if got := s.Percentile(100); got != 40*time.Millisecond {
		t.Fatalf("p100 = %v", got)
	}
	// Snapshots match the live histogram for the same sample set.
	if live := h.Percentile(50); live != s.Percentile(50) {
		t.Fatalf("live p50 %v != snapshot p50 %v", live, s.Percentile(50))
	}
	if !strings.Contains(s.Summary(), "n=4") {
		t.Fatalf("summary = %q", s.Summary())
	}
	// The snapshot is detached: later samples don't change it.
	h.Observe(time.Second)
	if s.Count != 4 || s.Max != 40*time.Millisecond {
		t.Fatal("snapshot mutated by later Observe")
	}
}

func TestHistogramSnapshotEmpty(t *testing.T) {
	s := NewHistogram().Snapshot()
	if s.Count != 0 || s.Mean != 0 || s.Min != 0 || s.Max != 0 || s.Percentile(50) != 0 {
		t.Fatal("empty snapshot reports nonzero stats")
	}
}

func TestHistogramReset(t *testing.T) {
	h := NewHistogram()
	h.Observe(time.Millisecond)
	h.Observe(2 * time.Millisecond)
	h.Reset()
	if h.Count() != 0 || h.Max() != 0 {
		t.Fatal("reset histogram retains samples")
	}
	h.Observe(7 * time.Millisecond)
	if h.Count() != 1 || h.Percentile(50) != 7*time.Millisecond {
		t.Fatal("histogram unusable after reset")
	}
}

func TestHistogramSnapshotConcurrent(t *testing.T) {
	h := NewHistogram()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				h.Observe(time.Duration(i) * time.Microsecond)
			}
		}
	}()
	for i := 0; i < 50; i++ {
		s := h.Snapshot()
		if s.Percentile(50) > s.Max {
			t.Error("snapshot p50 exceeds its own max")
		}
	}
	close(stop)
	wg.Wait()
}

// A windowed histogram keeps the most recent samples only: the count
// stays cumulative, every other statistic describes the window, and
// quantile queries in between do not disturb which sample is oldest.
func TestWindowHistogramKeepsMostRecent(t *testing.T) {
	h := NewWindowHistogram(4)
	for i := 1; i <= 6; i++ {
		h.Observe(time.Duration(10-i) * time.Millisecond) // 9 8 7 6 5 4: descending, so sorted order != arrival order
		h.Percentile(50)                                  // must not reorder the ring
	}
	// Retained: 7 6 5 4.
	if h.Count() != 6 {
		t.Fatalf("Count = %d, want the cumulative 6", h.Count())
	}
	if h.Min() != 4*time.Millisecond || h.Max() != 7*time.Millisecond {
		t.Fatalf("min/max = %v/%v, want 4ms/7ms", h.Min(), h.Max())
	}
	if got := h.Mean(); got != 5500*time.Microsecond {
		t.Fatalf("Mean = %v, want 5.5ms", got)
	}
	s := h.Snapshot()
	if s.Count != 6 || s.Min != 4*time.Millisecond || s.Max != 7*time.Millisecond || s.Mean != 5500*time.Microsecond {
		t.Fatalf("snapshot = %+v", s)
	}
	if s.Percentile(50) != 5*time.Millisecond || s.Percentile(100) != 7*time.Millisecond {
		t.Fatalf("snapshot p50/p100 = %v/%v", s.Percentile(50), s.Percentile(100))
	}
	h.Reset()
	h.Observe(time.Millisecond)
	if h.Count() != 1 || h.Max() != time.Millisecond {
		t.Fatalf("after Reset: count %d max %v", h.Count(), h.Max())
	}
}
