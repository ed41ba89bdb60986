package main

import (
	"math"
	"testing"
)

func TestPercentileRule(t *testing.T) {
	// A quoted percentile needs at least ten samples beyond it.
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{1000, 99, true}, {999, 99, false},
		{100, 90, true}, {99, 90, false},
		{10000, 99.9, true}, {9999, 99.9, false},
	} {
		if got := supports(c.n, c.p); got != c.want {
			t.Errorf("supports(%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{50, 0}, {100, 90}, {999, 90}, {1000, 99}, {12000, 99.9}, {100000, 99.99}} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

// One stalled slice must not move the reported tail, and a sample too
// small for five slices must be cut into fewer, not into unsupported ones.
func TestSlicedPercentile(t *testing.T) {
	var at, lat []float64
	for i := 0; i < 5000; i++ {
		at = append(at, float64(i))
		v := 100.0
		if i >= 1000 && i < 2000 {
			v = 9000 // the second of five slices stalls throughout
		}
		lat = append(lat, v)
	}
	if got := slicedPercentile(at, lat, 0, 5000, 99, 5); got != 100 {
		t.Errorf("p99 over five slices, one stalled = %v, want 100", got)
	}
	// 2500 samples support p99 in two slices of 1250, not in five of 500.
	// Each of the two holds over 1 % of stalled samples, so both report the
	// stall; five slices would have hidden it behind three quiet ones.
	at, lat = at[:2500], lat[:2500]
	if got := slicedPercentile(at, lat, 0, 2500, 99, 5); got != 9000 {
		t.Errorf("p99 over 2500 samples = %v, want 9000 from two slices", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q2, q3 := quartiles(v)
	for i, c := range []struct{ got, want float64 }{{q1, 2.75}, {q2, 5.5}, {q3, 8.25}} {
		if math.Abs(c.got-c.want) > 1e-12 {
			t.Errorf("quartile %d = %v, want %v", i+1, c.got, c.want)
		}
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	q1, q2, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles(3,1,2) = %v %v %v, want 1 2 3", q1, q2, q3)
	}
}
