package main

import (
	"os"
	"testing"
)

// testdata/metrics.txt is a /metrics page captured from avnode -admin,
// trimmed: the messages table, counters, duration and size histograms,
// empty histograms and the non-numeric trace_enabled line.
func TestParseMetrics(t *testing.T) {
	f, err := os.Open("testdata/metrics.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s, err := parseMetrics(f)
	if err != nil {
		t.Fatal(err)
	}
	for kind, want := range map[string]float64{"delta.sync": 7, "ping": 2, "pong": 2} {
		if got := s.messages[kind]; got != want {
			t.Errorf("messages[%s] = %v, want %v (summed over sites)", kind, got, want)
		}
	}
	if len(s.messages) != 3 {
		t.Errorf("messages = %v, want 3 kinds: header and rule rows must not count", s.messages)
	}
	for name, want := range map[string]float64{
		"total_messages":             11,
		"correspondences{site=2}":    2,
		"twopc_aborts":               3,
		"wal_fsync_total":            4006,
		"partition_route_forwarded":  17,
		"update_latency_count":       3,
		"update_latency_p50_ns":      504561,
		"wal_group_commit_size_mean": 1,
		"twopc_overlap_depth_count":  0,
		"trace_spans_dropped":        0,
	} {
		got, ok := s.values[name]
		if !ok || got != want {
			t.Errorf("values[%s] = %v (present %v), want %v", name, got, ok, want)
		}
	}
	if _, ok := s.values["trace_enabled"]; ok {
		t.Error("trace_enabled is not a number and must be skipped")
	}

	set := scrapeSet{s, s}
	if got := set.sum("wal_fsync_total"); got != 8012 {
		t.Errorf("sum over two nodes = %v, want 8012", got)
	}
	if got := set.msgs("delta.sync", "ping"); got != 18 {
		t.Errorf("msgs over two nodes = %v, want 18", got)
	}
	if got := set.weighted("update_latency", "p50_ns"); got != 504561 {
		t.Errorf("weighted p50 of two equal nodes = %v, want 504561", got)
	}
	if got := set.weighted("readplane_ryw_wait", "p50_ns"); got != 0 {
		t.Errorf("weighted p50 of an empty histogram = %v, want 0", got)
	}
}
