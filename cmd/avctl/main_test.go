package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"
)

func TestEpochSummaryDerivesFromDump(t *testing.T) {
	dump := strings.Join([]string{
		"# counters",
		"epoch_current 42",
		"epoch_durable 41",
		"epoch_closed_total 40",
		"epoch_commits_total 1200",
		"epoch_early_closes_total 3",
		"",
		"# histogram epoch_ack_wait",
		"epoch_ack_wait_count 1200",
		"epoch_ack_wait_p50_ns 150000",
		"epoch_ack_wait_p99_ns 400000",
		"epoch_ack_wait_max_ns 900000",
	}, "\n")
	var out strings.Builder
	epochSummary(&out, dump)
	got := out.String()
	for _, want := range []string{
		"epoch current 42, durable 41 (lag 1)",
		"closed 40 epochs covering 1200 commits: 30.0 commits per fsync, 3 early closes",
		"ack wait p50 150µs, p99 400µs, max 900µs",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("summary missing %q:\n%s", want, got)
		}
	}
}

func TestEpochSummaryQuietWhenEpochsOff(t *testing.T) {
	var out strings.Builder
	epochSummary(&out, "# counters\nwal_fsync_total 7\nepoch_closed_total 0\nepoch_commits_total 0\n")
	if out.Len() != 0 {
		t.Fatalf("expected no output for an epochs-off dump, got:\n%s", out.String())
	}
}

func TestPartitionsRendersTable(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/partitions" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, `{"map_version":1,"partitions":4,"rf":2,"sites":[0,1,2],
			"route_forwarded":5,"route_served":3,"route_misroutes":0,"route_map_refreshes":1,
			"hosted":[{"partition":2,"owner":0,"replicas":[0,1],"keys":7,"av_keys":7,
			"av_avail":900,"av_held":10,"stock":2800}]}`)
	}))
	defer srv.Close()

	old := os.Stdout
	r, w, _ := os.Pipe()
	os.Stdout = w
	code := partitions(strings.TrimPrefix(srv.URL, "http://"), time.Second)
	w.Close()
	os.Stdout = old
	out, _ := io.ReadAll(r)

	if code != 0 {
		t.Fatalf("exit code %d", code)
	}
	for _, want := range []string{
		"map v1: 4 partitions, rf 2, sites [0 1 2]",
		"forwarded 5, served 3, misroutes 0, map refreshes 1",
		"0,1",
		"2800",
	} {
		if !strings.Contains(string(out), want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}
