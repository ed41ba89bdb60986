// Command avctl is the client CLI for avnode's text protocol, plus a
// stats subcommand for avnode's admin HTTP server.
//
//	avctl -addr localhost:7201 update product-0000 -50
//	avctl -addr localhost:7201 read product-0000
//	avctl -addr localhost:7201 av product-0000
//	avctl -addr localhost:7201 sync
//	avctl -admin localhost:7300 stats
//	avctl -admin localhost:7300 health
//	avctl -admin localhost:7300 watch [stock|global|hot] [-interval 1s] [-key k]
//	avctl -admin localhost:7300 partitions
//
// `stats` dumps /metrics verbatim, including the durability-pipeline
// gauges (wal_fsync_total, wal_records_synced_total, the
// wal_group_commit_size and wal_sync_wait histograms): when
// wal_records_synced_total outruns wal_fsync_total, group commit is
// amortizing fsyncs across concurrent durable operations. With
// -readplane (the default) the dump also carries the readplane_*
// counters — events applied/stale, per-model read counts, RYW
// waits/timeouts/violations — and the readplane_lag and
// readplane_ryw_wait histograms. When the node runs with -epoch, stats
// follows the dump with a derived summary of the epoch commit pipeline:
// current/durable epoch, mean commits per epoch (the live fsync
// amortization factor), early closes, and acknowledgement-wait
// percentiles.
//
// `watch` streams one of the read plane's materialized models
// (ndjson, one snapshot per line) from /read/watch until interrupted.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"
)

const usage = "usage: avctl [-addr host:port] [-admin host:port] <update|read|av|sync|stats|health|watch|partitions> [args...]"

func main() {
	addr := flag.String("addr", "localhost:7200", "avnode client address")
	admin := flag.String("admin", "localhost:7300", "avnode admin HTTP address (stats)")
	timeout := flag.Duration("timeout", 5*time.Second, "dial/IO timeout")
	flag.Parse()

	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, usage)
		os.Exit(2)
	}
	cmd := strings.ToUpper(flag.Arg(0))
	if cmd == "STATS" {
		os.Exit(stats(*admin, *timeout))
	}
	if cmd == "HEALTH" {
		os.Exit(health(*admin, *timeout))
	}
	if cmd == "WATCH" {
		os.Exit(watch(*admin, flag.Args()[1:]))
	}
	if cmd == "PARTITIONS" {
		os.Exit(partitions(*admin, *timeout))
	}
	line := strings.Join(append([]string{cmd}, flag.Args()[1:]...), " ")

	conn, err := net.DialTimeout("tcp", *addr, *timeout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "avctl:", err)
		os.Exit(1)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(*timeout))

	if _, err := fmt.Fprintf(conn, "%s\n", line); err != nil {
		fmt.Fprintln(os.Stderr, "avctl:", err)
		os.Exit(1)
	}
	sc := bufio.NewScanner(conn)
	if !sc.Scan() {
		fmt.Fprintln(os.Stderr, "avctl: no reply")
		os.Exit(1)
	}
	reply := sc.Text()
	fmt.Println(reply)
	if strings.HasPrefix(reply, "ERR") {
		os.Exit(1)
	}
}

// stats prints the node's /metrics and its recent traces from the admin
// server. Returns the process exit code.
func stats(admin string, timeout time.Duration) int {
	client := &http.Client{Timeout: timeout}
	var dump strings.Builder
	if err := fetch(client, "http://"+admin+"/metrics", io.MultiWriter(os.Stdout, &dump)); err != nil {
		fmt.Fprintln(os.Stderr, "avctl: metrics:", err)
		return 1
	}
	epochSummary(os.Stdout, dump.String())
	fmt.Println("\n# recent traces")
	if err := fetch(client, "http://"+admin+"/trace/recent?format=text&n=50", os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "avctl: traces:", err)
		return 1
	}
	return 0
}

// epochSummary digests the raw epoch_* gauges from a /metrics dump into
// a few human-readable lines. Quiet when the node runs without -epoch
// (every epoch counter zero or absent).
func epochSummary(w io.Writer, dump string) {
	m := make(map[string]int64)
	for _, line := range strings.Split(dump, "\n") {
		fields := strings.Fields(line)
		if len(fields) != 2 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		if v, err := strconv.ParseInt(fields[1], 10, 64); err == nil {
			m[fields[0]] = v
		}
	}
	closed, commits := m["epoch_closed_total"], m["epoch_commits_total"]
	if closed == 0 && commits == 0 {
		return
	}
	fmt.Fprintf(w, "\n# epoch commit pipeline (derived)\n")
	fmt.Fprintf(w, "epoch current %d, durable %d (lag %d)\n",
		m["epoch_current"], m["epoch_durable"], m["epoch_current"]-m["epoch_durable"])
	perEpoch := 0.0
	if closed > 0 {
		perEpoch = float64(commits) / float64(closed)
	}
	fmt.Fprintf(w, "closed %d epochs covering %d commits: %.1f commits per fsync, %d early closes\n",
		closed, commits, perEpoch, m["epoch_early_closes_total"])
	if count, ok := m["epoch_ack_wait_count"]; ok && count > 0 {
		fmt.Fprintf(w, "ack wait p50 %v, p99 %v, max %v\n",
			time.Duration(m["epoch_ack_wait_p50_ns"]),
			time.Duration(m["epoch_ack_wait_p99_ns"]),
			time.Duration(m["epoch_ack_wait_max_ns"]))
	}
}

// watch streams one read-plane model (stock, global, or hot) from the
// admin server's /read/watch as ndjson, one snapshot per line, until
// the connection drops or the process is interrupted. Returns the
// process exit code.
func watch(admin string, args []string) int {
	model := "stock"
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		model, args = args[0], args[1:]
	}
	fs := flag.NewFlagSet("watch", flag.ExitOnError)
	interval := fs.Duration("interval", time.Second, "snapshot interval (min 10ms)")
	fs.Parse(args) //nolint:errcheck // ExitOnError
	url := fmt.Sprintf("http://%s/read/watch?model=%s&interval_ms=%d",
		admin, model, interval.Milliseconds())

	// No client timeout: the stream is open-ended by design.
	resp, err := http.Get(url) //nolint:noctx // interactive CLI stream
	if err != nil {
		fmt.Fprintln(os.Stderr, "avctl: watch:", err)
		return 1
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		fmt.Fprintf(os.Stderr, "avctl: watch: %s: %s\n", resp.Status, strings.TrimSpace(string(body)))
		return 1
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		fmt.Println(sc.Text())
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "avctl: watch:", err)
		return 1
	}
	return 0
}

// partitions fetches the node's /partitions view and renders it as a
// table: map header, routing counters, one line per hosted partition (a
// node without -partitions shows its one full-replication partition).
// Returns the process exit code.
func partitions(admin string, timeout time.Duration) int {
	client := &http.Client{Timeout: timeout}
	var buf strings.Builder
	if err := fetch(client, "http://"+admin+"/partitions", &buf); err != nil {
		fmt.Fprintln(os.Stderr, "avctl: partitions:", err)
		return 1
	}
	var reply struct {
		Partitions int    `json:"partitions"`
		RF         int    `json:"rf"`
		Sites      []int  `json:"sites"`
		Forwarded  uint64 `json:"route_forwarded"`
		Served     uint64 `json:"route_served"`
		Misroutes  uint64 `json:"route_misroutes"`
		Hosted     []struct {
			Partition int   `json:"partition"`
			Owner     int   `json:"owner"`
			Replicas  []int `json:"replicas"`
			Keys      int   `json:"keys"`
			AVKeys    int   `json:"av_keys"`
			AVAvail   int64 `json:"av_avail"`
			AVHeld    int64 `json:"av_held"`
			Stock     int64 `json:"stock"`
		} `json:"hosted"`
	}
	if err := json.Unmarshal([]byte(buf.String()), &reply); err != nil {
		fmt.Fprintln(os.Stderr, "avctl: partitions: bad reply:", err)
		return 1
	}
	fmt.Printf("map: %d partitions, rf %d, sites %v\n", reply.Partitions, reply.RF, reply.Sites)
	fmt.Printf("routing: forwarded %d, served %d, misroutes %d\n",
		reply.Forwarded, reply.Served, reply.Misroutes)
	fmt.Printf("%-10s %-6s %-12s %6s %8s %10s %8s %10s\n",
		"partition", "owner", "replicas", "keys", "av_keys", "av_avail", "av_held", "stock")
	for _, h := range reply.Hosted {
		fmt.Printf("%-10d %-6d %-12s %6d %8d %10d %8d %10d\n",
			h.Partition, h.Owner, strings.Trim(strings.Join(strings.Fields(fmt.Sprint(h.Replicas)), ","), "[]"),
			h.Keys, h.AVKeys, h.AVAvail, h.AVHeld, h.Stock)
	}
	return 0
}

// health probes the node's /healthz; exit 0 iff the node answers ok.
func health(admin string, timeout time.Duration) int {
	client := &http.Client{Timeout: timeout}
	var buf strings.Builder
	if err := fetch(client, "http://"+admin+"/healthz", &buf); err != nil {
		fmt.Fprintln(os.Stderr, "avctl: health:", err)
		return 1
	}
	fmt.Print(buf.String())
	if !strings.HasPrefix(buf.String(), "ok") {
		return 1
	}
	return 0
}

// fetch GETs url and copies the body to w.
func fetch(client *http.Client, url string, w io.Writer) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	_, err = io.Copy(w, resp.Body)
	return err
}
