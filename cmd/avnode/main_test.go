package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"avdb/internal/partition"
	"avdb/internal/site"
	"avdb/internal/transport/memnet"
	"avdb/internal/wire"
)

func TestParsePeers(t *testing.T) {
	peers, addrs, err := parsePeers("1=localhost:7101, 2=10.0.0.5:7102")
	if err != nil {
		t.Fatal(err)
	}
	if len(peers) != 2 || peers[0] != 1 || peers[1] != 2 {
		t.Fatalf("peers = %v", peers)
	}
	if addrs[1] != "localhost:7101" || addrs[2] != "10.0.0.5:7102" {
		t.Fatalf("addrs = %v", addrs)
	}
}

func TestParsePeersEmpty(t *testing.T) {
	peers, addrs, err := parsePeers("")
	if err != nil || len(peers) != 0 || len(addrs) != 0 {
		t.Fatalf("empty spec: %v %v %v", peers, addrs, err)
	}
}

func TestParsePeersErrors(t *testing.T) {
	for _, spec := range []string{"nonsense", "x=host:1", "1", "=host:1"} {
		if _, _, err := parsePeers(spec); err == nil {
			t.Errorf("spec %q accepted", spec)
		}
	}
}

func TestSeedClassificationAndAV(t *testing.T) {
	net := memnet.New(memnet.Options{})
	s, err := site.Open(site.Config{ID: 0, Peers: []wire.SiteID{1, 2}}, net)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := seed(s, 10, 900, 0, 0.3, 3, nil); err != nil {
		t.Fatal(err)
	}
	if s.Engine().Len() != 10 {
		t.Fatalf("seeded %d rows", s.Engine().Len())
	}
	// 3 of 10 items are non-regular: no AV defined on them.
	if s.AV().Defined("product-0000") || s.AV().Defined("product-0002") {
		t.Fatal("non-regular product has AV")
	}
	if !s.AV().Defined("product-0003") {
		t.Fatal("regular product missing AV")
	}
	// Default AV share = initial / sites.
	if av := s.AV().Avail("product-0003"); av != 300 {
		t.Fatalf("AV share = %d, want 300", av)
	}
}

func TestSeedIdempotentOnRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := site.Config{ID: 0, StorageDir: dir, PersistAV: true, NoSync: true}
	s, err := site.Open(cfg, memnet.New(memnet.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	if err := seed(s, 2, 100, 0, 0, 2, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Update(ctxBg(), "product-0000", -30); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, err := site.Open(cfg, memnet.New(memnet.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if err := seed(s2, 2, 100, 0, 0, 2, nil); err != nil {
		t.Fatal(err)
	}
	// Restart + reseed must not reset stock or mint AV.
	if v, _ := s2.Read("product-0000"); v != 70 {
		t.Fatalf("stock = %d after reseed", v)
	}
	if av := s2.AV().Avail("product-0000"); av != 20 {
		t.Fatalf("AV = %d after reseed, want 50-30", av)
	}
}

func ctxBg() context.Context { return context.Background() }

func TestSeedPartitionedHostsOnly(t *testing.T) {
	pm, err := partition.New([]wire.SiteID{0, 1, 2}, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	s, err := site.Open(site.Config{ID: 0, Peers: []wire.SiteID{1, 2}, Partitions: pm},
		memnet.New(memnet.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const items = 40
	if err := seed(s, items, 900, 0, 0, 3, pm); err != nil {
		t.Fatal(err)
	}
	hosted := 0
	for i := 0; i < items; i++ {
		key := fmt.Sprintf("product-%04d", i)
		if pm.HostsKey(0, key) {
			hosted++
			if _, err := s.Read(key); err != nil {
				t.Errorf("hosted key %s missing: %v", key, err)
			}
			// AV default splits across the replica set, not the cluster.
			if av := s.AV().Avail(key); av != 450 {
				t.Errorf("AV share for %s = %d, want 450", key, av)
			}
		} else if _, err := s.Read(key); err == nil {
			t.Errorf("foreign key %s seeded locally", key)
		}
	}
	if hosted == 0 || hosted == items {
		t.Fatalf("degenerate hosting: %d/%d", hosted, items)
	}
	if s.Engine().Len() != hosted {
		t.Fatalf("store holds %d rows, hosts %d keys", s.Engine().Len(), hosted)
	}
}

func TestPartitionsHandler(t *testing.T) {
	pm, err := partition.New([]wire.SiteID{0, 1}, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := site.Open(site.Config{ID: 0, Peers: []wire.SiteID{1}, Partitions: pm},
		memnet.New(memnet.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := seed(s, 8, 100, 0, 0, 2, pm); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	partitionsHandler(s).ServeHTTP(rec, httptest.NewRequest("GET", "/partitions", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	var reply struct {
		MapVersion uint64 `json:"map_version"`
		Partitions int    `json:"partitions"`
		RF         int    `json:"rf"`
		Hosted     []struct {
			Partition int `json:"partition"`
			Keys      int `json:"keys"`
		} `json:"hosted"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, rec.Body.String())
	}
	if reply.MapVersion != 1 || reply.Partitions != 4 || reply.RF != 1 {
		t.Fatalf("reply header %+v", reply)
	}
	if len(reply.Hosted) != len(pm.Hosted(0)) {
		t.Fatalf("hosted %d partitions, map says %d", len(reply.Hosted), len(pm.Hosted(0)))
	}
}

// A command line over the scanner's 64 KiB limit used to close the
// connection with no reply; the client must be told why.
func TestServeClientLineTooLong(t *testing.T) {
	s, err := site.Open(site.Config{ID: 0}, memnet.New(memnet.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := seed(s, 1, 100, 40, 0, 1, nil); err != nil {
		t.Fatal(err)
	}
	client, server := net.Pipe()
	defer client.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		serveClient(s, server, nil)
	}()
	client.SetDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
	r := bufio.NewReader(client)
	roundTrip := func(cmd string) string {
		t.Helper()
		// The pipe is unbuffered and the server stops reading at the
		// limit, so the write may fail half way: only the reply matters.
		go client.Write([]byte(cmd + "\n")) //nolint:errcheck
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("%.20q: no reply: %v", cmd, err)
		}
		return strings.TrimSpace(line)
	}
	if got := roundTrip("AV product-0000"); got != "OK 40" {
		t.Fatalf("AV reply %q", got)
	}
	if got := roundTrip("UPDATE product-0000 -1"); !strings.HasPrefix(got, "OK ") {
		t.Fatalf("UPDATE reply %q", got)
	}
	if got := roundTrip("READ " + strings.Repeat("k", bufio.MaxScanTokenSize+1)); got != "ERR line too long" {
		t.Fatalf("oversized line reply %q", got)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("serveClient still running after an oversized line")
	}
}
