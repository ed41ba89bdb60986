package site

import (
	"errors"
	"fmt"
	"testing"

	"avdb/internal/partition"
	"avdb/internal/storage"
	"avdb/internal/transport/memnet"
	"avdb/internal/wire"
)

// Maps are static, so an origin whose map disagrees with the cluster's
// (a misconfigured node) has its forwarded update refused: the receiver
// counts the misroute and applies nothing, and the origin reports
// ErrNotReplica instead of adopting a map or retrying elsewhere.
func TestDisagreeingMapRefusedNotApplied(t *testing.T) {
	mapOrigin, err := partition.New([]wire.SiteID{0, 1}, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	mapCluster, err := partition.New([]wire.SiteID{0, 1, 2}, 8, 1)
	if err != nil {
		t.Fatal(err)
	}

	// A key the origin believes site 1 owns, while the cluster puts it
	// on site 2.
	key := ""
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("product-%04d", i)
		if mapOrigin.OwnerOf(k) == 1 && mapCluster.OwnerOf(k) == 2 {
			key = k
			break
		}
	}
	if key == "" {
		t.Fatal("no disputed key found")
	}

	net := memnet.New(memnet.Options{})
	open := func(id wire.SiteID, pm *partition.Map) *Site {
		var peers []wire.SiteID
		for p := wire.SiteID(0); p < 3; p++ {
			if p != id {
				peers = append(peers, p)
			}
		}
		s, err := Open(Config{ID: id, Peers: peers, Partitions: pm}, net)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}
	origin := open(0, mapOrigin)
	wrong := open(1, mapCluster)
	owner := open(2, mapCluster)
	if err := owner.Seed(storage.Record{Key: key, Amount: 50, Class: storage.Regular}); err != nil {
		t.Fatal(err)
	}
	if err := owner.DefineAV(key, 50); err != nil {
		t.Fatal(err)
	}

	if _, err := origin.Update(bg(), key, -3); !errors.Is(err, ErrNotReplica) {
		t.Fatalf("err = %v, want ErrNotReplica", err)
	}
	if rs := origin.RouteStats(); rs.Forwarded != 0 {
		t.Fatalf("origin counted a refused update as forwarded: %+v", rs)
	}
	if rs := wrong.RouteStats(); rs.Misroutes != 1 || rs.Served != 0 {
		t.Fatalf("receiver stats = %+v, want one misroute, nothing served", rs)
	}
	if _, err := wrong.Read(key); err == nil {
		t.Fatal("receiver stored the misrouted key")
	}
	if rs := owner.RouteStats(); rs.Served != 0 {
		t.Fatalf("the refused update was retried at the owner: %+v", rs)
	}
	if v, err := owner.Read(key); err != nil || v != 50 {
		t.Fatalf("owner value = %d, %v, want 50 untouched", v, err)
	}
}

// Without a map, a site runs full replication: the one-partition map
// over itself and its peers, owned by the base, so it hosts every key
// and forwards nothing.
func TestNilMapIsFullReplication(t *testing.T) {
	s, err := Open(Config{ID: 2, Base: 1, Peers: []wire.SiteID{3, 0, 1}}, memnet.New(memnet.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	pm := s.PartitionMap()
	if pm.Parts() != 1 || pm.RF() != 4 {
		t.Fatalf("parts=%d rf=%d, want 1 and 4", pm.Parts(), pm.RF())
	}
	if got := fmt.Sprint(pm.Replicas(0)); got != "[1 0 2 3]" {
		t.Fatalf("replicas = %s, want base first, then ascending", got)
	}
	if err := s.Seed(storage.Record{Key: "k", Amount: 10, Class: storage.Regular}); err != nil {
		t.Fatal(err)
	}
	if err := s.DefineAV("k", 10); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Update(bg(), "k", -4); err != nil {
		t.Fatal(err)
	}
	if rs := s.RouteStats(); rs.Forwarded != 0 {
		t.Fatalf("full replication forwarded an update: %+v", rs)
	}
	if _, err := Open(Config{ID: 0, Base: 5, Peers: []wire.SiteID{1}}, memnet.New(memnet.Options{})); err == nil {
		t.Fatal("a base outside the sites accepted")
	}
}
