package partition

import (
	"fmt"
	"reflect"
	"testing"

	"avdb/internal/rng"
	"avdb/internal/wire"
)

func sitesUpTo(n int) []wire.SiteID {
	out := make([]wire.SiteID, n)
	for i := range out {
		out[i] = wire.SiteID(i)
	}
	return out
}

// Every key must resolve to exactly RF distinct live sites, with the
// owner a member of its own replica set — across a grid of cluster
// shapes and a large sample of keys.
func TestEveryKeyResolvesToExactlyRF(t *testing.T) {
	for _, tc := range []struct{ sites, parts, rf int }{
		{1, 1, 1},
		{3, 4, 2},
		{6, 16, 2},
		{6, 16, 3},
		{9, 64, 3},
		{33, 128, 5},
	} {
		m, err := New(sitesUpTo(tc.sites), tc.parts, tc.rf)
		if err != nil {
			t.Fatalf("sites=%d parts=%d rf=%d: %v", tc.sites, tc.parts, tc.rf, err)
		}
		for i := 0; i < 2000; i++ {
			key := fmt.Sprintf("product-%04d", i)
			reps := m.ReplicasOf(key)
			if len(reps) != tc.rf {
				t.Fatalf("sites=%d parts=%d rf=%d key %s: %d replicas", tc.sites, tc.parts, tc.rf, key, len(reps))
			}
			seen := make(map[wire.SiteID]bool)
			for _, s := range reps {
				if seen[s] {
					t.Fatalf("key %s: duplicate replica %d", key, s)
				}
				seen[s] = true
				if int(s) >= tc.sites {
					t.Fatalf("key %s: replica %d outside the cluster", key, s)
				}
				if !m.HostsKey(s, key) {
					t.Fatalf("key %s: replica %d does not report hosting it", key, s)
				}
			}
			if !seen[m.OwnerOf(key)] {
				t.Fatalf("key %s: owner %d not in replica set", key, m.OwnerOf(key))
			}
		}
	}
}

// Rendezvous hashing's minimal-disruption property, asserted exactly:
// when a site joins, a partition's replica set changes iff the
// newcomer ranked into its top-RF; when a site leaves, iff the leaver
// was in the set. No third partition may move.
func TestRemapStabilityOnJoinAndLeave(t *testing.T) {
	const parts, rf = 64, 2
	base, err := New(sitesUpTo(5), parts, rf)
	if err != nil {
		t.Fatal(err)
	}

	// Join: site 5 enters.
	joined, err := New(sitesUpTo(6), parts, rf)
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for p := 0; p < parts; p++ {
		before, after := base.Replicas(p), joined.Replicas(p)
		if joined.IsReplica(p, 5) {
			moved++
			continue
		}
		if !reflect.DeepEqual(before, after) {
			t.Fatalf("join: partition %d moved without involving the newcomer: %v -> %v", p, before, after)
		}
	}
	// The newcomer takes roughly its fair share of the RF*parts replica
	// slots (64*2/6 ≈ 21); a wide bound guards against a degenerate hash.
	if moved == 0 || moved > parts/2 {
		t.Fatalf("join: newcomer entered %d of %d partitions", moved, parts)
	}

	// Leave: site 2 exits the original map.
	var rest []wire.SiteID
	for _, s := range sitesUpTo(5) {
		if s != 2 {
			rest = append(rest, s)
		}
	}
	left, err := New(rest, parts, rf)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < parts; p++ {
		before, after := base.Replicas(p), left.Replicas(p)
		if base.IsReplica(p, 2) {
			if left.IsReplica(p, 2) {
				t.Fatalf("leave: partition %d still lists the departed site", p)
			}
			continue
		}
		if !reflect.DeepEqual(before, after) {
			t.Fatalf("leave: partition %d moved without hosting the leaver: %v -> %v", p, before, after)
		}
	}
}

// The assignment is a pure function of (sites, parts, rf): every node
// deriving its map from the same flags routes identically, however it
// lists the members.
func TestRebuildIsDeterministic(t *testing.T) {
	a, err := New([]wire.SiteID{4, 0, 2, 4, 1, 3}, 16, 2) // unsorted + dup
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(sitesUpTo(5), 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Sites(), b.Sites()) {
		t.Fatalf("sites normalize differently: %v vs %v", a.Sites(), b.Sites())
	}
	for p := 0; p < 16; p++ {
		if !reflect.DeepEqual(a.Replicas(p), b.Replicas(p)) {
			t.Fatalf("partition %d: %v vs %v", p, a.Replicas(p), b.Replicas(p))
		}
	}
}

// Hosted must be the exact inverse of the replica table, and partitions
// should spread across sites rather than pile onto one.
func TestHostedMatchesReplicaTable(t *testing.T) {
	m, err := New(sitesUpTo(6), 64, 2)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[wire.SiteID]int)
	for _, s := range m.Sites() {
		for _, p := range m.Hosted(s) {
			if !m.IsReplica(p, s) {
				t.Fatalf("site %d claims partition %d it does not host", s, p)
			}
			counts[s]++
		}
	}
	total := 0
	for _, n := range counts {
		total += n
	}
	if total != 64*2 {
		t.Fatalf("hosted slots = %d, want %d", total, 64*2)
	}
	for s, n := range counts {
		// Fair share is ~21; any site holding over half the slots means
		// the weights are badly skewed.
		if n == 0 || n > 64 {
			t.Fatalf("site %d hosts %d partition slots", s, n)
		}
	}
	if m.Hosted(wire.SiteID(99)) != nil {
		t.Fatal("site outside the map hosts partitions")
	}
}

// PeersFor removes self and keeps everyone else, whichever replica asks.
func TestPeersFor(t *testing.T) {
	m, err := New(sitesUpTo(6), 16, 3)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(42)
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("k-%d", r.Uint64())
		reps := m.ReplicasOf(key)
		for _, self := range reps {
			peers := m.PeersFor(self, key)
			if len(peers) != len(reps)-1 {
				t.Fatalf("key %s self %d: %d peers", key, self, len(peers))
			}
			for _, p := range peers {
				if p == self {
					t.Fatalf("key %s: self in peer set", key)
				}
				if !m.HostsKey(p, key) {
					t.Fatalf("key %s: peer %d is not a replica", key, p)
				}
			}
		}
	}
}

// Config validation: bad shapes must be refused, not mis-built.
func TestValidation(t *testing.T) {
	if _, err := New(nil, 4, 1); err == nil {
		t.Fatal("empty site set accepted")
	}
	if _, err := New(sitesUpTo(3), 0, 1); err == nil {
		t.Fatal("zero partitions accepted")
	}
	if _, err := New(sitesUpTo(3), 4, 4); err == nil {
		t.Fatal("rf > sites accepted")
	}
	if _, err := New(sitesUpTo(3), 4, 0); err == nil {
		t.Fatal("rf 0 accepted")
	}
	if _, err := Full(7, sitesUpTo(3)); err == nil {
		t.Fatal("full map with a base outside the sites accepted")
	}
	if _, err := Full(0, nil); err == nil {
		t.Fatal("empty full map accepted")
	}
}

// Full replication is one partition on every site: the base owns it,
// the others follow in ascending order, so each site's peer list is the
// ascending list of every other site.
func TestFullIsOnePartitionOnEverySite(t *testing.T) {
	m, err := Full(2, []wire.SiteID{3, 0, 2, 1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if m.Parts() != 1 || m.RF() != 4 || m.Version() != 1 {
		t.Fatalf("parts=%d rf=%d version=%d, want 1, 4, 1", m.Parts(), m.RF(), m.Version())
	}
	if want := []wire.SiteID{2, 0, 1, 3}; !reflect.DeepEqual(m.Replicas(0), want) {
		t.Fatalf("replicas = %v, want %v", m.Replicas(0), want)
	}
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("product-%04d", i)
		if m.OwnerOf(key) != 2 {
			t.Fatalf("key %s: owner %d, want the base", key, m.OwnerOf(key))
		}
		for _, s := range sitesUpTo(4) {
			if !m.HostsKey(s, key) {
				t.Fatalf("key %s: site %d does not host it", key, s)
			}
		}
	}
	if got, want := m.PeersFor(1, "k"), []wire.SiteID{2, 0, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("peers of 1 = %v, want %v", got, want)
	}
	if got := m.Hosted(3); !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("site 3 hosts %v, want [0]", got)
	}
}
