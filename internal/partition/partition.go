// Package partition shards the key space across sites. Keys hash onto
// a fixed set of virtual partitions; each partition is assigned an
// owner and a replica set by rendezvous (highest-random-weight) hashing
// over the member sites. Rendezvous hashing bounds what a different
// membership would move: adding or removing one site
// changes a partition's replica set if and only if that site ranks into
// (or out of) the partition's top-RF — every other assignment is
// untouched, so key movement is bounded by the joining/leaving site's
// own share.
//
// A Map is immutable and static: every site derives the same one from
// the same configuration, so a deployment never holds two versions.
// Full replication — the paper's system, where every site holds the
// whole catalog — is the one-partition map with RF = N (see Full), so
// sharded and unsharded clusters run the same routing, replication
// filter and oracles. The conventional centralized system is the
// one-partition map with RF = 1 at the base (see Central).
package partition

import (
	"fmt"
	"slices"
	"sort"

	"avdb/internal/wire"
)

// Map is one immutable assignment of the key space: hash(key) mod Parts
// chooses the partition, and each partition has an ordered replica set
// (the owner first, holding the partition's primary copy for Immediate
// Updates).
type Map struct {
	parts  int
	rf     int
	sites  []wire.SiteID   // sorted, deduplicated
	table  [][]wire.SiteID // partition -> replicas, owner first
	hosted map[wire.SiteID][]int
}

// newMap validates parts and the member set and allocates a map whose
// RF and table the caller fills in.
func newMap(sites []wire.SiteID, parts int) (*Map, error) {
	if parts < 1 {
		return nil, fmt.Errorf("partition: need >= 1 partition, got %d", parts)
	}
	sorted := append([]wire.SiteID(nil), sites...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	uniq := sorted[:0]
	for i, s := range sorted {
		if i == 0 || s != sorted[i-1] {
			uniq = append(uniq, s)
		}
	}
	if len(uniq) == 0 {
		return nil, fmt.Errorf("partition: need >= 1 site")
	}
	return &Map{
		parts:  parts,
		sites:  uniq,
		table:  make([][]wire.SiteID, parts),
		hosted: make(map[wire.SiteID][]int, len(uniq)),
	}, nil
}

// assign installs partition p's replica set, owner first.
func (m *Map) assign(p int, replicas []wire.SiteID) {
	m.table[p] = replicas
	for _, s := range replicas {
		m.hosted[s] = append(m.hosted[s], p)
	}
}

// Full is full replication as a map: one partition, replicated on every
// site, owned by base (the site holding the primary copy), the other
// sites following in ascending order. base must be one of sites.
func Full(base wire.SiteID, sites []wire.SiteID) (*Map, error) {
	m, err := newMap(sites, 1)
	if err != nil {
		return nil, err
	}
	replicas := []wire.SiteID{base}
	for _, s := range m.sites {
		if s != base {
			replicas = append(replicas, s)
		}
	}
	if len(replicas) != len(m.sites) {
		return nil, fmt.Errorf("partition: base %d is not one of the sites %v", base, m.sites)
	}
	m.rf = len(replicas)
	m.assign(0, replicas)
	return m, nil
}

// Central is the conventional centralized system as a map: one
// partition whose only replica is base, so every other site routes its
// updates to base and holds no copy. base must be one of sites.
func Central(base wire.SiteID, sites []wire.SiteID) (*Map, error) {
	m, err := newMap(sites, 1)
	if err != nil {
		return nil, err
	}
	if !slices.Contains(m.sites, base) {
		return nil, fmt.Errorf("partition: base %d is not one of the sites %v", base, m.sites)
	}
	m.rf = 1
	m.assign(0, []wire.SiteID{base})
	return m, nil
}

// New builds a sharded map: parts virtual partitions over sites, each
// replicated on rf of them chosen by rendezvous hashing (the top-RF
// sites by weight; the top-ranked one is the owner). The assignment is
// a pure function of (sites, parts, rf), so every site derives the same
// routing from the same configuration.
func New(sites []wire.SiteID, parts, rf int) (*Map, error) {
	m, err := newMap(sites, parts)
	if err != nil {
		return nil, err
	}
	uniq := m.sites
	if rf < 1 || rf > len(uniq) {
		return nil, fmt.Errorf("partition: replication factor %d outside [1, %d sites]", rf, len(uniq))
	}
	m.rf = rf
	type ranked struct {
		site   wire.SiteID
		weight uint64
	}
	ranks := make([]ranked, len(uniq))
	for p := 0; p < parts; p++ {
		for i, s := range uniq {
			ranks[i] = ranked{site: s, weight: weight(p, s)}
		}
		// Highest weight first; the site id breaks (astronomically
		// unlikely) ties so the order is total and deterministic.
		sort.Slice(ranks, func(i, j int) bool {
			if ranks[i].weight != ranks[j].weight {
				return ranks[i].weight > ranks[j].weight
			}
			return ranks[i].site < ranks[j].site
		})
		replicas := make([]wire.SiteID, rf)
		for i := range replicas {
			replicas[i] = ranks[i].site
		}
		m.assign(p, replicas)
	}
	return m, nil
}

// weight is the rendezvous score of (partition, site): a splitmix64
// finalization over both, so each pair's rank is independent.
func weight(p int, s wire.SiteID) uint64 {
	z := uint64(p)*0x9E3779B97F4A7C15 ^ (uint64(s)+1)*0xBF58476D1CE4E5B9
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// fnv1a is the 64-bit FNV-1a hash of key.
func fnv1a(key string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return h
}

// Version is always 1: a map is static configuration, never succeeded
// by another. Routed updates still carry it (wire.RouteUpdate).
func (m *Map) Version() uint64 { return 1 }

// Parts returns the number of virtual partitions.
func (m *Map) Parts() int { return m.parts }

// RF returns the replication factor.
func (m *Map) RF() int { return m.rf }

// Sites returns the member sites (sorted; callers must not mutate).
func (m *Map) Sites() []wire.SiteID { return m.sites }

// PartitionOf maps key to its partition.
func (m *Map) PartitionOf(key string) int {
	return int(fnv1a(key) % uint64(m.parts))
}

// Replicas returns partition p's replica set, owner first (callers must
// not mutate).
func (m *Map) Replicas(p int) []wire.SiteID { return m.table[p] }

// Owner returns the site holding partition p's primary copy.
func (m *Map) Owner(p int) wire.SiteID { return m.table[p][0] }

// OwnerOf returns the owner of key's partition.
func (m *Map) OwnerOf(key string) wire.SiteID { return m.Owner(m.PartitionOf(key)) }

// ReplicasOf returns the replica set of key's partition, owner first.
func (m *Map) ReplicasOf(key string) []wire.SiteID { return m.table[m.PartitionOf(key)] }

// IsReplica reports whether site hosts partition p.
func (m *Map) IsReplica(p int, site wire.SiteID) bool {
	for _, s := range m.table[p] {
		if s == site {
			return true
		}
	}
	return false
}

// HostsKey reports whether site hosts key's partition.
func (m *Map) HostsKey(site wire.SiteID, key string) bool {
	return m.IsReplica(m.PartitionOf(key), site)
}

// Hosted returns the partitions site hosts, ascending (callers must not
// mutate). A site outside the map hosts nothing.
func (m *Map) Hosted(site wire.SiteID) []int { return m.hosted[site] }

// PeersFor returns key's replica set with self removed — the candidate
// set a hosting site's accelerator gathers AV from and the participant
// list for Immediate Updates.
func (m *Map) PeersFor(self wire.SiteID, key string) []wire.SiteID {
	reps := m.ReplicasOf(key)
	out := make([]wire.SiteID, 0, len(reps)-1)
	for _, s := range reps {
		if s != self {
			out = append(out, s)
		}
	}
	return out
}
