// Package cluster builds complete multi-site avdb systems on an
// in-process network: N sites (site 0 is the base/maker), a shared
// product catalog seeded everywhere, and initial AV allocations for the
// regular products. Experiments, examples and integration tests all
// start from here.
package cluster

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"avdb/internal/chaos"
	"avdb/internal/clock"
	"avdb/internal/core"
	"avdb/internal/eventlog"
	"avdb/internal/failure"
	"avdb/internal/metrics"
	"avdb/internal/partition"
	"avdb/internal/site"
	"avdb/internal/storage"
	"avdb/internal/strategy"
	"avdb/internal/trace"
	"avdb/internal/transport"
	"avdb/internal/transport/memnet"
	"avdb/internal/twopc"
	"avdb/internal/wire"
)

// Config parameterizes a cluster.
type Config struct {
	// Sites is the number of sites (>= 1); site 0 is the base.
	Sites int
	// Items is the number of products in the catalog.
	Items int
	// InitialAmount is every product's starting stock.
	InitialAmount int64
	// NonRegularFraction in [0,1] selects how many items get no AV and
	// therefore take the Immediate path (the first
	// round(frac*Items) items, deterministically).
	NonRegularFraction float64
	// AVAllAtBase concentrates the whole initial AV at site 0 instead of
	// the default equal split (an ablation of the initial allocation).
	AVAllAtBase bool
	// Policy, Passes, Seed configure every accelerator.
	Policy strategy.Policy
	Passes int
	Seed   uint64
	// Registry counts messages; nil creates a fresh one.
	Registry *metrics.Registry
	// Tracer, when non-nil, records distributed-tracing spans for every
	// site and the network. One tracer serves the whole cluster; spans
	// carry the site ID.
	Tracer *trace.Tracer
	// Latency optionally injects network delay.
	Latency func(from, to wire.SiteID) time.Duration
	// CallTimeout bounds RPCs (default 5s; fault experiments shorten it).
	CallTimeout time.Duration
	// LockTimeout, RequestTimeout, PrepareTimeout are passed to sites.
	LockTimeout, RequestTimeout, PrepareTimeout time.Duration
	// FlushInterval/SweepInterval enable background loops on every site.
	FlushInterval, SweepInterval time.Duration
	// Dir, when non-empty, makes every site durable: site i keeps its
	// storage, AV rows included, under Dir/site-<i>, so a crashed site can be
	// restarted from its WAL (RestartSite). Durable sites run with fsync
	// off — the chaos scenarios model process crashes, not disk loss.
	Dir string
	// EpochInterval, when positive on a durable cluster, turns on
	// epoch-based commit on every site (see site.Config.EpochInterval).
	EpochInterval time.Duration
	// EpochMaxCommits caps commits per epoch (see site.Config).
	EpochMaxCommits int
	// Interceptor, when non-nil, is consulted for every message on the
	// in-process network — the seam chaos.Injector plugs into.
	Interceptor transport.Interceptor
	// RetransmitInterval enables Call retransmission on the network
	// (receivers dedup), letting RPCs ride out injected drops.
	RetransmitInterval time.Duration
	// HeartbeatInterval/SuspectAfter run each site's failure detector.
	HeartbeatInterval, SuspectAfter time.Duration
	// FlushPeerTimeout/FlushBackoff bound and back off per-peer flushes.
	FlushPeerTimeout time.Duration
	FlushBackoff     failure.Policy
	// Clock, when non-nil, drives every timer in the cluster — network
	// delivery and call timeouts, 2PC deadlines, flush deadlines, sweeps.
	// The deterministic simulator passes a *clock.Virtual; nil keeps the
	// real clock.
	Clock clock.Clock
	// EventsFor, when non-nil, supplies each site's event log (the
	// simulator hashes these into its reproducibility trace).
	EventsFor func(site int) *eventlog.Log
	// TxnObserver, when non-nil, receives every locally applied 2PC
	// outcome cluster-wide.
	TxnObserver func(twopc.Outcome)
	// ReadPlane gives every site a read plane (see
	// site.Config.ReadPlane). The simulator enables it so its oracles
	// can check what a client of /read/* sees and RYW-token safety.
	ReadPlane bool
	// Map places the catalog: each key lives only on its partition's
	// replica set (seeded there, AV defined there, anti-entropied there),
	// and every site routes updates for keys it does not host to their
	// owner. Nil is full replication: one partition on every site, owned
	// by site 0.
	Map *partition.Map
	// UpdateObserver, when non-nil, fires once per Delay Update
	// committed anywhere in the cluster, at the applying site (see
	// site.Config.UpdateObserver).
	UpdateObserver func(key string, delta int64)
}

// Cluster is a running multi-site system.
type Cluster struct {
	Cfg      Config
	Net      *memnet.Net
	Sites    []*site.Site
	Registry *metrics.Registry

	// RegularKeys have AVs (Delay Update); NonRegularKeys do not
	// (Immediate Update).
	RegularKeys    []string
	NonRegularKeys []string

	mu   sync.Mutex
	down map[int]bool // crashed sites (durable clusters only)
	// lost sums what crashed site incarnations could have taken with
	// them: their grants sent minus grants received, and the AV their
	// in-flight updates held when they went down (see LostSlackBound).
	lost int64
}

// SiteIDs returns the IDs of an n-site cluster: 0 (the base) to n-1.
func SiteIDs(n int) []wire.SiteID {
	ids := make([]wire.SiteID, max(n, 0))
	for i := range ids {
		ids[i] = wire.SiteID(i)
	}
	return ids
}

// KeyName returns the catalog key for item i.
func KeyName(i int) string { return fmt.Sprintf("product-%04d", i) }

// New builds and seeds a cluster.
func New(cfg Config) (*Cluster, error) {
	if cfg.Sites < 1 {
		return nil, fmt.Errorf("cluster: need at least 1 site, got %d", cfg.Sites)
	}
	if cfg.Items < 1 {
		return nil, fmt.Errorf("cluster: need at least 1 item, got %d", cfg.Items)
	}
	if cfg.Registry == nil {
		cfg.Registry = metrics.NewRegistry()
	}
	if cfg.Map == nil {
		var err error
		if cfg.Map, err = partition.Full(0, SiteIDs(cfg.Sites)); err != nil {
			return nil, fmt.Errorf("cluster: %w", err)
		}
	}
	c := &Cluster{
		Cfg:      cfg,
		Registry: cfg.Registry,
		down:     make(map[int]bool),
		Net: memnet.New(memnet.Options{
			Registry:           cfg.Registry,
			Latency:            cfg.Latency,
			CallTimeout:        cfg.CallTimeout,
			Tracer:             cfg.Tracer,
			Interceptor:        cfg.Interceptor,
			RetransmitInterval: cfg.RetransmitInterval,
			Clock:              cfg.Clock,
		}),
	}

	nonRegular := int(cfg.NonRegularFraction*float64(cfg.Items) + 0.5)
	var records []storage.Record
	for i := 0; i < cfg.Items; i++ {
		rec := storage.Record{
			Key:    KeyName(i),
			Name:   fmt.Sprintf("Product %d", i),
			Amount: cfg.InitialAmount,
			Class:  storage.Regular,
		}
		if i < nonRegular {
			rec.Class = storage.NonRegular
			c.NonRegularKeys = append(c.NonRegularKeys, rec.Key)
		} else {
			c.RegularKeys = append(c.RegularKeys, rec.Key)
		}
		records = append(records, rec)
	}

	for id := 0; id < cfg.Sites; id++ {
		s, err := site.Open(c.siteConfig(id), c.Net)
		if err != nil {
			c.Close()
			return nil, err
		}
		// A site's store holds only the keys of the partitions it hosts.
		var recs []storage.Record
		for _, r := range records {
			if cfg.Map.HostsKey(wire.SiteID(id), r.Key) {
				recs = append(recs, r)
			}
		}
		if err := s.Seed(recs...); err != nil {
			s.Close()
			c.Close()
			return nil, err
		}
		c.Sites = append(c.Sites, s)
	}

	// Initial AV allocation: the whole slack (== initial stock) is split
	// across the sites hosting the key (all of them under full
	// replication, the RF replicas under partitioning); equality of
	// sum(AV) and global stock is the system's conservation invariant
	// thereafter, per partition.
	for _, key := range c.RegularKeys {
		hosts := c.HostSitesFor(key)
		if cfg.AVAllAtBase {
			// Concentrate at the partition owner (the first replica): the
			// base under full replication.
			if err := c.Sites[hosts[0]].DefineAV(key, cfg.InitialAmount); err != nil {
				c.Close()
				return nil, err
			}
			for _, id := range hosts[1:] {
				if err := c.Sites[id].DefineAV(key, 0); err != nil {
					c.Close()
					return nil, err
				}
			}
			continue
		}
		share := cfg.InitialAmount / int64(len(hosts))
		remainder := cfg.InitialAmount - share*int64(len(hosts))
		for i, id := range hosts {
			vol := share
			if i == 0 {
				vol += remainder // owner (or base) takes the odd units
			}
			if err := c.Sites[id].DefineAV(key, vol); err != nil {
				c.Close()
				return nil, err
			}
		}
	}
	return c, nil
}

// HostSitesFor lists the site indices hosting key: its partition's
// replica set, owner first (every site, base first, under full
// replication).
func (c *Cluster) HostSitesFor(key string) []int {
	reps := c.Cfg.Map.ReplicasOf(key)
	out := make([]int, len(reps))
	for i, r := range reps {
		out[i] = int(r)
	}
	return out
}

// siteConfig builds site id's configuration; Open and RestartSite use
// the same one so a restarted site is the site that crashed.
func (c *Cluster) siteConfig(id int) site.Config {
	cfg := c.Cfg
	var peers []wire.SiteID
	for p := 0; p < cfg.Sites; p++ {
		if p != id {
			peers = append(peers, wire.SiteID(p))
		}
	}
	sc := site.Config{
		ID:                wire.SiteID(id),
		Base:              0,
		Peers:             peers,
		Policy:            cfg.Policy,
		Passes:            cfg.Passes,
		Seed:              cfg.Seed + uint64(id)*7919,
		Tracer:            cfg.Tracer,
		Clock:             cfg.Clock,
		TxnObserver:       cfg.TxnObserver,
		LockTimeout:       cfg.LockTimeout,
		RequestTimeout:    cfg.RequestTimeout,
		PrepareTimeout:    cfg.PrepareTimeout,
		FlushInterval:     cfg.FlushInterval,
		SweepInterval:     cfg.SweepInterval,
		HeartbeatInterval: cfg.HeartbeatInterval,
		SuspectAfter:      cfg.SuspectAfter,
		FlushPeerTimeout:  cfg.FlushPeerTimeout,
		FlushBackoff:      cfg.FlushBackoff,
		ReadPlane:         cfg.ReadPlane,
		Partitions:        c.Cfg.Map,
		UpdateObserver:    cfg.UpdateObserver,
	}
	if cfg.EventsFor != nil {
		sc.Events = cfg.EventsFor(id)
	}
	if cfg.Dir != "" {
		sc.StorageDir = filepath.Join(cfg.Dir, fmt.Sprintf("site-%d", id))
		sc.PersistAV = true
		sc.NoSync = true
		sc.EpochInterval = cfg.EpochInterval
		sc.EpochMaxCommits = cfg.EpochMaxCommits
	}
	return sc
}

// CrashSite tears site idx down: its node leaves the network mid-flight
// and, for a durable cluster, only the WAL survives. Updates must not
// be routed to a crashed site until RestartSite.
func (c *Cluster) CrashSite(idx int) error {
	if idx < 0 || idx >= len(c.Sites) {
		return fmt.Errorf("cluster: no site %d", idx)
	}
	c.mu.Lock()
	if c.down[idx] {
		c.mu.Unlock()
		return fmt.Errorf("cluster: site %d already down", idx)
	}
	c.down[idx] = true
	c.mu.Unlock()
	// What the dying incarnation can take with it: the AV its in-flight
	// updates hold, and its grants sent but not received. Received is
	// read with the holds, so a grant credited while the site goes down
	// counts as lost; granted is read once nothing more can be debited.
	s := c.Sites[idx]
	st := s.Accelerator().Stats()
	lost := -st.ReceivedUnits.Load()
	for _, key := range c.RegularKeys {
		lost += s.AV().Held(key)
	}
	err := s.Close()
	c.mu.Lock()
	c.lost += lost + st.GrantedUnits.Load()
	c.mu.Unlock()
	return err
}

// RestartSite rebuilds a crashed durable site from its on-disk state.
func (c *Cluster) RestartSite(idx int) error {
	if c.Cfg.Dir == "" {
		return fmt.Errorf("cluster: RestartSite requires a durable cluster (Config.Dir)")
	}
	if idx < 0 || idx >= len(c.Sites) {
		return fmt.Errorf("cluster: no site %d", idx)
	}
	c.mu.Lock()
	if !c.down[idx] {
		c.mu.Unlock()
		return fmt.Errorf("cluster: site %d is not down", idx)
	}
	c.mu.Unlock()
	s, err := site.Reopen(c.siteConfig(idx), c.Net)
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.Sites[idx] = s
	delete(c.down, idx)
	c.mu.Unlock()
	return nil
}

// SiteDown reports whether site idx is currently crashed.
func (c *Cluster) SiteDown(idx int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.down[idx]
}

// clusterEnv adapts a Cluster to chaos.Env so scripted scenarios can
// crash and restart its sites.
type clusterEnv struct{ c *Cluster }

func (e clusterEnv) Sites() []wire.SiteID { return SiteIDs(len(e.c.Sites)) }

func (e clusterEnv) Crash(s wire.SiteID) error   { return e.c.CrashSite(int(s)) }
func (e clusterEnv) Restart(s wire.SiteID) error { return e.c.RestartSite(int(s)) }

// ChaosEnv returns the cluster as a chaos.Env.
func (c *Cluster) ChaosEnv() chaos.Env { return clusterEnv{c} }

// Update applies delta to key at site idx.
func (c *Cluster) Update(ctx context.Context, idx int, key string, delta int64) (core.Result, error) {
	return c.Sites[idx].Update(ctx, key, delta)
}

// Read returns site idx's local value of key.
func (c *Cluster) Read(idx int, key string) (int64, error) {
	return c.Sites[idx].Read(key)
}

// FlushAll pushes every live site's replication backlog once.
func (c *Cluster) FlushAll(ctx context.Context) error {
	var firstErr error
	for i, s := range c.Sites {
		if c.SiteDown(i) {
			continue
		}
		if err := s.Flush(ctx); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// ConvergedValue verifies every site hosting key holds the same value
// for it (call after FlushAll) and returns it. Under full replication
// that is every site; under partitioning, the partition's replicas.
func (c *Cluster) ConvergedValue(key string) (int64, error) {
	hosts := c.HostSitesFor(key)
	v0, err := c.Sites[hosts[0]].Read(key)
	if err != nil {
		return 0, err
	}
	for _, i := range hosts[1:] {
		v, err := c.Sites[i].Read(key)
		if err != nil {
			return 0, err
		}
		if v != v0 {
			return 0, fmt.Errorf("cluster: key %s diverged: site%d=%d site%d=%d", key, hosts[0], v0, i, v)
		}
	}
	return v0, nil
}

// LostSlackBound returns the most AV slack the cluster can have lost:
// the units granted but never received over every site incarnation (the
// grant replies that were lost), plus the units held by in-flight
// updates at each crash (a received grant dies with the hold that has
// not committed it). Lost slack is the one way AV may leave the
// cluster other than a spend. With no lost reply and no crash the bound
// is zero.
func (c *Cluster) LostSlackBound() int64 {
	c.mu.Lock()
	lost := c.lost
	for i, s := range c.Sites {
		if !c.down[i] {
			st := s.Accelerator().Stats()
			lost += st.GrantedUnits.Load() - st.ReceivedUnits.Load()
		}
	}
	c.mu.Unlock()
	return lost
}

// CheckInvariants asserts, for every regular key, that the replicas have
// converged, that the system-wide AV never exceeds the global stock
// (no-mint: transfers move AV, decrements consume one unit of AV per
// unit of stock, increments mint one per unit), and that the slack
// missing summed over keys is within LostSlackBound — exact equality
// whenever no grant was lost. Call after FlushAll with no in-flight
// updates.
func (c *Cluster) CheckInvariants() error {
	var missing int64
	for _, key := range c.RegularKeys {
		v, err := c.ConvergedValue(key)
		if err != nil {
			return err
		}
		var avSum int64
		for _, s := range c.Sites {
			avSum += s.AV().Total(key)
		}
		if avSum > v {
			return fmt.Errorf("cluster: key %s AV sum %d exceeds global stock %d", key, avSum, v)
		}
		missing += v - avSum
		// At quiescence no update is in flight, so no reservation may
		// linger — a leaked hold would silently shrink usable slack.
		for i, s := range c.Sites {
			if held := s.AV().Held(key); held != 0 {
				return fmt.Errorf("cluster: key %s site %d leaked hold of %d", key, i, held)
			}
		}
	}
	if bound := c.LostSlackBound(); missing > bound {
		return fmt.Errorf("cluster: AV sums are %d short of global stock, more than the %d lost grants and crashes can explain", missing, bound)
	}
	for _, key := range c.NonRegularKeys {
		if _, err := c.ConvergedValue(key); err != nil {
			return err
		}
	}
	return c.CheckStoreLocality()
}

// CheckStoreLocality asserts that every site's store contains exactly
// the keys of the partitions it hosts — partial replication never leaked
// a foreign key in, and no hosted key went missing (under full
// replication: every site holds the whole catalog).
func (c *Cluster) CheckStoreLocality() error {
	for i, s := range c.Sites {
		if c.SiteDown(i) {
			continue
		}
		id := wire.SiteID(i)
		var violation error
		seen := 0
		err := s.Engine().Scan(func(rec storage.Record) bool {
			seen++
			if !c.Cfg.Map.HostsKey(id, rec.Key) {
				violation = fmt.Errorf(
					"cluster: site %d stores %q (partition %d) but does not host it",
					i, rec.Key, c.Cfg.Map.PartitionOf(rec.Key))
				return false
			}
			return true
		})
		if err != nil {
			return err
		}
		if violation != nil {
			return violation
		}
		want := 0
		for _, key := range c.RegularKeys {
			if c.Cfg.Map.HostsKey(id, key) {
				want++
			}
		}
		for _, key := range c.NonRegularKeys {
			if c.Cfg.Map.HostsKey(id, key) {
				want++
			}
		}
		if seen != want {
			return fmt.Errorf("cluster: site %d stores %d records, hosts %d", i, seen, want)
		}
	}
	return nil
}

// Close shuts down every site.
func (c *Cluster) Close() error {
	var firstErr error
	for i, s := range c.Sites {
		if s == nil || c.SiteDown(i) {
			continue
		}
		if err := s.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	c.Sites = nil
	return firstErr
}
