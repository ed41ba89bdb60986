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
	// PolicyFor, when non-nil, supplies each site its own policy and
	// optional demand observer (stateful policies such as
	// strategy.GrantDemandAware must not be shared between sites).
	PolicyFor func(site int) (strategy.Policy, core.DemandObserver)
	// DisableGossip turns off AV-view piggybacking everywhere (A7).
	DisableGossip bool
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
	// storage and AV journal under Dir/site-<i>, so a crashed site can be
	// restarted from its WAL (RestartSite). Durable sites run with fsync
	// off — the chaos scenarios model process crashes, not disk loss.
	Dir string
	// EpochInterval, when positive on a durable cluster, turns on
	// epoch-based commit on every site (see site.Config.EpochInterval).
	EpochInterval time.Duration
	// EpochMaxCommits caps commits per epoch (see site.Config).
	EpochMaxCommits int
	// EpochAdaptive turns on the adaptive interval controller, clamped
	// to [EpochMinInterval, EpochMaxInterval] (see site.Config).
	EpochAdaptive                      bool
	EpochMinInterval, EpochMaxInterval time.Duration
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
	// EscrowTransfers makes remote AV grants crash-safe escrowed
	// transfers on every site.
	EscrowTransfers bool
	// Clock, when non-nil, drives every timer in the cluster — network
	// delivery and call timeouts, 2PC deadlines, flush deadlines, sweeps.
	// The deterministic simulator passes a *clock.Virtual; nil keeps the
	// real clock.
	Clock clock.Clock
	// EventsFor, when non-nil, supplies each site's event log (the
	// simulator hashes these into its reproducibility trace).
	EventsFor func(site int) *eventlog.Log
	// XferSalt, when non-zero, makes escrow transfer ids deterministic;
	// the cluster mixes in the site id and a per-site restart epoch so
	// ids stay unique across restarts. Zero keeps wall-clock entropy.
	XferSalt uint64
	// TxnObserver, when non-nil, receives every locally applied 2PC
	// outcome cluster-wide.
	TxnObserver func(twopc.Outcome)
	// ReadPlane gives every site an event-sourced read plane (see
	// site.Config.ReadPlane). The simulator enables it so its oracles
	// can prove read-model convergence and RYW-token safety.
	ReadPlane bool
	// Partitions, when > 0, shards the catalog over that many virtual
	// partitions with replication factor RF: each key lives only on its
	// partition's replica set (seeded there, AV defined there,
	// anti-entropied there), and every site routes updates for foreign
	// keys to the owning replicas. Zero keeps legacy full replication.
	Partitions int
	// RF is the replication factor in sharded mode (default 2, capped
	// at Sites). Ignored when Partitions is zero.
	RF int
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

	// pm is the shared partition map, nil for legacy full replication.
	pm *partition.Map

	mu     sync.Mutex
	down   map[int]bool // crashed sites (durable clusters only)
	epochs map[int]int  // per-site restart count, salts transfer ids
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
	var pm *partition.Map
	if cfg.Partitions > 0 {
		if cfg.RF <= 0 {
			cfg.RF = 2
		}
		if cfg.RF > cfg.Sites {
			cfg.RF = cfg.Sites
		}
		ids := make([]wire.SiteID, cfg.Sites)
		for i := range ids {
			ids[i] = wire.SiteID(i)
		}
		var err error
		pm, err = partition.New(ids, cfg.Partitions, cfg.RF)
		if err != nil {
			return nil, fmt.Errorf("cluster: %w", err)
		}
	}
	c := &Cluster{
		pm:       pm,
		Cfg:      cfg,
		Registry: cfg.Registry,
		down:     make(map[int]bool),
		epochs:   make(map[int]int),
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
		recs := records
		if pm != nil {
			// Partial replication: a site's store holds only the keys of
			// the partitions it hosts.
			recs = recs[:0:0]
			for _, r := range records {
				if pm.HostsKey(wire.SiteID(id), r.Key) {
					recs = append(recs, r)
				}
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
	// thereafter — partition-local when sharded.
	for _, key := range c.RegularKeys {
		hosts := c.HostSitesFor(key)
		if cfg.AVAllAtBase {
			// Sharded clusters concentrate at the partition owner (the
			// first replica), legacy ones at the base.
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

// HostSitesFor lists the site indices hosting key: the partition's
// replica set (owner first) when sharded, every site otherwise.
func (c *Cluster) HostSitesFor(key string) []int {
	if c.pm == nil {
		all := make([]int, c.Cfg.Sites)
		for i := range all {
			all[i] = i
		}
		return all
	}
	reps := c.pm.ReplicasOf(key)
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
	policy := cfg.Policy
	var demand core.DemandObserver
	if cfg.PolicyFor != nil {
		policy, demand = cfg.PolicyFor(id)
	}
	sc := site.Config{
		ID:                wire.SiteID(id),
		Base:              0,
		Peers:             peers,
		Policy:            policy,
		Passes:            cfg.Passes,
		Seed:              cfg.Seed + uint64(id)*7919,
		Demand:            demand,
		DisableGossip:     cfg.DisableGossip,
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
		EscrowTransfers:   cfg.EscrowTransfers,
		ReadPlane:         cfg.ReadPlane,
		Partitions:        c.pm,
		UpdateObserver:    cfg.UpdateObserver,
	}
	if cfg.EventsFor != nil {
		sc.Events = cfg.EventsFor(id)
	}
	c.mu.Lock()
	epoch := c.epochs[id]
	c.mu.Unlock()
	// A reborn site must never re-mint an id a previous life used:
	// granters tombstone resolved transfer ids, and participants may
	// still hold the old incarnation's transactions.
	sc.TxnIDEpoch = uint64(epoch)
	if cfg.XferSalt != 0 {
		sc.XferSalt = cfg.XferSalt ^ ((uint64(id) + 1) << 32) ^ (uint64(epoch) + 1)
	}
	if cfg.Dir != "" {
		sc.StorageDir = filepath.Join(cfg.Dir, fmt.Sprintf("site-%d", id))
		sc.PersistAV = true
		sc.NoSync = true
		sc.EpochInterval = cfg.EpochInterval
		sc.EpochMaxCommits = cfg.EpochMaxCommits
		sc.EpochAdaptive = cfg.EpochAdaptive
		sc.EpochMinInterval = cfg.EpochMinInterval
		sc.EpochMaxInterval = cfg.EpochMaxInterval
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
	return c.Sites[idx].Close()
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
	c.epochs[idx]++ // the reborn site mints transfer ids from a new salt
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

func (e clusterEnv) Sites() []wire.SiteID {
	ids := make([]wire.SiteID, len(e.c.Sites))
	for i := range ids {
		ids[i] = wire.SiteID(i)
	}
	return ids
}

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

// CheckInvariants asserts, for every regular key, that the replicas have
// converged and that the system-wide AV exactly equals the global stock:
// transfers conserve AV, decrements consume one unit of AV per unit of
// stock, increments mint one per unit. Call after FlushAll with no
// in-flight updates.
func (c *Cluster) CheckInvariants() error {
	for _, key := range c.RegularKeys {
		v, err := c.ConvergedValue(key)
		if err != nil {
			return err
		}
		var avSum int64
		for _, s := range c.Sites {
			avSum += s.AV().Total(key)
		}
		if avSum != v {
			return fmt.Errorf("cluster: key %s AV sum %d != global stock %d", key, avSum, v)
		}
		// At quiescence no update is in flight, so no reservation or
		// unsettled escrow may linger — a leaked hold would silently
		// shrink usable slack, an unsettled escrow double-counts volume.
		for i, s := range c.Sites {
			if held := s.AV().Held(key); held != 0 {
				return fmt.Errorf("cluster: key %s site %d leaked hold of %d", key, i, held)
			}
			if esc := s.AV().Escrowed(key); esc != 0 {
				return fmt.Errorf("cluster: key %s site %d left %d in escrow", key, i, esc)
			}
		}
	}
	for _, key := range c.NonRegularKeys {
		if _, err := c.ConvergedValue(key); err != nil {
			return err
		}
	}
	return c.CheckStoreLocality()
}

// CheckStoreLocality asserts, in a sharded cluster, that every site's
// store contains exactly the keys of the partitions it hosts — partial
// replication never leaked a foreign key in, and no hosted key went
// missing. No-op under full replication.
func (c *Cluster) CheckStoreLocality() error {
	if c.pm == nil {
		return nil
	}
	for i, s := range c.Sites {
		if c.SiteDown(i) {
			continue
		}
		id := wire.SiteID(i)
		var violation error
		seen := 0
		err := s.Engine().Scan(func(rec storage.Record) bool {
			seen++
			if !c.pm.HostsKey(id, rec.Key) {
				violation = fmt.Errorf(
					"cluster: site %d stores %q (partition %d) but does not host it",
					i, rec.Key, c.pm.PartitionOf(rec.Key))
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
			if c.pm.HostsKey(id, key) {
				want++
			}
		}
		for _, key := range c.NonRegularKeys {
			if c.pm.HostsKey(id, key) {
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
