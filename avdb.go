// Package avdb is a distributed database with per-site autonomous
// consistency for numeric data, reproducing Hanamura, Kaji and Mori,
// "Autonomous Consistency Technique in Distributed Database with
// Heterogeneous Requirements" (IPPS Workshops 2000).
//
// Each site holds a full copy of a product catalog. Numeric columns
// (stock amounts) can be declared to carry an Allowable Volume (AV): a
// site-local escrow quota that lets the site decrement the value with
// zero communication (Delay Update), while an accelerator circulates AV
// between sites on demand. Data without an AV is updated through a
// primary-copy two-phase commit across all sites (Immediate Update).
// The two disciplines coexist per product, which is how the system
// satisfies heterogeneous — even contradictory — consistency
// requirements at once.
//
// Quick start:
//
//	c, _ := avdb.New(avdb.Config{Sites: 3})
//	c.AddProduct(avdb.Product{Key: "widget", Amount: 900, Class: avdb.Regular})
//	c.Update(ctx, 1, "widget", -100) // local at site 1, no messages
//	c.Sync(ctx)                      // lazy convergence
//	v, _ := c.Read(0, "widget")      // 800 at every site
//
// See examples/ for runnable scenarios and cmd/avsim for the paper's
// experiments.
package avdb

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"avdb/internal/core"
	"avdb/internal/metrics"
	"avdb/internal/site"
	"avdb/internal/storage"
	"avdb/internal/strategy"
	"avdb/internal/transport/memnet"
	"avdb/internal/twopc"
	"avdb/internal/wire"
)

// Product classification: Regular products get an AV (Delay Updates);
// NonRegular products are strongly consistent (Immediate Updates).
const (
	Regular    = storage.Regular
	NonRegular = storage.NonRegular
)

// Product is one catalog row.
type Product struct {
	Key    string
	Name   string
	Amount int64
	Class  storage.Class
}

// Result reports how an update was executed.
type Result = core.Result

// Update paths (Result.Path).
const (
	PathDelayLocal    = core.PathDelayLocal
	PathDelayTransfer = core.PathDelayTransfer
	PathImmediate     = core.PathImmediate
)

// Errors a caller is expected to handle.
var (
	// ErrInsufficientAV: the system-wide slack could not cover a Delay
	// Update decrement.
	ErrInsufficientAV = core.ErrInsufficientAV
	// ErrAborted: an Immediate Update was refused (validation or an
	// unreachable site).
	ErrAborted = twopc.ErrAborted
)

// Config parameterizes a cluster.
type Config struct {
	// Sites is the number of sites (site 0 is the base/maker). Required.
	Sites int
	// Selector chooses whom to ask for AV: "max-known" (default),
	// "random", or "round-robin".
	Selector string
	// Decider chooses transfer volumes: "half" (default, the paper's
	// SODA'99 policy), "exact", "all", or "generous".
	Decider string
	// Passes bounds AV-gathering passes per update (default 3).
	Passes int
	// Seed makes policy randomness reproducible.
	Seed uint64
	// Dir, when set, gives each site a durable storage directory
	// (Dir/site-N) with WAL and snapshots; empty runs in memory. The AV
	// table is rows of the same storage engine, so allowable volume
	// survives restarts with the stock it covers; on a reopened cluster,
	// AddProduct skips rows and AV definitions that already exist.
	Dir string
	// NoSync disables WAL fsync for durable clusters.
	NoSync bool
	// SyncInterval, when > 0, runs lazy propagation automatically in the
	// background; 0 leaves it to explicit Sync calls.
	SyncInterval time.Duration
	// Latency optionally injects per-message network delay.
	Latency func(from, to int) time.Duration
}

// Cluster is a running multi-site database.
type Cluster struct {
	cfg      Config
	net      *memnet.Net
	sites    []*site.Site
	registry *metrics.Registry
	peers    [][]wire.SiteID
}

// selectorByName maps Config.Selector values to implementations.
func selectorByName(name string) (strategy.Selector, error) {
	switch name {
	case "", "max-known":
		return strategy.MaxKnown{}, nil
	case "random":
		return strategy.RandomSelect{}, nil
	case "round-robin":
		return &strategy.RoundRobin{}, nil
	default:
		return nil, fmt.Errorf("avdb: unknown selector %q", name)
	}
}

// deciderByName maps Config.Decider values to implementations.
func deciderByName(name string) (strategy.Decider, error) {
	switch name {
	case "", "half":
		return strategy.GrantHalf{}, nil
	case "exact":
		return strategy.GrantExact{}, nil
	case "all":
		return strategy.GrantAll{}, nil
	case "generous":
		return strategy.GrantGenerous{}, nil
	default:
		return nil, fmt.Errorf("avdb: unknown decider %q", name)
	}
}

// New builds an empty cluster; add products with AddProduct.
func New(cfg Config) (*Cluster, error) {
	if cfg.Sites < 1 {
		return nil, errors.New("avdb: Config.Sites must be >= 1")
	}
	sel, err := selectorByName(cfg.Selector)
	if err != nil {
		return nil, err
	}
	dec, err := deciderByName(cfg.Decider)
	if err != nil {
		return nil, err
	}
	var latency func(from, to wire.SiteID) time.Duration
	if cfg.Latency != nil {
		latency = func(from, to wire.SiteID) time.Duration {
			return cfg.Latency(int(from), int(to))
		}
	}
	c := &Cluster{
		cfg:      cfg,
		registry: metrics.NewRegistry(),
	}
	c.net = memnet.New(memnet.Options{Registry: c.registry, Latency: latency})
	for id := 0; id < cfg.Sites; id++ {
		var peers []wire.SiteID
		for p := 0; p < cfg.Sites; p++ {
			if p != id {
				peers = append(peers, wire.SiteID(p))
			}
		}
		c.peers = append(c.peers, peers)
		dir := ""
		if cfg.Dir != "" {
			dir = filepath.Join(cfg.Dir, fmt.Sprintf("site-%d", id))
		}
		s, err := site.Open(site.Config{
			ID:            wire.SiteID(id),
			Base:          0,
			Peers:         peers,
			StorageDir:    dir,
			PersistAV:     dir != "",
			NoSync:        cfg.NoSync,
			Policy:        strategy.Policy{Selector: sel, Decider: dec},
			Passes:        cfg.Passes,
			Seed:          cfg.Seed + uint64(id)*7919,
			FlushInterval: cfg.SyncInterval,
			SweepInterval: cfg.SyncInterval,
		}, c.net)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.sites = append(c.sites, s)
	}
	return c, nil
}

// AddProduct inserts p at every site and, for Regular products, splits
// the initial AV (equal to the initial stock) evenly across sites. Use
// AddProductAV for a custom allocation.
func (c *Cluster) AddProduct(p Product) error {
	if p.Class == NonRegular {
		return c.AddProductAV(p, nil)
	}
	share := p.Amount / int64(len(c.sites))
	avs := make([]int64, len(c.sites))
	rem := p.Amount
	for i := range avs {
		avs[i] = share
		rem -= share
	}
	avs[0] += rem
	return c.AddProductAV(p, avs)
}

// AddProductAV inserts p at every site with an explicit per-site initial
// AV allocation (nil for NonRegular products). The allocation's sum is
// the volume the cluster may collectively subtract before coordination
// fails; allocating exactly p.Amount preserves the conservation
// invariant (stock can never go globally negative).
func (c *Cluster) AddProductAV(p Product, avPerSite []int64) error {
	if p.Key == "" {
		return errors.New("avdb: product key must be non-empty")
	}
	if p.Class == Regular && len(avPerSite) != len(c.sites) {
		return fmt.Errorf("avdb: need %d AV allocations, got %d", len(c.sites), len(avPerSite))
	}
	if p.Class == NonRegular && avPerSite != nil {
		return errors.New("avdb: non-regular products carry no AV")
	}
	rec := storage.Record{Key: p.Key, Name: p.Name, Amount: p.Amount, Class: p.Class}
	for i, s := range c.sites {
		// On a reopened durable cluster the row and its AV may already
		// exist; re-seeding would reset stock and mint AV.
		if _, err := s.Read(p.Key); err != nil {
			if err := s.Seed(rec); err != nil {
				return err
			}
		}
		if p.Class == Regular && !s.AV().Defined(p.Key) {
			if err := s.DefineAV(p.Key, avPerSite[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// Update applies delta to key at site idx; the accelerator picks the
// discipline (Delay for Regular products, Immediate for NonRegular).
func (c *Cluster) Update(ctx context.Context, idx int, key string, delta int64) (Result, error) {
	if err := c.checkSite(idx); err != nil {
		return Result{}, err
	}
	return c.sites[idx].Update(ctx, key, delta)
}

// Read returns site idx's current local value of key. For Regular
// products this is eventually consistent (exact after Sync); for
// NonRegular products it is always current.
func (c *Cluster) Read(idx int, key string) (int64, error) {
	if err := c.checkSite(idx); err != nil {
		return 0, err
	}
	return c.sites[idx].Read(key)
}

// AV returns site idx's free allowable volume for key.
func (c *Cluster) AV(idx int, key string) (int64, error) {
	if err := c.checkSite(idx); err != nil {
		return 0, err
	}
	return c.sites[idx].AV().Avail(key), nil
}

// ReadFresh pulls pending deltas from all reachable peers into site idx
// and then reads locally — an up-to-date read of a Regular product
// without waiting for the background sync cycle.
func (c *Cluster) ReadFresh(ctx context.Context, idx int, key string) (int64, error) {
	if err := c.checkSite(idx); err != nil {
		return 0, err
	}
	return c.sites[idx].ReadFresh(ctx, key)
}

// Sync runs one round of lazy propagation from every site.
func (c *Cluster) Sync(ctx context.Context) error {
	var firstErr error
	for _, s := range c.sites {
		if err := s.Flush(ctx); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Isolate cuts site idx off from all peers (fault injection).
func (c *Cluster) Isolate(idx int) error {
	if err := c.checkSite(idx); err != nil {
		return err
	}
	c.net.Isolate(wire.SiteID(idx))
	return nil
}

// Heal removes all partitions.
func (c *Cluster) Heal() { c.net.Heal() }

// Correspondences returns the total protocol correspondences so far
// (the paper's metric: 2 messages = 1 correspondence).
func (c *Cluster) Correspondences() int64 { return c.registry.TotalCorrespondences() }

// Stats returns site idx's accelerator counters.
func (c *Cluster) Stats(idx int) (delayLocal, delayTransfer, immediate int64, err error) {
	if err := c.checkSite(idx); err != nil {
		return 0, 0, 0, err
	}
	st := c.sites[idx].Accelerator().Stats()
	return st.DelayLocal.Load(), st.DelayTransfer.Load(), st.Immediate.Load(), nil
}

func (c *Cluster) checkSite(idx int) error {
	if idx < 0 || idx >= len(c.sites) {
		return fmt.Errorf("avdb: site %d out of range [0,%d)", idx, len(c.sites))
	}
	return nil
}

// Products returns the catalog as site idx currently sees it, in key
// order.
func (c *Cluster) Products(idx int) ([]Product, error) {
	if err := c.checkSite(idx); err != nil {
		return nil, err
	}
	var out []Product
	err := c.sites[idx].Engine().Scan(func(r storage.Record) bool {
		out = append(out, Product{Key: r.Key, Name: r.Name, Amount: r.Amount, Class: r.Class})
		return true
	})
	return out, err
}

// AVDistribution returns, per site, the free allowable volume each one
// holds for key — how the escrow is currently spread across the system.
func (c *Cluster) AVDistribution(key string) []int64 {
	out := make([]int64, len(c.sites))
	for i, s := range c.sites {
		out[i] = s.AV().Avail(key)
	}
	return out
}

// Sites returns the number of sites.
func (c *Cluster) Sites() int { return len(c.sites) }

// Close shuts down every site.
func (c *Cluster) Close() error {
	var firstErr error
	for _, s := range c.sites {
		if s == nil {
			continue
		}
		if err := s.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	c.sites = nil
	return firstErr
}
