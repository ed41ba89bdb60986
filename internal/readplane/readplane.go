// Package readplane is avdb's read API: per-site stock, the cross-site
// position view (stock joined with the site's AV and its peers'
// gossiped AV) and the top-K hot keys, with read-your-writes session
// tokens. It keeps no copy of the stock table: every stock read is
// answered by the site's storage engine, so a read shows what the
// engine holds at that moment and the plane never lags it.
//
// Every answer carries a stamp, an LSN L such that every storage batch
// with LSN <= L that could touch the answer is reflected in it:
//
//   - a per-key read uses storage.Engine.StampedAmount, which loads the
//     engine's LastLSN before it takes the key's stripe read lock.
//     Every batch gets its LSN and applies under its stripes' write
//     locks, so a batch the stamp covers has applied by the time the
//     read lock is granted.
//   - a catalog read (the whole stock, global, watch) uses
//     storage.Engine.SnapshotAmounts, which holds every stripe's read
//     lock: no batch is between getting its LSN and applying, so its
//     cursor is a contiguous watermark (every batch <= it is in, none
//     above it is).
//
// Session guarantees ride on the stamp: a Token{site, lsn} minted on
// commit lets a client demand read-your-writes by calling WaitFor,
// which blocks (with the caller's deadline) until the engine's LastLSN
// reaches the token. A token is minted only after its batch applied at
// the minting site, so a real token is satisfied at once; only a token
// from the future (a forged one, or one from before an in-memory site
// restarted) waits. LastLSN never falls, so satisfied tokens also give
// monotonic reads. Epoch commit changes none of this: epochs batch
// acknowledgements, not LSNs.
//
// The only work the plane adds to a commit is the hot view's per-key
// update count and volume, kept in per-key atomics by the engine's
// apply observer, plus one atomic load to see whether a WaitFor is
// parked. Top K is computed when it is read.
package readplane

import (
	"cmp"
	"context"
	"errors"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"avdb/internal/metrics"
	"avdb/internal/storage"
	"avdb/internal/wire"
)

// Plane errors.
var (
	ErrWrongSite = errors.New("readplane: token was minted at a different site")
	ErrClosed    = errors.New("readplane: plane closed")
)

// AVSampler is the slice of the AV table the global view samples.
// core.AVTable satisfies it.
type AVSampler interface {
	Keys() []string
	Avail(key string) int64
	Held(key string) int64
}

// PeerView is the gossiped belief about peers' AV the global view
// joins in. strategy.View satisfies it.
type PeerView interface {
	Known(site wire.SiteID, key string) (int64, bool)
}

// Config parameterizes a Plane.
type Config struct {
	// Site is the identity snapshots and tokens carry.
	Site wire.SiteID
	// Engine is the authoritative store every read is answered from.
	Engine *storage.Engine
	// AV, when non-nil, feeds the global view's local AV columns.
	AV AVSampler
	// View, when non-nil, feeds the global view's peer AV columns.
	View PeerView
	// Peers are the sites the global view samples from View.
	Peers []wire.SiteID
	// Now stamps answers (default time.Now; the simulator injects its
	// virtual clock).
	Now func() time.Time
}

// Plane serves one site's reads from its engine.
type Plane struct {
	cfg Config

	// hot maps a key to its *hotCount.
	hot sync.Map
	// wake, when non-nil, is closed by the next commit: WaitFor parks
	// on it.
	wake atomic.Pointer[chan struct{}]

	stop     chan struct{}
	stopOnce sync.Once

	readsStock  atomic.Int64
	readsGlobal atomic.Int64
	readsHot    atomic.Int64
	rywWaits    atomic.Int64
	rywTimeouts atomic.Int64

	waitHist *metrics.Histogram // WaitFor blocking durations
}

// hotCount is one key's cumulative hot-view counters.
type hotCount struct {
	updates atomic.Uint64
	volume  atomic.Int64
}

// histWindow is how many of the most recent samples the wait histogram
// keeps: one arrives per RYW wait, for as long as the node serves.
const histWindow = 4096

// New builds a plane over cfg.Engine and installs its hot-view counter
// as the engine's apply observer, so build it before the engine sees
// concurrent use.
func New(cfg Config) *Plane {
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	p := &Plane{
		cfg:      cfg,
		stop:     make(chan struct{}),
		waitHist: metrics.NewWindowHistogram(histWindow),
	}
	cfg.Engine.SetApplyObserver(p.observe)
	return p
}

// observe is the engine's apply observer: it runs under the batch's
// stripe locks, after the batch has its LSN and has applied. It counts
// the batch into the hot view and releases parked WaitFor calls; with
// none parked, that costs one atomic load.
func (p *Plane) observe(_ uint64, ops []storage.Op) {
	for i := range ops {
		switch op := &ops[i]; op.Kind {
		case storage.OpPut:
			p.count(op.Key, 0)
		case storage.OpDelta, storage.OpLoggedDelta, storage.OpBalancedDelta:
			p.count(op.Key, op.Delta)
		}
	}
	if c := p.wake.Load(); c != nil && p.wake.CompareAndSwap(c, nil) {
		close(*c)
	}
}

func (p *Plane) count(key string, delta int64) {
	v, ok := p.hot.Load(key)
	if !ok {
		v, _ = p.hot.LoadOrStore(key, new(hotCount))
	}
	h := v.(*hotCount)
	h.updates.Add(1)
	h.volume.Add(max(delta, -delta))
}

// Site returns the identity the plane serves.
func (p *Plane) Site() wire.SiteID { return p.cfg.Site }

// Stock reads the whole stock catalog: O(keys), under every stripe's
// read lock for the length of the scan.
func (p *Plane) Stock() (*StockSnapshot, error) {
	p.readsStock.Add(1)
	return p.stock()
}

func (p *Plane) stock() (*StockSnapshot, error) {
	amounts, lsn, err := p.cfg.Engine.SnapshotAmounts()
	if err != nil {
		return nil, err
	}
	return &StockSnapshot{Site: p.cfg.Site, AppliedLSN: lsn, AsOf: p.cfg.Now(), Amounts: amounts}, nil
}

// Hot returns the k most-updated keys, ranked when it is called. Its
// stamp is LastLSN as of the call: the counters are bumped after a
// batch applies, so they can trail the stamp by the batches still in
// flight.
func (p *Plane) Hot(k int) *HotSnapshot {
	p.readsHot.Add(1)
	h := &HotSnapshot{Site: p.cfg.Site, AppliedLSN: p.cfg.Engine.LastLSN(), AsOf: p.cfg.Now()}
	p.hot.Range(func(key, v any) bool {
		c := v.(*hotCount)
		h.Top = append(h.Top, HotKey{Key: key.(string), Updates: c.updates.Load(), Volume: c.volume.Load()})
		return true
	})
	slices.SortFunc(h.Top, func(a, b HotKey) int {
		if c := cmp.Compare(b.Updates, a.Updates); c != 0 {
			return c
		}
		if c := cmp.Compare(b.Volume, a.Volume); c != 0 {
			return c
		}
		return strings.Compare(a.Key, b.Key)
	})
	if len(h.Top) > k {
		h.Top = h.Top[:k]
	}
	return h
}

// Global builds the cross-site position view: the stock catalog joined
// with the local AV table and the gossiped peer AVs. The AV columns are
// sampled after the stock scan (AV moves independently of the storage
// LSN stream), so the stamp bounds only the stock column.
func (p *Plane) Global() (*GlobalSnapshot, error) {
	p.readsGlobal.Add(1)
	s, err := p.stock()
	if err != nil {
		return nil, err
	}
	return buildGlobal(&p.cfg, s), nil
}

// WaitFor blocks until the engine's LastLSN reaches the token's LSN,
// honoring ctx's deadline: the read-your-writes barrier. After it
// returns nil, every read at the token's site is stamped at or above
// the token and so shows the token's write.
func (p *Plane) WaitFor(ctx context.Context, tok Token) error {
	if tok.IsZero() {
		// The zero token (failed update) demands nothing, whichever
		// site it is presented to.
		return nil
	}
	if tok.Site != p.cfg.Site {
		return ErrWrongSite
	}
	p.rywWaits.Add(1)
	start := time.Now()
	for {
		if p.cfg.Engine.LastLSN() >= tok.LSN {
			p.waitHist.Observe(time.Since(start))
			return nil
		}
		wake := p.wakeChan()
		// Re-check after the channel is in place: a commit that stored
		// its LSN before then may have found no channel to close.
		if p.cfg.Engine.LastLSN() >= tok.LSN {
			continue
		}
		select {
		case <-wake:
		case <-ctx.Done():
			p.rywTimeouts.Add(1)
			return ctx.Err()
		case <-p.stop:
			return ErrClosed
		}
	}
}

// wakeChan returns the channel the next commit closes, installing one
// when none is.
func (p *Plane) wakeChan() chan struct{} {
	for {
		if c := p.wake.Load(); c != nil {
			return *c
		}
		c := make(chan struct{})
		if p.wake.CompareAndSwap(nil, &c) {
			return c
		}
	}
}

// Stats is a point-in-time summary of the plane's counters.
type Stats struct {
	ReadsStock  int64
	ReadsGlobal int64
	ReadsHot    int64
	RYWWaits    int64 // WaitFor calls
	RYWTimeouts int64 // WaitFor calls that hit their deadline
}

// Stats returns the plane's counters.
func (p *Plane) Stats() Stats {
	return Stats{
		ReadsStock:  p.readsStock.Load(),
		ReadsGlobal: p.readsGlobal.Load(),
		ReadsHot:    p.readsHot.Load(),
		RYWWaits:    p.rywWaits.Load(),
		RYWTimeouts: p.rywTimeouts.Load(),
	}
}

// WaitHistogram is the WaitFor blocking-time distribution.
func (p *Plane) WaitHistogram() *metrics.Histogram { return p.waitHist }

// Close releases pending waiters with ErrClosed and ends /read/watch
// streams. Idempotent. The plane owns no goroutine; the owner closes
// the engine.
func (p *Plane) Close() {
	p.stopOnce.Do(func() { close(p.stop) })
}
