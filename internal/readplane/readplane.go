// Package readplane is avdb's event-sourced read subsystem (CQRS): it
// folds a site's storage apply stream — the WAL LSN and ops of every
// applied batch, handed over by the engine's apply observer — into
// lock-free materialized read models, so heavy read traffic is served
// from purpose-built views instead of the transactional core.
//
// Three models are maintained per site:
//
//   - stock: every product's amount as the local replica believes it
//     (the per-site stock view)
//   - global: the cross-site position view — local amount joined with
//     the site's own AV and the last-gossiped AV of every peer
//   - hot: the top-K most-updated keys (update count and volume)
//
// Each model is a copy-on-swap immutable snapshot behind an
// atomic.Pointer: readers load a pointer and never block the applier.
// A publish costs what the burst touched, not the catalog: the stock
// view is a fixed table of hash segments copied on write one segment at
// a time, and the hot view's top K is kept incrementally (models.go).
// Every snapshot carries an applied-LSN watermark and an as-of
// timestamp, so staleness is explicit rather than hidden.
//
// Session guarantees ride on the watermark: a Token{site, lsn} minted
// on commit lets a client demand read-your-writes by calling WaitFor,
// which blocks (with the caller's deadline) until the published stock
// snapshot has applied the token's LSN. Because the watermark is
// monotonic, satisfied tokens also give monotonic reads. The write
// path is untouched: tokens are minted from the engine's LSN cursor
// the commit already produced. Epoch commit changes none of this:
// epochs batch acknowledgements, not LSNs, so the durable LSN sequence
// stays dense and a token minted from an epoch-released commit is
// satisfiable exactly as before.
//
// There is no applier goroutine and no queue: Apply runs on the
// goroutine that committed the batch, still inside the engine's stripe
// locks, and "the applier" below is whichever committer holds the plane
// mutex. LSNs are dense and every assigned LSN reaches Apply, so no
// batch can go missing; batches on disjoint stripes can reach Apply out
// of LSN order, so an early one is parked (copied) until its
// predecessors arrive and the watermark stays contiguous. Lock order is
// engine stripes -> plane mutex -> (waiter mutex, histograms); readers
// never take the plane mutex, and the plane never calls back into the
// engine while holding it.
package readplane

import (
	"context"
	"errors"
	"fmt"
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
	// Engine is the authoritative store: the bootstrap source and the
	// cursor tokens are checked against.
	Engine *storage.Engine
	// AV, when non-nil, feeds the global view's local AV columns.
	AV AVSampler
	// View, when non-nil, feeds the global view's peer AV columns.
	View PeerView
	// Peers are the sites the global view samples from View.
	Peers []wire.SiteID
	// Now stamps snapshots (default time.Now; the simulator injects its
	// virtual clock so staleness is in simulated time).
	Now func() time.Time
	// TopK bounds the hot view (default 10).
	TopK int
}

// Plane folds one site's apply stream into its read models.
type Plane struct {
	cfg Config

	stock atomic.Pointer[StockSnapshot]
	hot   atomic.Pointer[HotSnapshot]

	// mu serializes the appliers (committing goroutines inside Apply,
	// and Start). Callers of Apply hold engine stripe locks, so nothing
	// that takes engine locks may run under it.
	mu sync.Mutex
	st applierState

	wmu     sync.Mutex
	waiters map[*waiter]struct{}

	stop     chan struct{}
	stopOnce sync.Once

	eventsApplied atomic.Int64
	eventsStale   atomic.Int64
	readsStock    atomic.Int64
	readsGlobal   atomic.Int64
	readsHot      atomic.Int64
	rywWaits      atomic.Int64
	rywTimeouts   atomic.Int64
	rywViolations atomic.Int64

	lagHist  *metrics.Histogram // Apply entry -> publish time, per publish
	waitHist *metrics.Histogram // WaitFor blocking durations
}

// histWindow is how many of the most recent samples the lag and wait
// histograms keep: one arrives per publish and per RYW wait, for as long
// as the node serves.
const histWindow = 4096

type waiter struct {
	lsn uint64
	ch  chan struct{}
}

// New builds a plane that is not serving yet: hand its Apply to the
// engine's SetApplyObserver, then call Start. In between, Apply parks
// every batch, so none falls between Start's snapshot and the stream.
func New(cfg Config) *Plane {
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.TopK <= 0 {
		cfg.TopK = 10
	}
	return &Plane{
		cfg:      cfg,
		st:       applierState{pending: make(map[uint64]parked), hot: newHotModel(cfg.TopK)},
		waiters:  make(map[*waiter]struct{}),
		stop:     make(chan struct{}),
		lagHist:  metrics.NewWindowHistogram(histWindow),
		waitHist: metrics.NewWindowHistogram(histWindow),
	}
}

// Start materializes the models from the engine's consistent (amounts,
// cursor) pair, drops the parked batches the snapshot already covers,
// applies the rest and publishes. The snapshot takes every stripe's
// read lock while committers wait for the plane mutex under their
// stripe's write lock, so it is taken before the mutex, never under it.
func (p *Plane) Start() error {
	amounts, lsn, err := p.cfg.Engine.SnapshotAmounts()
	if err != nil {
		return err
	}
	stock := newStockModel(amounts)
	p.mu.Lock()
	defer p.mu.Unlock()
	st := &p.st
	st.stock, st.applied, st.started = stock, lsn, true
	for l := range st.pending {
		if l <= lsn {
			delete(st.pending, l)
			p.eventsStale.Add(1)
		}
	}
	p.drain()
	p.publish()
	return nil
}

// applierState is the writable side of the models, guarded by Plane.mu.
type applierState struct {
	stock   *stockModel
	hot     *hotModel
	started bool   // Start adopted the engine snapshot
	applied uint64 // contiguous watermark: every batch <= applied is in stock
	// pending holds the batches that reached Apply before a predecessor
	// did (or before Start), by LSN. Each leaves when the watermark
	// reaches it: what is parked is what committed on other stripes
	// while the oldest missing batch's committer is between its LSN
	// assignment and its Apply.
	pending   map[uint64]parked
	lastEvent time.Time // event time of the newest applied batch
}

// parked is an early batch: its event time and a copy of its ops (the
// caller's slice is the caller's again once Apply returns).
type parked struct {
	at  time.Time
	ops []storage.Op
}

// Apply folds one committed batch into the models and publishes, on the
// committing goroutine: it is the engine's apply observer, called under
// the batch's stripe locks, and does not retain ops. A batch that
// extends the contiguous watermark is applied in place, followed by any
// parked successors; an early one is parked as a copy; one the
// watermark already covers is dropped.
func (p *Plane) Apply(lsn uint64, ops []storage.Op) {
	at := p.cfg.Now() // before the mutex: readplane_lag includes the wait for it
	p.mu.Lock()
	defer p.mu.Unlock()
	st := &p.st
	switch {
	case !st.started || lsn > st.applied+1:
		st.pending[lsn] = parked{at: at, ops: append([]storage.Op(nil), ops...)}
	case lsn <= st.applied:
		p.eventsStale.Add(1)
	default:
		p.applyBatch(lsn, at, ops)
		p.drain()
		p.publish()
	}
}

// drain applies the parked batches that now extend the watermark. The
// caller holds p.mu, as for applyBatch and publish.
func (p *Plane) drain() {
	st := &p.st
	for len(st.pending) > 0 {
		next, ok := st.pending[st.applied+1]
		if !ok {
			return
		}
		delete(st.pending, st.applied+1)
		p.applyBatch(st.applied+1, next.at, next.ops)
	}
}

func (p *Plane) applyBatch(lsn uint64, at time.Time, ops []storage.Op) {
	st := &p.st
	for i := range ops {
		op := &ops[i]
		switch op.Kind {
		case storage.OpPut:
			st.stock.set(op.Key, op.Rec.Amount)
			st.hot.bump(op.Key, 0)
		case storage.OpDelete:
			st.stock.del(op.Key)
		case storage.OpDelta, storage.OpLoggedDelta:
			st.stock.add(op.Key, op.Delta)
			st.hot.bump(op.Key, op.Delta)
		default:
			// Meta ops (replication logs, watermarks) are not part of
			// the read schema; the batch still advances the watermark.
		}
	}
	st.applied = lsn
	st.lastEvent = at
	p.eventsApplied.Add(1)
}

// publish swaps fresh immutable snapshots in and wakes satisfied RYW
// waiters. The caller has advanced the watermark (or is Start).
func (p *Plane) publish() {
	st := &p.st
	now := p.cfg.Now()
	snap := &StockSnapshot{
		Site:       p.cfg.Site,
		AppliedLSN: st.applied,
		AsOf:       now,
		LastEvent:  st.lastEvent,
	}
	snap.root, snap.n = st.stock.freeze()
	p.stock.Store(snap)
	hot := &HotSnapshot{Site: p.cfg.Site, AppliedLSN: st.applied, AsOf: now}
	if h := p.hot.Load(); h != nil && !st.hot.changed {
		hot.Top = h.Top // content unchanged; only the watermark advanced
	} else {
		hot.Top = st.hot.snapshot()
	}
	p.hot.Store(hot)
	if !st.lastEvent.IsZero() {
		p.lagHist.Observe(max(now.Sub(st.lastEvent), 0))
	}
	p.notify(st.applied)
}

// notify releases every waiter whose token the published watermark now
// covers. Called after the snapshot swap, so a released waiter always
// finds a satisfying snapshot.
func (p *Plane) notify(applied uint64) {
	p.wmu.Lock()
	for w := range p.waiters {
		if w.lsn <= applied {
			close(w.ch)
			delete(p.waiters, w)
		}
	}
	p.wmu.Unlock()
}

func (p *Plane) removeWaiter(w *waiter) {
	p.wmu.Lock()
	delete(p.waiters, w)
	p.wmu.Unlock()
}

// Site returns the identity the plane serves.
func (p *Plane) Site() wire.SiteID { return p.cfg.Site }

// Stock returns the current stock snapshot. Never nil after Start.
func (p *Plane) Stock() *StockSnapshot {
	p.readsStock.Add(1)
	return p.stock.Load()
}

// Hot returns the current top-K snapshot. Never nil after Start.
func (p *Plane) Hot() *HotSnapshot {
	p.readsHot.Add(1)
	return p.hot.Load()
}

// Global builds the cross-site position view on demand: the stock
// snapshot joined with the local AV table and the gossiped peer AVs.
// The AV columns are sampled at call time (AV moves independently of
// the storage LSN stream), so the snapshot's watermark bounds only the
// stock column's staleness.
func (p *Plane) Global() *GlobalSnapshot {
	p.readsGlobal.Add(1)
	return buildGlobal(&p.cfg, p.stock.Load())
}

// WaitFor blocks until the published stock snapshot has applied the
// token's LSN, honoring ctx's deadline: the read-your-writes barrier.
// After it returns nil, every model read observes the token's write
// (and, the watermark being monotonic, reads are monotonic too).
func (p *Plane) WaitFor(ctx context.Context, tok Token) error {
	if tok.IsZero() {
		// The zero token (failed update) demands nothing of the model,
		// whichever site it is presented to.
		return nil
	}
	if tok.Site != p.cfg.Site {
		return ErrWrongSite
	}
	p.rywWaits.Add(1)
	start := time.Now()
	if s := p.stock.Load(); s != nil && s.AppliedLSN >= tok.LSN {
		p.waitHist.Observe(time.Since(start))
		return nil
	}
	w := &waiter{lsn: tok.LSN, ch: make(chan struct{})}
	p.wmu.Lock()
	p.waiters[w] = struct{}{}
	p.wmu.Unlock()
	// Re-check after registering: a publish may have slipped between
	// the fast path and the registration, and it only notifies
	// registered waiters.
	if s := p.stock.Load(); s != nil && s.AppliedLSN >= tok.LSN {
		p.removeWaiter(w)
		p.waitHist.Observe(time.Since(start))
		return nil
	}
	select {
	case <-w.ch:
		p.waitHist.Observe(time.Since(start))
		if s := p.stock.Load(); s == nil || s.AppliedLSN < tok.LSN {
			// Must be impossible (publish precedes notify); counted so
			// the simulator's oracle can prove it never happens.
			p.rywViolations.Add(1)
			return fmt.Errorf("readplane: woken below token lsn %d", tok.LSN)
		}
		return nil
	case <-ctx.Done():
		p.removeWaiter(w)
		p.rywTimeouts.Add(1)
		return ctx.Err()
	case <-p.stop:
		p.removeWaiter(w)
		return ErrClosed
	}
}

// WaitCaughtUp blocks until the plane has applied everything the
// engine has, as of the call. Oracles and tests use it to bound the
// apply pipeline before comparing models to authoritative state.
func (p *Plane) WaitCaughtUp(ctx context.Context) error {
	return p.WaitFor(ctx, Token{Site: p.cfg.Site, LSN: p.cfg.Engine.LastLSN()})
}

// Stats is a point-in-time summary of the plane's counters.
type Stats struct {
	EventsApplied int64 // batches applied to the models
	EventsStale   int64 // batches the bootstrap snapshot already covered
	ReadsStock    int64
	ReadsGlobal   int64
	ReadsHot      int64
	RYWWaits      int64 // WaitFor calls
	RYWTimeouts   int64 // WaitFor calls that hit their deadline
	RYWViolations int64 // tokens satisfied below their LSN (must stay 0)
}

// Stats returns the plane's counters.
func (p *Plane) Stats() Stats {
	return Stats{
		EventsApplied: p.eventsApplied.Load(),
		EventsStale:   p.eventsStale.Load(),
		ReadsStock:    p.readsStock.Load(),
		ReadsGlobal:   p.readsGlobal.Load(),
		ReadsHot:      p.readsHot.Load(),
		RYWWaits:      p.rywWaits.Load(),
		RYWTimeouts:   p.rywTimeouts.Load(),
		RYWViolations: p.rywViolations.Load(),
	}
}

// LagHistogram is the Apply-entry-to-publish lag distribution (one
// sample per publish): the wait for the plane mutex plus, for a batch
// that arrived early, the time it was parked.
func (p *Plane) LagHistogram() *metrics.Histogram { return p.lagHist }

// WaitHistogram is the WaitFor blocking-time distribution.
func (p *Plane) WaitHistogram() *metrics.Histogram { return p.waitHist }

// Close releases pending waiters with ErrClosed. Idempotent. The plane
// owns no goroutine; the owner closes the engine, which ends the stream.
func (p *Plane) Close() {
	p.stopOnce.Do(func() { close(p.stop) })
}
