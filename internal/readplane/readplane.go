// Package readplane is avdb's event-sourced read subsystem (CQRS): it
// tails a site's storage apply stream — published as eventlog events
// carrying the WAL LSN and ops of every applied batch — into lock-free
// materialized read models, so heavy read traffic is served from
// purpose-built views instead of the transactional core.
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
// The applier is resilient to its feed: events may arrive out of LSN
// order (batches on disjoint stripes race to publish), so it parks
// out-of-order events and advances a contiguous watermark; events may
// be dropped entirely (the feed never blocks the data path), which the
// per-subscriber drop counter reveals, and the applier then
// resynchronizes from the engine's consistent SnapshotAmounts pair.
package readplane

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"avdb/internal/eventlog"
	"avdb/internal/metrics"
	"avdb/internal/storage"
	"avdb/internal/wire"
)

// EventType is the eventlog event type the applier consumes. Feed
// publishers stamp applied batches with it, the batch LSN, and the ops
// slice as Payload.
const EventType = "apply"

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
	// Engine is the authoritative store: the bootstrap/resync source
	// and the cursor tokens are checked against.
	Engine *storage.Engine
	// Feed is the event stream of applied batches (see EventType). The
	// plane subscribes before its initial materialization, so no batch
	// falls between snapshot and tail.
	Feed *eventlog.Log
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
	// Buffer is the feed subscription depth (default 1024).
	Buffer int
	// PendingLimit bounds the out-of-order parking buffer; beyond it
	// the applier resynchronizes from the engine (default 256).
	PendingLimit int
}

// Plane tails one site's apply stream into its read models.
type Plane struct {
	cfg Config
	sub *eventlog.Subscriber

	stock atomic.Pointer[StockSnapshot]
	hot   atomic.Pointer[HotSnapshot]

	wmu     sync.Mutex
	waiters map[*waiter]struct{}

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	eventsApplied atomic.Int64
	eventsStale   atomic.Int64
	resyncs       atomic.Int64
	readsStock    atomic.Int64
	readsGlobal   atomic.Int64
	readsHot      atomic.Int64
	rywWaits      atomic.Int64
	rywTimeouts   atomic.Int64
	rywViolations atomic.Int64

	lagHist  *metrics.Histogram // event time -> publish time, per publish
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

// New subscribes to the feed, materializes the initial models from the
// engine, and starts the applier.
func New(cfg Config) (*Plane, error) {
	p, st, err := newPlane(cfg)
	if err != nil {
		return nil, err
	}
	p.wg.Add(1)
	go p.run(st)
	return p, nil
}

// newPlane is New without the applier goroutine: the caller owns st and
// drives ingest/publish itself (tests and benchmarks step it).
func newPlane(cfg Config) (*Plane, *applierState, error) {
	if cfg.Engine == nil || cfg.Feed == nil {
		return nil, nil, fmt.Errorf("readplane: Engine and Feed are required")
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.TopK <= 0 {
		cfg.TopK = 10
	}
	if cfg.Buffer <= 0 {
		cfg.Buffer = 1024
	}
	if cfg.PendingLimit <= 0 {
		cfg.PendingLimit = 256
	}
	p := &Plane{
		cfg:      cfg,
		waiters:  make(map[*waiter]struct{}),
		stop:     make(chan struct{}),
		lagHist:  metrics.NewWindowHistogram(histWindow),
		waitHist: metrics.NewWindowHistogram(histWindow),
	}
	// Subscribe first: every batch applied after the snapshot below is
	// either in the snapshot (LSN <= cursor, discarded as stale) or on
	// the channel. Nothing can fall in between.
	p.sub = cfg.Feed.NewSubscriber(cfg.Buffer)
	st := &applierState{
		pending: make(map[uint64]eventlog.Event),
		hot:     newHotModel(cfg.TopK),
	}
	if err := p.resync(st); err != nil {
		p.sub.Cancel()
		return nil, nil, err
	}
	p.publish(st)
	return p, st, nil
}

// applierState is owned by the applier goroutine (and by New before the
// goroutine starts).
type applierState struct {
	stock   *stockModel
	hot     *hotModel
	applied uint64 // contiguous watermark: every batch <= applied is in stock
	// published is the watermark of the last published snapshots;
	// publish is skipped while nothing advanced.
	published uint64
	everPub   bool
	pending   map[uint64]eventlog.Event // parked out-of-order events by LSN
	lastDrop  uint64                    // sub.Dropped() at the last check
	lastEvent time.Time                 // event time of the newest applied batch
}

func (p *Plane) run(st *applierState) {
	defer p.wg.Done()
	for {
		select {
		case <-p.stop:
			return
		case e, ok := <-p.sub.C():
			if !ok {
				return
			}
			p.ingest(st, e)
			// Drain whatever is already buffered so one wakeup yields
			// one publish (segment copies amortize over the burst).
		drain:
			for {
				select {
				case <-p.stop:
					return
				case e, ok := <-p.sub.C():
					if !ok {
						break drain
					}
					p.ingest(st, e)
				default:
					break drain
				}
			}
			// A drop means a batch is gone from the feed forever: the
			// contiguous watermark would stall, so resynchronize from
			// the engine. Same cure when reordering parks too much.
			if d := p.sub.Dropped(); d != st.lastDrop || len(st.pending) > p.cfg.PendingLimit {
				st.lastDrop = d
				if err := p.resync(st); err != nil {
					return // engine closed; the plane is shutting down
				}
			}
			p.publish(st)
		}
	}
}

// ingest routes one feed event: apply it if it extends the contiguous
// watermark (then drain any parked successors), park it if it is
// early, drop it if it is already covered.
func (p *Plane) ingest(st *applierState, e eventlog.Event) {
	ops, ok := e.Payload.([]storage.Op)
	if !ok || e.LSN == 0 {
		return // not an apply event; feeds may carry other traffic
	}
	if e.LSN <= st.applied {
		p.eventsStale.Add(1)
		return
	}
	if e.LSN != st.applied+1 {
		st.pending[e.LSN] = e
		return
	}
	p.applyEvent(st, e, ops)
	for {
		next, ok := st.pending[st.applied+1]
		if !ok {
			return
		}
		delete(st.pending, st.applied+1)
		nops, _ := next.Payload.([]storage.Op)
		p.applyEvent(st, next, nops)
	}
}

func (p *Plane) applyEvent(st *applierState, e eventlog.Event, ops []storage.Op) {
	for i := range ops {
		op := &ops[i]
		switch op.Kind {
		case storage.OpPut:
			st.stock.set(op.Key, op.Rec.Amount)
			st.hot.bump(op.Key, 0)
		case storage.OpDelete:
			st.stock.del(op.Key)
		case storage.OpDelta:
			st.stock.add(op.Key, op.Delta)
			st.hot.bump(op.Key, op.Delta)
		default:
			// Meta ops (replication logs, watermarks) are not part of
			// the read schema; the batch still advances the watermark.
		}
	}
	st.applied = e.LSN
	st.lastEvent = e.Time
	p.eventsApplied.Add(1)
}

// resync rebuilds the stock model from the engine's consistent
// (amounts, cursor) pair and jumps the watermark to the cursor. Parked
// events the snapshot already covers are discarded; later ones stay
// parked. Hot counters survive (they are cumulative heuristics, not a
// projection of current state).
func (p *Plane) resync(st *applierState) error {
	amounts, lsn, err := p.cfg.Engine.SnapshotAmounts()
	if err != nil {
		return err
	}
	st.stock = newStockModel(amounts)
	if st.everPub {
		// Only bootstrap (the first materialization) is free.
		p.resyncs.Add(1)
	}
	st.applied = lsn
	for l := range st.pending {
		if l <= lsn {
			delete(st.pending, l)
		}
	}
	return nil
}

// publish swaps fresh immutable snapshots in and wakes satisfied RYW
// waiters. Skipped when the watermark has not advanced.
func (p *Plane) publish(st *applierState) {
	if st.everPub && st.applied == st.published {
		return
	}
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
	st.published = st.applied
	st.everPub = true
	if !st.lastEvent.IsZero() {
		if lag := now.Sub(st.lastEvent); lag > 0 {
			p.lagHist.Observe(lag)
		} else {
			p.lagHist.Observe(0)
		}
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

// Stock returns the current stock snapshot. Never nil after New.
func (p *Plane) Stock() *StockSnapshot {
	p.readsStock.Add(1)
	return p.stock.Load()
}

// Hot returns the current top-K snapshot. Never nil after New.
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
	EventsApplied int64  // batches applied to the models
	EventsStale   int64  // feed events already covered by the watermark
	Resyncs       int64  // engine resynchronizations after drops/overflow
	FeedDropped   uint64 // feed events dropped at the subscription
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
		Resyncs:       p.resyncs.Load(),
		FeedDropped:   p.sub.Dropped(),
		ReadsStock:    p.readsStock.Load(),
		ReadsGlobal:   p.readsGlobal.Load(),
		ReadsHot:      p.readsHot.Load(),
		RYWWaits:      p.rywWaits.Load(),
		RYWTimeouts:   p.rywTimeouts.Load(),
		RYWViolations: p.rywViolations.Load(),
	}
}

// LagHistogram is the event-time-to-publish lag distribution (one
// sample per publish).
func (p *Plane) LagHistogram() *metrics.Histogram { return p.lagHist }

// WaitHistogram is the WaitFor blocking-time distribution.
func (p *Plane) WaitHistogram() *metrics.Histogram { return p.waitHist }

// Close stops the applier and releases pending waiters. Idempotent.
func (p *Plane) Close() {
	p.stopOnce.Do(func() {
		close(p.stop)
		p.sub.Cancel()
		p.wg.Wait()
	})
}
