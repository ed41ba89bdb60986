// Package core implements the paper's primary contribution: the
// accelerator. One accelerator runs at each site, owns the site's AV
// management table, and realizes both update disciplines behind a single
// Update call:
//
//   - checking — consult the AV table: a key with a defined AV is a
//     Delay Update (regular product); otherwise Immediate Update;
//   - Delay Update — spend local AV with zero communication (Fig. 3);
//     on shortage, hold what the site has and request transfers from
//     peers chosen by the selecting function, in volumes chosen by the
//     deciding function (Fig. 4);
//   - Immediate Update — delegate to the primary-copy two-phase commit
//     (Fig. 5).
//
// The accelerator never exposes AV to end users, holds AV reservations
// instead of exclusive locks, and compensates (releases) holds when an
// update cannot complete — exactly the behaviour §3.3 of the paper
// prescribes.
package core

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"avdb/internal/av"
	"avdb/internal/clock"
	"avdb/internal/failure"
	"avdb/internal/partition"
	"avdb/internal/replica"
	"avdb/internal/rng"
	"avdb/internal/strategy"
	"avdb/internal/trace"
	"avdb/internal/transport"
	"avdb/internal/twopc"
	"avdb/internal/txn"
	"avdb/internal/wire"
)

// Accelerator errors.
var (
	// ErrInsufficientAV reports that the site's own AV plus everything
	// peers were willing to transfer did not cover the update. All
	// accumulated AV was returned to the local table (paper §3.3).
	ErrInsufficientAV = errors.New("core: insufficient allowable volume")
)

// Config parameterizes an Accelerator.
type Config struct {
	// Site is this accelerator's site.
	Site wire.SiteID
	// Partitions is the site's partition map (required; full replication
	// is partition.Full). Only the other replicas of a key's partition
	// hold its AV, receive its gossip, or participate in its Immediate
	// Updates, whose base is the partition owner.
	Partitions *partition.Map
	// OnCommit, when non-nil, observes every successfully committed
	// Delay Update at the site that applied it: (key, delta) exactly
	// once per commit, before Update returns. The simulator's
	// conservation oracle accounts from these observations, because the
	// site that *issued* a routed update cannot always know whether the
	// owner applied it (a lost reply looks like a rejection). Immediate
	// Updates are observed through twopc.Options.Observer instead.
	OnCommit func(key string, delta int64)
	// Policy supplies the selecting and deciding functions
	// (default strategy.SODA99()).
	Policy strategy.Policy
	// Passes bounds how many times the full candidate list may be
	// re-consulted for one update (default 3). Within a pass each peer
	// is asked at most once.
	Passes int
	// RequestTimeout bounds each AV transfer call (default 2s).
	RequestTimeout time.Duration
	// Seed feeds the policy's randomness.
	Seed uint64
	// Demand, when non-nil, is fed the volume of every local decrement
	// so demand-aware deciding policies can forecast the site's own
	// needs (see strategy.GrantDemandAware).
	Demand DemandObserver
	// DisableGossip drops the AV-view piggyback on replies and ignores
	// received views — the A7 ablation isolating the value of the
	// paper's "information collected at the necessary communication".
	DisableGossip bool
	// Tracer records protocol spans (nil disables tracing).
	Tracer *trace.Tracer
	// Detector, when non-nil, feeds AV transfer outcomes into a failure
	// detector and makes the selecting step fail over: suspect peers are
	// demoted behind every healthy candidate, so a request reaches the
	// next-best AV holder instead of timing out on a dead one.
	Detector *failure.Detector
	// Escrow switches AV transfers to the escrowed protocol: grants are
	// parked in the granter's escrow under a unique transfer id and the
	// requester durably promises (before using the units) to settle or
	// cancel, so a crash on either side cannot mint AV — at worst it
	// strands slack until Reconcile re-drives the promise. Off by
	// default; the healthy-path experiments are byte-identical without
	// it.
	Escrow bool
	// Clock drives AV transfer call timeouts (nil means the real clock).
	Clock clock.Clock
	// XferSalt, when non-zero, seeds the transfer-id counter base instead
	// of wall-clock entropy, making transfer ids deterministic. The salt
	// must differ across a site's restarts (the simulator mixes a restart
	// epoch in) because granters tombstone resolved ids.
	XferSalt uint64
}

// DemandObserver receives the site's own consumption stream.
type DemandObserver interface {
	// Observe records that a local decrement consumed n units of key.
	Observe(key string, n int64)
}

// Stats counts accelerator outcomes; all fields are atomically updated.
type Stats struct {
	DelayLocal     atomic.Int64 // delay updates completed with no communication
	DelayTransfer  atomic.Int64 // delay updates that needed >= 1 AV transfer
	TransferRounds atomic.Int64 // total AV request round trips issued
	Immediate      atomic.Int64 // immediate updates attempted
	Insufficient   atomic.Int64 // delay updates failed for lack of AV
	Failovers      atomic.Int64 // candidate passes that demoted >= 1 suspect peer
	Settles        atomic.Int64 // escrowed transfers settled (units destroyed at granter)
	Cancels        atomic.Int64 // escrowed transfers canceled (units refunded at granter)
}

// Accelerator is one site's accelerator.
type Accelerator struct {
	cfg  Config
	avt  AVTable
	view *strategy.View
	tm   *txn.Manager
	iu   *twopc.Engine
	repl *replica.Replicator
	node transport.Node

	rmu sync.Mutex
	rnd *rng.Rand

	// xferBase + xferCtr mint transfer ids unique across this site's
	// restarts (the base is wall-clock entropy, the high bits the site).
	xferBase uint64
	xferCtr  atomic.Uint64

	stats Stats
}

// New assembles an accelerator from its site's components. Call SetNode
// once the transport endpoint exists.
func New(cfg Config, avt AVTable, tm *txn.Manager, iu *twopc.Engine, repl *replica.Replicator) *Accelerator {
	if cfg.Policy.Selector == nil || cfg.Policy.Decider == nil {
		cfg.Policy = strategy.SODA99()
	}
	if cfg.Passes <= 0 {
		cfg.Passes = 3
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 2 * time.Second
	}
	xferBase := uint64(time.Now().UnixNano()) & (1<<40 - 1)
	if cfg.XferSalt != 0 {
		// Deterministic base: a splitmix64 finalization of the salt, so
		// nearby salts (site/epoch increments) land far apart.
		z := cfg.XferSalt + 0x9E3779B97F4A7C15
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		xferBase = (z ^ (z >> 31)) & (1<<40 - 1)
	}
	return &Accelerator{
		cfg:      cfg,
		avt:      avt,
		view:     strategy.NewView(),
		tm:       tm,
		iu:       iu,
		repl:     repl,
		rnd:      rng.New(cfg.Seed ^ (uint64(cfg.Site) << 32)),
		xferBase: xferBase,
	}
}

// nextXfer mints a transfer id: site in the high bits, a wall-clock
// seeded counter in the low 40. Restart uniqueness matters because the
// granter tombstones resolved ids — a reused id would be refused.
func (a *Accelerator) nextXfer() uint64 {
	return uint64(a.cfg.Site)<<40 | ((a.xferBase + a.xferCtr.Add(1)) & (1<<40 - 1))
}

// SetNode attaches the transport endpoint.
func (a *Accelerator) SetNode(n transport.Node) { a.node = n }

// AV exposes the AV table (examples and experiments inspect it).
func (a *Accelerator) AV() AVTable { return a.avt }

// View exposes the gossiped AV view.
func (a *Accelerator) View() *strategy.View { return a.view }

// Stats exposes the outcome counters.
func (a *Accelerator) Stats() *Stats { return &a.stats }

// Path says which discipline handled an update.
type Path int

// Update paths.
const (
	PathDelayLocal Path = iota
	PathDelayTransfer
	PathImmediate
)

// String names the path.
func (p Path) String() string {
	switch p {
	case PathDelayLocal:
		return "delay-local"
	case PathDelayTransfer:
		return "delay-transfer"
	default:
		return "immediate"
	}
}

// Result describes a completed update.
type Result struct {
	Path        Path
	Rounds      int   // AV transfer round trips used
	Transferred int64 // AV received from peers
	// LSN is the applying site's storage cursor as of the commit: a
	// read-plane session token minted from it (ReadToken{Site, LSN})
	// guarantees read-your-writes, because the committed batch's LSN is
	// <= LSN. It can over-approximate (include concurrent commits),
	// which only makes the guarantee stricter. Zero when the update
	// failed.
	LSN uint64
	// Site is the site whose plane LSN refers to: the accelerator's own
	// for local commits, the serving replica's for forwarded ones. A
	// token minted from (Site, LSN) must gate that site's read plane —
	// the origin's plane never saw a forwarded commit. Meaningful only
	// when LSN is nonzero.
	Site wire.SiteID
}

// Update applies delta to key using the appropriate discipline. This is
// the accelerator's single entry point: the checking function decides
// the path.
func (a *Accelerator) Update(ctx context.Context, key string, delta int64) (Result, error) {
	var res Result
	var err error
	if a.avt.Defined(key) {
		res, err = a.delayUpdate(ctx, key, delta)
	} else {
		a.stats.Immediate.Add(1)
		err = a.iu.Update(ctx, a.cfg.Partitions.ReplicasOf(key), key, delta)
		res = Result{Path: PathImmediate}
	}
	if err == nil {
		res.LSN = a.tm.Engine().LastLSN()
		res.Site = a.cfg.Site
	}
	return res, err
}

// peersFor returns the other replicas of key's partition, the peer set
// of its AV gathering and gossip.
func (a *Accelerator) peersFor(key string) []wire.SiteID {
	return a.cfg.Partitions.PeersFor(a.cfg.Site, key)
}

// delayUpdate is the Delay Update path (Figs. 3 and 4). Each served
// update commits one storage batch — the stock delta carrying its
// replication entry, plus the AV balance change staged beside it — and
// waits once. The batch is atomic, so every durable prefix of a site's
// log holds a stock change together with its AV change or neither: a
// crash loses slack, never mints it.
func (a *Accelerator) delayUpdate(ctx context.Context, key string, delta int64) (Result, error) {
	if delta >= 0 {
		// An increment creates slack: its credit commits with the stock.
		tx := a.tm.Begin()
		if _, err := tx.ApplyDelta(ctx, key, delta); err != nil {
			tx.Abort()
			return Result{}, err
		}
		a.avt.Stage(tx, key, delta)
		if _, err := a.repl.CommitWithRecord(tx, key, delta); err != nil {
			return Result{}, err
		}
		// Observe before the in-memory credit: a conservation checker
		// watching expected stock must never see the freshly minted AV
		// precede the stock that justifies it. The credit cannot fail (the
		// key is defined, delta is not negative), and the update is
		// committed: nothing after this point may answer ERR.
		if a.cfg.OnCommit != nil {
			a.cfg.OnCommit(key, delta)
		}
		_ = a.avt.Fund(key, delta)
		a.stats.DelayLocal.Add(1)
		return Result{Path: PathDelayLocal}, nil
	}

	need := -delta
	if a.cfg.Demand != nil {
		a.cfg.Demand.Observe(key, need)
	}
	got, err := a.avt.AcquireUpTo(key, need)
	if err != nil {
		return Result{}, err
	}
	rounds := 0
	var transferred int64

	if got < need {
		// Hold what we have and shop for the shortage.
		got2, rounds2, transferred2, err := a.gatherAV(ctx, key, need, got)
		got, rounds, transferred = got2, rounds2, transferred2
		if err != nil {
			// Store all accumulated AV back in the local table (§3.3).
			a.stats.Insufficient.Add(1)
			return Result{Rounds: rounds, Transferred: transferred}, a.unspent(key, got, transferred, err)
		}
	}

	// Enough volume is held. Validate the stock row under its exclusive
	// lock first: a missing key or a lock timeout returns the hold
	// untouched. Then spend the hold and commit the stock delta with the
	// balance change staged beside it: the spend net of the grants
	// gathered for it, whose balance row is written by this commit. Past
	// the validation only a closed or failed log can refuse; then the
	// hold is restored and nothing is acknowledged.
	tx := a.tm.Begin()
	if _, err := tx.ApplyDelta(ctx, key, delta); err != nil {
		tx.Abort()
		return Result{}, a.unspent(key, got, transferred, err)
	}
	if err := a.avt.Spend(key, need); err != nil {
		tx.Abort()
		return Result{}, a.unspent(key, got, transferred, err)
	}
	a.avt.Stage(tx, key, transferred-need)
	if _, err := a.repl.CommitWithRecord(tx, key, delta); err != nil {
		_ = a.avt.CreditHeld(key, need) // restores the spend; cannot fail
		return Result{}, a.unspent(key, got, transferred, err)
	}
	if got > need {
		_ = a.avt.Release(key, got-need) // the surplus is held: cannot fail
	}
	res := Result{Path: PathDelayLocal, Rounds: rounds, Transferred: transferred}
	if rounds > 0 {
		res.Path = PathDelayTransfer
		a.stats.DelayTransfer.Add(1)
	} else {
		a.stats.DelayLocal.Add(1)
	}
	if a.cfg.OnCommit != nil {
		a.cfg.OnCommit(key, delta)
	}
	return res, nil
}

// unspent returns the hold of got units of an update that failed with
// cause to the table, and returns cause. The transferred part of the
// hold came from peers and has no balance row yet: it is staged in a
// transaction of its own and committed before the release makes it
// available — the one served path that writes twice.
func (a *Accelerator) unspent(key string, got, transferred int64, cause error) error {
	var err error
	if transferred > 0 {
		tx := a.tm.Begin()
		a.avt.Stage(tx, key, transferred)
		err = tx.Commit()
	}
	if rerr := a.avt.Release(key, got); err == nil {
		err = rerr
	}
	if err != nil {
		return errors.Join(cause, err)
	}
	return cause
}

// gatherAV requests AV transfers until the hold reaches need or the
// candidate passes are exhausted. It returns the final hold size, the
// number of request rounds, and the total volume received.
func (a *Accelerator) gatherAV(ctx context.Context, key string, need, got int64) (_ int64, _ int, _ int64, err error) {
	ctx, sp := a.cfg.Tracer.Start(ctx, a.cfg.Site, "av.gather")
	if sp != nil {
		sp.SetAttr("key", key)
		sp.SetAttr("need", strconv.FormatInt(need, 10))
		defer func() { sp.Finish(err) }()
	}
	rounds := 0
	var transferred int64
	for pass := 0; pass < a.cfg.Passes && got < need; pass++ {
		cands := a.view.Candidates(key, a.peersFor(key))
		a.rmu.Lock()
		cands = a.cfg.Policy.Selector.Order(cands, a.rnd)
		a.rmu.Unlock()
		cands = a.demoteSuspects(cands)
		progress := false
		for _, c := range cands {
			if got >= need {
				break
			}
			req := a.cfg.Policy.Decider.Request(need - got)
			msg := &wire.AVRequest{Key: key, Amount: req}
			var xfer uint64
			if a.cfg.Escrow {
				xfer = a.nextXfer()
				msg.Xfer = xfer
			}
			cctx, cancel := clock.WithTimeout(ctx, a.cfg.Clock, a.cfg.RequestTimeout)
			reply, err := a.node.Call(cctx, c.Site, msg)
			cancel()
			rounds++
			a.stats.TransferRounds.Add(1)
			if err != nil {
				// Unreachable peer: remember it as empty so the selector
				// deprioritizes it until we hear otherwise, and tell the
				// failure detector so the next selecting step fails over.
				if a.cfg.Detector != nil {
					a.cfg.Detector.ReportFailure(c.Site)
				}
				if xfer != 0 {
					// The grant may have landed in the peer's escrow even
					// though the reply never arrived; durably promise to
					// cancel it so the units are refunded, not stranded.
					if oerr := a.avt.AddObligation(av.Obligation{Xfer: xfer, Peer: uint32(c.Site), Cancel: true}); oerr != nil {
						return got, rounds, transferred, oerr
					}
				}
				a.view.Observe(c.Site, key, 0)
				continue
			}
			if a.cfg.Detector != nil {
				a.cfg.Detector.ReportSuccess(c.Site)
			}
			avr, ok := reply.(*wire.AVReply)
			if !ok {
				continue
			}
			if !a.cfg.DisableGossip {
				a.view.ObserveAll(avr.View)
			}
			if avr.Granted > 0 {
				if xfer != 0 {
					// Promise to settle *before* the credit becomes
					// spendable: a crash between the two loses the units
					// (the settle destroys the granter's escrow and we
					// never credited — lost slack, the safe direction),
					// whereas the opposite order could double them.
					if oerr := a.avt.AddObligation(av.Obligation{Xfer: xfer, Peer: uint32(c.Site)}); oerr != nil {
						return got, rounds, transferred, oerr
					}
				}
				if err := a.avt.CreditHeld(key, avr.Granted); err != nil {
					return got, rounds, transferred, err
				}
				got += avr.Granted
				transferred += avr.Granted
				progress = true
			}
		}
		if !progress {
			break
		}
	}
	if got < need {
		return got, rounds, transferred, fmt.Errorf("%w: key %s need %d held %d after %d rounds",
			ErrInsufficientAV, key, need, got, rounds)
	}
	return got, rounds, transferred, nil
}

// demoteSuspects stably moves candidates the failure detector suspects
// behind every healthy one: the selecting function's order is kept
// within each class, but a request always tries the next-best healthy
// AV holder before burning a timeout on a suspect.
func (a *Accelerator) demoteSuspects(cands []strategy.Candidate) []strategy.Candidate {
	if a.cfg.Detector == nil {
		return cands
	}
	healthy := make([]strategy.Candidate, 0, len(cands))
	var suspect []strategy.Candidate
	for _, c := range cands {
		if a.cfg.Detector.Suspect(c.Site) {
			suspect = append(suspect, c)
		} else {
			healthy = append(healthy, c)
		}
	}
	if len(suspect) == 0 {
		return cands
	}
	a.stats.Failovers.Add(1)
	return append(healthy, suspect...)
}

// Reconcile re-drives the outstanding settle/cancel obligations of
// escrowed transfers: for each one it calls the granter with an
// AVSettle and discharges the obligation on acknowledgement. It returns
// the number of obligations still outstanding (peers that stayed
// unreachable) and the first error. Sites call this periodically and
// after restart; it is idempotent — the granter resolves each transfer
// at most once and acknowledges duplicates harmlessly.
func (a *Accelerator) Reconcile(ctx context.Context) (int, error) {
	obls := a.avt.Obligations()
	var firstErr error
	remaining := 0
	for _, ob := range obls {
		cctx, cancel := clock.WithTimeout(ctx, a.cfg.Clock, a.cfg.RequestTimeout)
		reply, err := a.node.Call(cctx, wire.SiteID(ob.Peer), &wire.AVSettle{Xfer: ob.Xfer, Cancel: ob.Cancel})
		cancel()
		if err != nil {
			if a.cfg.Detector != nil {
				a.cfg.Detector.ReportFailure(wire.SiteID(ob.Peer))
			}
			remaining++
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if a.cfg.Detector != nil {
			a.cfg.Detector.ReportSuccess(wire.SiteID(ob.Peer))
		}
		if _, ok := reply.(*wire.AVSettleAck); !ok {
			remaining++
			continue
		}
		if err := a.avt.CompleteObligation(ob.Xfer); err != nil {
			remaining++
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if ob.Cancel {
			a.stats.Cancels.Add(1)
		} else {
			a.stats.Settles.Add(1)
		}
	}
	return remaining, firstErr
}

// Obligations exposes the outstanding transfer obligations.
func (a *Accelerator) Obligations() []av.Obligation { return a.avt.Obligations() }

// HandleSettle is the granter-side handler for AVSettle: it resolves
// the escrowed transfer (cancel refunds, settle destroys) and reports
// the amount. Unknown or already-resolved transfers acknowledge with
// amount 0, so retries and duplicates are harmless.
func (a *Accelerator) HandleSettle(ctx context.Context, from wire.SiteID, msg *wire.AVSettle) (*wire.AVSettleAck, error) {
	n, err := a.avt.ResolveEscrow(msg.Xfer, msg.Cancel)
	if err != nil {
		return nil, err
	}
	return &wire.AVSettleAck{Xfer: msg.Xfer, Amount: n}, nil
}

// HandleAVRequest is the peer-side handler for AV transfer requests: the
// deciding function computes the donation, the table enforces it, and
// the reply piggybacks this site's view so the requester's selecting
// function has fresher information (the paper's gossip: "information is
// collected at the necessary communication for AV management").
func (a *Accelerator) HandleAVRequest(ctx context.Context, from wire.SiteID, req *wire.AVRequest) *wire.AVReply {
	_, sp := a.cfg.Tracer.Start(ctx, a.cfg.Site, "av.grant")
	if sp != nil {
		sp.SetAttr("key", req.Key)
		defer sp.EndSpan()
	}
	decider := a.cfg.Policy.Decider
	if kd, ok := decider.(strategy.KeyedDecider); ok {
		decider = kd.ForKey(req.Key)
	}
	want := decider.Grant(a.avt.Avail(req.Key), req.Amount)
	var granted int64
	var err error
	if req.Xfer != 0 {
		// Escrowed transfer: the units leave avail but wait under the
		// transfer id until the requester settles or cancels, so a lost
		// reply can be refunded instead of stranding the grant.
		granted, err = a.avt.EscrowDebit(req.Key, req.Xfer, want)
	} else {
		granted, err = a.avt.Debit(req.Key, want)
	}
	if err != nil {
		granted = 0
	}
	if a.cfg.DisableGossip {
		return &wire.AVReply{Key: req.Key, Granted: granted}
	}
	// The requester asked because it is short; remember that.
	a.view.Observe(from, req.Key, 0)
	infos := []wire.AVInfo{{Site: a.cfg.Site, Key: req.Key, Avail: a.avt.Avail(req.Key)}}
	for _, p := range a.peersFor(req.Key) {
		if p == from {
			continue
		}
		if known, ok := a.view.Known(p, req.Key); ok {
			infos = append(infos, wire.AVInfo{Site: p, Key: req.Key, Avail: known})
		}
	}
	return &wire.AVReply{Key: req.Key, Granted: granted, View: infos}
}

// Read returns the site's current local value for key — the autonomous
// read the Delay discipline offers (fresh for local updates, eventually
// consistent for remote ones).
func (a *Accelerator) Read(key string) (int64, error) {
	return a.tm.Engine().Amount(key)
}
