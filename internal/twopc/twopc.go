// Package twopc implements the paper's Immediate Update (Fig. 5): a
// primary-copy two-phase commit for the data with no Allowable Volume
// defined (non-regular products), where maker and retailer both demand
// strong consistency.
//
// The requesting site's accelerator acts as the coordinator: it locks
// and tentatively applies the update locally, sends IUPrepare to every
// other replica of the key simultaneously, collects ready votes, then
// distributes the commit/abort decision. Per the paper, "the requesting
// accelerator judges the completion of the update with the message from
// the accelerator at the base" — so completion requires the base's
// acknowledgement of the commit decision, the base being the first
// replica (the key's partition owner; under full replication, the one
// base site).
//
// Participants hold prepared transactions (with their locks, via strict
// 2PL) in a table with a deadline; an expired prepared transaction is
// presumed aborted and swept, so a crashed coordinator cannot wedge a
// site forever.
package twopc

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"avdb/internal/clock"
	"avdb/internal/failure"
	"avdb/internal/trace"
	"avdb/internal/transport"
	"avdb/internal/txn"
	"avdb/internal/wire"
)

// Immediate Update errors.
var (
	// ErrAborted reports that the update was aborted (a vote failed or a
	// participant was unreachable during prepare).
	ErrAborted = errors.New("twopc: update aborted")
	// ErrCompletionUnknown reports that the commit decision was taken and
	// applied locally, but the base site's acknowledgement did not arrive;
	// the data will converge when the base processes the decision, but
	// the paper's completion condition is unmet.
	ErrCompletionUnknown = errors.New("twopc: committed but base acknowledgement missing")
)

// Participant and decision-delivery timing.
const (
	// preparedTTL is how long a participant holds a prepared transaction
	// before presuming abort.
	preparedTTL = 10 * time.Second
	// decisionRetries is how many times a failed decision delivery is
	// retried per peer. Decisions must eventually reach every participant
	// or the prepared-TTL sweep frees it instead.
	decisionRetries = 2
)

// retryBackoff spaces decision retries.
var retryBackoff = failure.Policy{BaseDelay: 25 * time.Millisecond, MaxDelay: 250 * time.Millisecond}

// Options configure an Engine.
type Options struct {
	// Site is this engine's site ID.
	Site wire.SiteID
	// PrepareTimeout bounds each remote prepare/decision call
	// (default 2s).
	PrepareTimeout time.Duration
	// Tracer records protocol spans (nil disables tracing).
	Tracer *trace.Tracer
	// Clock drives prepared-transaction deadlines, decision-retry backoff
	// and remote call timeouts (nil means the real clock). The
	// deterministic simulator passes a virtual clock.
	Clock clock.Clock
	// Observer, when non-nil, is invoked for every transaction outcome
	// this engine applies locally (coordinator and participant roles).
	// The simulator's atomicity oracle consumes these.
	Observer func(Outcome)
	// IDEpoch offsets this engine's transaction counter. A restarted
	// engine starts counting from zero again, so a coordinator reborn
	// from its WAL would re-mint the transaction ids of its previous
	// life — and a participant still holding one of those ids prepared
	// (or decided) would confuse the two transactions. Each incarnation
	// must pass a fresh epoch; epoch e starts the counter at e<<32. Only
	// the low 8 bits count (e<<32 & (1<<40-1)): ids wrap after 256
	// incarnations.
	IDEpoch uint64
}

// Outcome is one locally applied transaction decision, as reported to
// Options.Observer.
type Outcome struct {
	TxnID uint64
	Site  wire.SiteID
	Key   string // empty for decisions whose prepare this engine never saw
	// Commit reports the applied outcome.
	Commit bool
	// Swept marks a presumed abort from the prepared-TTL sweep rather
	// than an explicit decision message.
	Swept bool
}

// Stats counts participant/coordinator outcomes; atomically updated.
type Stats struct {
	Aborts          atomic.Int64 // coordinated updates that ended in abort
	Swept           atomic.Int64 // prepared transactions freed by presumed abort
	DecisionRetries atomic.Int64 // decision deliveries that needed a retry
}

// maxDecidedTxns bounds the decided-outcome cache that makes duplicate
// decision deliveries idempotent.
const maxDecidedTxns = 4096

// Engine runs both coordinator and participant roles for one site.
type Engine struct {
	opts Options
	tm   *txn.Manager
	node transport.Node

	next atomic.Uint64

	mu       sync.Mutex
	prepared map[uint64]*preparedTxn
	// decided remembers the outcome of recently finished transactions so
	// a duplicated or retransmitted decision acknowledges consistently
	// (a re-delivered COMMIT for a committed txn must ack OK, not claim
	// presumed abort). Bounded FIFO.
	decided      map[uint64]bool
	decidedOrder []uint64

	stats Stats
}

type preparedTxn struct {
	tx       *txn.Txn
	key      string
	deadline time.Time
}

// New creates an Engine over tm. Call SetNode before coordinating.
func New(opts Options, tm *txn.Manager) *Engine {
	if opts.PrepareTimeout <= 0 {
		opts.PrepareTimeout = 2 * time.Second
	}
	if opts.Clock == nil {
		opts.Clock = clock.Real{}
	}
	e := &Engine{
		opts:     opts,
		tm:       tm,
		prepared: make(map[uint64]*preparedTxn),
		decided:  make(map[uint64]bool),
	}
	e.next.Store(opts.IDEpoch << 32 & (1<<40 - 1))
	return e
}

// SetNode attaches the transport endpoint (done after the network opens).
func (e *Engine) SetNode(n transport.Node) { e.node = n }

// Stats exposes the outcome counters.
func (e *Engine) Stats() *Stats { return &e.stats }

// recordDecided remembers a transaction's outcome, evicting the oldest
// record when the cache is full. Caller holds e.mu.
func (e *Engine) recordDecided(txnID uint64, commit bool) {
	if _, ok := e.decided[txnID]; ok {
		return
	}
	if len(e.decidedOrder) >= maxDecidedTxns {
		evict := e.decidedOrder[0]
		e.decidedOrder = e.decidedOrder[1:]
		delete(e.decided, evict)
	}
	e.decided[txnID] = commit
	e.decidedOrder = append(e.decidedOrder, txnID)
}

// newTxnID builds a cluster-unique transaction ID.
func (e *Engine) newTxnID() uint64 {
	return uint64(e.opts.Site)<<40 | e.next.Add(1)
}

// observe reports a locally applied outcome to the configured observer.
func (e *Engine) observe(txnID uint64, key string, commit, swept bool) {
	if e.opts.Observer != nil {
		e.opts.Observer(Outcome{TxnID: txnID, Site: e.opts.Site, Key: key, Commit: commit, Swept: swept})
	}
}

// Update coordinates one Immediate Update of key by delta across the
// key's replicas, base first (this site among them). On success the
// update is applied at every replica.
func (e *Engine) Update(ctx context.Context, replicas []wire.SiteID, key string, delta int64) (err error) {
	ctx, sp := e.opts.Tracer.Start(ctx, e.opts.Site, "iu.update")
	if sp != nil {
		sp.SetAttr("key", key)
		defer func() { sp.Finish(err) }()
	}
	txnID := e.newTxnID()
	peers := make([]wire.SiteID, 0, len(replicas))
	for _, p := range replicas {
		if p != e.opts.Site {
			peers = append(peers, p)
		}
	}

	// Local tentative apply under lock — the coordinator is also the
	// first participant.
	local := e.tm.Begin()
	if err := tentative(ctx, local, key, delta); err != nil {
		local.Abort()
		return fmt.Errorf("%w: local prepare: %v", ErrAborted, err)
	}

	allOK, reason := e.prepareAll(ctx, peers, txnID, key, delta)

	// Phase 2: decide.
	if !allOK {
		local.Abort()
		e.observe(txnID, key, false, false)
		e.stats.Aborts.Add(1)
		e.broadcastDecision(ctx, peers, txnID, false, nil)
		return fmt.Errorf("%w: %s", ErrAborted, reason)
	}
	// Commit goes through Engine.Apply, which returns only after the
	// batch's WAL record is durable (group commit): the COMMIT decision
	// broadcast below never escapes for a transaction a crash could
	// lose.
	if err := local.Commit(); err != nil {
		// Local commit of a validated, locked batch cannot fail in normal
		// operation; treat it as a global abort to stay safe.
		e.observe(txnID, key, false, false)
		e.stats.Aborts.Add(1)
		e.broadcastDecision(ctx, peers, txnID, false, nil)
		return fmt.Errorf("%w: local commit: %v", ErrAborted, err)
	}
	e.observe(txnID, key, true, false)
	return e.commitBroadcast(ctx, replicas[0], peers, txnID)
}

// prepareAll runs phase 1: prepare at every peer simultaneously (paper:
// "it also sends the lock request to the other accelerators
// simultaneously") and collect every vote. On failure the reported
// reason is the failing vote with the lowest site ID, so the abort
// reason does not depend on which reply happened to arrive first.
func (e *Engine) prepareAll(ctx context.Context, peers []wire.SiteID, txnID uint64, key string, delta int64) (allOK bool, reason string) {
	type voteResult struct {
		peer wire.SiteID
		ok   bool
		why  string
	}
	votes := make(chan voteResult, len(peers))
	for _, p := range peers {
		go func(p wire.SiteID) {
			cctx, cancel := clock.WithTimeout(ctx, e.opts.Clock, e.opts.PrepareTimeout)
			reply, err := e.node.Call(cctx, p, &wire.IUPrepare{
				TxnID: txnID, Coord: e.opts.Site, Key: key, Delta: delta,
			})
			// Cancel before reporting the vote: the vote may be the last
			// act before the coordinator blocks, and no timer of a finished
			// call may linger on a virtual clock.
			cancel()
			if err != nil {
				votes <- voteResult{peer: p, ok: false, why: err.Error()}
				return
			}
			v, ok := reply.(*wire.IUVote)
			if !ok {
				votes <- voteResult{peer: p, ok: false, why: fmt.Sprintf("bad reply %T", reply)}
				return
			}
			votes <- voteResult{peer: p, ok: v.OK, why: v.Reason}
		}(p)
	}
	allOK = true
	var failedPeer wire.SiteID
	for range peers {
		v := <-votes
		if v.ok {
			continue
		}
		if allOK || v.peer < failedPeer {
			allOK = false
			failedPeer = v.peer
			reason = fmt.Sprintf("site %d: %s", v.peer, v.why)
		}
	}
	return allOK, reason
}

// commitBroadcast distributes a COMMIT decision for a locally durable
// transaction and applies the paper's completion rule: the round is
// complete only once the base acknowledged.
func (e *Engine) commitBroadcast(ctx context.Context, base wire.SiteID, peers []wire.SiteID, txnID uint64) error {
	baseAcked := base == e.opts.Site // self-ack when we host the base
	e.broadcastDecision(ctx, peers, txnID, true, func(p wire.SiteID, ok bool) {
		if p == base && ok {
			baseAcked = true
		}
	})
	if !baseAcked {
		return ErrCompletionUnknown
	}
	return nil
}

// broadcastDecision distributes the decision and reports each ack via
// onAck (which may be nil). It waits for all peers (bounded by
// PrepareTimeout each, in parallel).
func (e *Engine) broadcastDecision(ctx context.Context, peers []wire.SiteID, txnID uint64, commit bool, onAck func(p wire.SiteID, ok bool)) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, p := range peers {
		wg.Add(1)
		go func(p wire.SiteID) {
			defer wg.Done()
			ok := false
			// A lost decision would leave the participant prepared until
			// its TTL sweep presumes abort, so retry with backoff — the
			// participant's decided-outcome cache makes duplicates safe.
			for attempt := 0; attempt <= decisionRetries; attempt++ {
				if attempt > 0 {
					e.stats.DecisionRetries.Add(1)
					t := clock.NewTimer(e.opts.Clock, retryBackoff.Backoff(attempt-1))
					select {
					case <-ctx.Done():
						t.Stop()
					case <-t.C:
					}
					if ctx.Err() != nil {
						break
					}
				}
				cctx, cancel := clock.WithTimeout(ctx, e.opts.Clock, e.opts.PrepareTimeout)
				reply, err := e.node.Call(cctx, p, &wire.IUDecision{TxnID: txnID, Commit: commit})
				cancel()
				if err != nil {
					continue
				}
				if a, isAck := reply.(*wire.IUAck); isAck && a.OK {
					ok = true
				}
				break
			}
			if onAck != nil {
				mu.Lock()
				onAck(p, ok)
				mu.Unlock()
			}
		}(p)
	}
	wg.Wait()
}

// tentative locks key, applies delta in tx, and refuses a result below
// zero: stock may not go negative.
func tentative(ctx context.Context, tx *txn.Txn, key string, delta int64) error {
	after, err := tx.ApplyDelta(ctx, key, delta)
	if err != nil {
		return err
	}
	if after < 0 {
		return fmt.Errorf("amount %d would become negative (%d)", after-delta, after)
	}
	return nil
}

// HandlePrepare is the participant's phase-1 handler. ctx carries the
// coordinator's trace context, not a cancellation signal.
func (e *Engine) HandlePrepare(ctx context.Context, from wire.SiteID, msg *wire.IUPrepare) *wire.IUVote {
	ctx, sp := e.opts.Tracer.Start(ctx, e.opts.Site, "iu.prepare")
	if sp != nil {
		sp.SetAttr("key", msg.Key)
		defer sp.EndSpan()
	}
	ctx, cancel := context.WithTimeout(ctx, e.opts.PrepareTimeout)
	defer cancel()
	tx := e.tm.Begin()
	if err := tentative(ctx, tx, msg.Key, msg.Delta); err != nil {
		tx.Abort()
		return &wire.IUVote{TxnID: msg.TxnID, OK: false, Reason: err.Error()}
	}
	e.mu.Lock()
	if outcome, ok := e.decided[msg.TxnID]; ok {
		// The decision overtook this prepare (the coordinator timed out
		// while we waited for the lock and already broadcast abort).
		// Registering now would hold the lock until the TTL sweep for a
		// transaction that is long dead — release immediately instead.
		e.mu.Unlock()
		tx.Abort()
		return &wire.IUVote{TxnID: msg.TxnID, OK: false,
			Reason: fmt.Sprintf("txn already decided (commit=%v)", outcome)}
	}
	e.prepared[msg.TxnID] = &preparedTxn{tx: tx, key: msg.Key, deadline: e.opts.Clock.Now().Add(preparedTTL)}
	e.mu.Unlock()
	return &wire.IUVote{TxnID: msg.TxnID, OK: true}
}

// HandleDecision is the participant's phase-2 handler.
func (e *Engine) HandleDecision(ctx context.Context, from wire.SiteID, msg *wire.IUDecision) *wire.IUAck {
	_, sp := e.opts.Tracer.Start(ctx, e.opts.Site, "iu.decision")
	if sp != nil {
		sp.SetAttr("commit", strconv.FormatBool(msg.Commit))
		defer sp.EndSpan()
	}
	e.mu.Lock()
	p := e.prepared[msg.TxnID]
	delete(e.prepared, msg.TxnID)
	if p == nil {
		// No prepared state. If we already applied a decision for this
		// transaction, acknowledge consistently — a retransmitted COMMIT
		// for a committed txn must ack OK, not claim presumed abort.
		// Otherwise the transaction is unknown: presumed abort, so an
		// abort acks OK and a commit we never prepared does not.
		if outcome, ok := e.decided[msg.TxnID]; ok {
			e.mu.Unlock()
			return &wire.IUAck{TxnID: msg.TxnID, OK: outcome == msg.Commit}
		}
		if !msg.Commit {
			// Record the presumed abort so a prepare still in flight (the
			// decision can overtake it when the coordinator gave up while
			// we waited on the lock) aborts itself instead of registering
			// and pinning the lock until the TTL sweep.
			e.recordDecided(msg.TxnID, false)
		}
		e.mu.Unlock()
		return &wire.IUAck{TxnID: msg.TxnID, OK: !msg.Commit}
	}
	e.recordDecided(msg.TxnID, msg.Commit)
	e.mu.Unlock()
	if msg.Commit {
		// Commit waits on the WAL group commit before returning, so the
		// OK ack (the coordinator's license to forget the transaction)
		// is sent only once the covering LSN is durable here.
		if err := p.tx.Commit(); err != nil {
			return &wire.IUAck{TxnID: msg.TxnID, OK: false}
		}
		e.observe(msg.TxnID, p.key, true, false)
		return &wire.IUAck{TxnID: msg.TxnID, OK: true}
	}
	p.tx.Abort()
	e.observe(msg.TxnID, p.key, false, false)
	return &wire.IUAck{TxnID: msg.TxnID, OK: true}
}

// Sweep aborts prepared transactions whose deadline has passed (presumed
// abort after a coordinator failure) and returns how many were swept.
// Sites call it periodically.
func (e *Engine) Sweep(now time.Time) int {
	type victim struct {
		id uint64
		p  *preparedTxn
	}
	e.mu.Lock()
	var victims []victim
	for id, p := range e.prepared {
		if now.After(p.deadline) {
			victims = append(victims, victim{id, p})
			delete(e.prepared, id)
			e.recordDecided(id, false)
		}
	}
	e.mu.Unlock()
	for _, v := range victims {
		v.p.tx.Abort()
		e.observe(v.id, v.p.key, false, true)
	}
	e.stats.Swept.Add(int64(len(victims)))
	return len(victims)
}

// PreparedCount reports how many transactions are currently prepared.
func (e *Engine) PreparedCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.prepared)
}
