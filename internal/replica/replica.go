// Package replica implements the lazy convergence path for Delay
// Updates. A committed Delay Update mutates only the local copy of the
// datum; the delta is recorded in the site's outbound log and batched to
// peers ("the result is propagated to all the system at the earliest" —
// asynchronously, off the update's critical path).
//
// Because every update is a delta and deltas commute, each site's copy
// equals the initial value plus the sum of all deltas it has applied —
// a PN-counter. Exactly-once application is guaranteed by per-origin
// sequence numbers: a receiver applies only the contiguous extension of
// what it has already applied, so replays, reorderings and losses (the
// sender retransmits from the last acknowledged sequence) are all safe.
package replica

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"avdb/internal/clock"
	"avdb/internal/failure"
	"avdb/internal/storage"
	"avdb/internal/transport"
	"avdb/internal/txn"
	"avdb/internal/wire"
)

// Metadata keys used by durable replicators (stored through the
// engine's meta namespace, atomically with the data they describe).
// The outbound log's rows, storage.LogKey(seq), are written by the
// storage.OpLoggedDelta that commits each entry's delta.
const (
	metaAppliedPrefix = "repl/applied/"
	metaFloorKey      = "repl/floor"
)

// Replicator manages one site's outbound delta log and the application
// of other sites' deltas. It is safe for concurrent use.
type Replicator struct {
	origin  wire.SiteID
	eng     *storage.Engine
	durable bool

	mu       sync.Mutex
	log      []wire.Delta
	firstSeq uint64                 // seq of log[0]; log is a contiguous suffix
	applied  map[wire.SiteID]uint64 // remote origin -> highest seq applied here
	acked    map[wire.SiteID]uint64 // peer -> highest of OUR seqs it acked

	// hosts filters replication by partition (see SetPartitionFilter);
	// nil replicates everything to everyone.
	hosts func(site wire.SiteID, key string) bool

	// Per-peer flush control (see SetFlushPolicy). Guarded by fmu, not
	// mu: Flush consults it while the log lock is free.
	fmu          sync.Mutex
	flushTimeout time.Duration
	flushPolicy  failure.Policy
	flushClock   clock.Clock
	flushFail    map[wire.SiteID]*flushBackoff
}

// flushBackoff tracks one unreachable peer on the flush path.
type flushBackoff struct {
	failures int
	until    time.Time
}

// New creates a volatile replicator for the site origin writing into
// eng — correct for in-memory sites, whose whole state vanishes
// together on restart.
func New(origin wire.SiteID, eng *storage.Engine) *Replicator {
	return &Replicator{
		origin:   origin,
		eng:      eng,
		firstSeq: 1,
		applied:  make(map[wire.SiteID]uint64),
		acked:    make(map[wire.SiteID]uint64),
	}
}

// NewDurable creates a replicator whose outbound log and per-origin
// applied watermarks live in the engine's metadata namespace, written
// atomically with the data they describe. A durable site therefore
// survives restarts without double-applying retransmitted deltas
// (watermark persists) and without losing committed-but-unpropagated
// local deltas (log persists).
func NewDurable(origin wire.SiteID, eng *storage.Engine) (*Replicator, error) {
	r := New(origin, eng)
	r.durable = true
	// Recover the compaction floor.
	if v, ok, err := eng.GetMeta(metaFloorKey); err != nil {
		return nil, err
	} else if ok {
		floor, n := binary.Uvarint(v)
		if n <= 0 {
			return nil, fmt.Errorf("replica: corrupt floor")
		}
		r.firstSeq = floor
	}
	// Recover the outbound log.
	var scanErr error
	err := eng.ScanMeta(storage.LogPrefix, func(k string, v []byte) bool {
		seq, key, delta, err := storage.ParseLogRow(k, v)
		if err != nil {
			scanErr = fmt.Errorf("replica: %w", err)
			return false
		}
		want := r.firstSeq + uint64(len(r.log))
		if seq != want {
			scanErr = fmt.Errorf("replica: log gap: found seq %d, want %d", seq, want)
			return false
		}
		r.log = append(r.log, wire.Delta{Seq: seq, Key: key, Amount: delta})
		return true
	})
	if err != nil {
		return nil, err
	}
	if scanErr != nil {
		return nil, scanErr
	}
	// Recover applied watermarks.
	err = eng.ScanMeta(metaAppliedPrefix, func(k string, v []byte) bool {
		id, err := strconv.ParseUint(strings.TrimPrefix(k, metaAppliedPrefix), 10, 32)
		if err != nil {
			scanErr = fmt.Errorf("replica: corrupt applied key %q", k)
			return false
		}
		upTo, n := binary.Uvarint(v)
		if n <= 0 {
			scanErr = fmt.Errorf("replica: corrupt applied value for %q", k)
			return false
		}
		r.applied[wire.SiteID(id)] = upTo
		return true
	})
	if err != nil {
		return nil, err
	}
	if scanErr != nil {
		return nil, scanErr
	}
	return r, nil
}

// Durable reports whether this replicator persists its state.
func (r *Replicator) Durable() bool { return r.durable }

// Record appends a locally committed delta to the outbound log and
// returns its sequence number. Volatile replicators only — durable
// callers must use CommitWithRecord so the log row lands in the same
// storage batch as the data it describes.
func (r *Replicator) Record(key string, delta int64) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	seq := r.firstSeq + uint64(len(r.log))
	r.log = append(r.log, wire.Delta{Seq: seq, Key: key, Amount: delta})
	return seq
}

// NextSeq returns the sequence the next Record will get.
func (r *Replicator) NextSeq() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.firstSeq + uint64(len(r.log))
}

// CommitWithRecord commits tx — which must already hold the buffered
// data write of (key, delta) — together with the outbound log entry,
// and returns the entry's sequence. For volatile replicators the commit
// and the in-memory log append simply happen back to back; for durable
// ones the delta itself becomes the entry (tx.LogDelta), so the update
// and its replication record are one op of one batch and a crash can
// never separate them.
func (r *Replicator) CommitWithRecord(tx *txn.Txn, key string, delta int64) (uint64, error) {
	if !r.durable {
		if err := tx.Commit(); err != nil {
			return 0, err
		}
		return r.Record(key, delta), nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	seq := r.firstSeq + uint64(len(r.log))
	if err := tx.LogDelta(key, delta, seq); err != nil {
		tx.Abort()
		return 0, err
	}
	if err := tx.Commit(); err != nil {
		return 0, err
	}
	r.log = append(r.log, wire.Delta{Seq: seq, Key: key, Amount: delta})
	return seq, nil
}

// SetPartitionFilter makes replication follow the partition map:
// outbound windows carry only the entries whose key hosts says the
// destination hosts, and inbound windows apply only the entries it says
// this site hosts (a second line of defense against a sender with a
// different map). Watermarks still advance over whole windows — a
// filtered-out entry is acknowledged, never retransmitted — via
// DeltaSync.WindowTop. Call before any traffic flows.
func (r *Replicator) SetPartitionFilter(hosts func(site wire.SiteID, key string) bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.hosts = hosts
}

// SetFlushPolicy bounds each peer's exchange during Flush with its own
// deadline and backs off peers that keep failing: a peer inside its
// backoff window is skipped entirely (its backlog is kept), so one dead
// site cannot slow every flush round to its timeout. A zero timeout
// disables the per-peer deadline; a zero policy disables backoff. clk
// may be nil (wall clock); tests inject a virtual one.
func (r *Replicator) SetFlushPolicy(timeout time.Duration, policy failure.Policy, clk clock.Clock) {
	r.fmu.Lock()
	defer r.fmu.Unlock()
	if clk == nil {
		clk = clock.Real{}
	}
	r.flushTimeout = timeout
	r.flushPolicy = policy
	r.flushClock = clk
	r.flushFail = make(map[wire.SiteID]*flushBackoff)
}

// flushSkip reports whether peer is inside its failure backoff window.
func (r *Replicator) flushSkip(peer wire.SiteID) bool {
	r.fmu.Lock()
	defer r.fmu.Unlock()
	if r.flushFail == nil {
		return false
	}
	fb := r.flushFail[peer]
	return fb != nil && r.flushClock.Now().Before(fb.until)
}

// flushOutcome records a peer's flush result for the backoff window.
func (r *Replicator) flushOutcome(peer wire.SiteID, ok bool) {
	r.fmu.Lock()
	defer r.fmu.Unlock()
	if r.flushFail == nil {
		return
	}
	if ok {
		delete(r.flushFail, peer)
		return
	}
	if r.flushPolicy.BaseDelay <= 0 {
		return
	}
	fb := r.flushFail[peer]
	if fb == nil {
		fb = &flushBackoff{}
		r.flushFail[peer] = fb
	}
	fb.failures++
	fb.until = r.flushClock.Now().Add(r.flushPolicy.Backoff(fb.failures))
}

// PendingFor returns the deltas peer has not acknowledged yet.
func (r *Replicator) PendingFor(peer wire.SiteID) []wire.Delta {
	r.mu.Lock()
	defer r.mu.Unlock()
	from := r.acked[peer] + 1
	if from < r.firstSeq {
		// The log was compacted past entries the peer never acked; this
		// cannot happen through Compact, which respects all acks.
		from = r.firstSeq
	}
	idx := int(from - r.firstSeq)
	if idx >= len(r.log) {
		return nil
	}
	out := make([]wire.Delta, len(r.log)-idx)
	copy(out, r.log[idx:])
	return out
}

// Lag returns how many of our deltas peer has not acknowledged.
func (r *Replicator) Lag(peer wire.SiteID) int {
	return len(r.PendingFor(peer))
}

// PendingSyncFor returns the unacknowledged backlog for peer as one
// coalesced DeltaSync, or nil when the peer is caught up. Deltas to the
// same key within the window are summed into a single entry (they
// commute), so a hot key costs one wire entry per flush instead of one
// per update. The message's FirstSeq marks the first covered sequence
// and each entry's Seq the last sequence it absorbed; the receiver
// applies the window all-or-nothing (see wire.DeltaSync). The window
// runs to the live log top: CommitWithRecord appends an entry only after
// its commit's durability wait, so every entry is already durable.
func (r *Replicator) PendingSyncFor(peer wire.SiteID) *wire.DeltaSync {
	r.mu.Lock()
	defer r.mu.Unlock()
	from := r.acked[peer] + 1
	if from < r.firstSeq {
		// The log was compacted past entries the peer never acked; this
		// cannot happen through Compact, which respects all acks.
		from = r.firstSeq
	}
	top := r.firstSeq + uint64(len(r.log)) - 1
	if from > top {
		return nil
	}
	idx := int(from - r.firstSeq)
	msg := &wire.DeltaSync{Origin: r.origin, FirstSeq: from}
	byKey := make(map[string]int)
	filtered := false
	for _, d := range r.log[idx:] {
		if r.hosts != nil && !r.hosts(peer, d.Key) {
			// Partial replication: the peer does not host this key's
			// partition. The entry is omitted but its sequence is still
			// covered by the window (WindowTop below), so the peer acks
			// it and it is never retransmitted.
			filtered = true
			continue
		}
		if i, ok := byKey[d.Key]; ok {
			msg.Deltas[i].Amount += d.Amount
			msg.Deltas[i].Seq = d.Seq
			continue
		}
		byKey[d.Key] = len(msg.Deltas)
		msg.Deltas = append(msg.Deltas, d)
	}
	if filtered {
		msg.WindowTop = top
	}
	return msg
}

// AppliedFrom returns the highest sequence applied from origin.
func (r *Replicator) AppliedFrom(origin wire.SiteID) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.applied[origin]
}

// HandleSync applies a peer's delta window and returns the cumulative
// acknowledgement. A window sums same-key deltas (PendingSyncFor), so
// its entries do not map 1:1 onto sequences and it applies
// all-or-nothing: only when FirstSeq extends our watermark exactly.
// Applied or not, the returned ack tells the sender precisely where to
// resume, so a lost ack or misaligned window costs one realignment
// round, never a lost or doubled delta.
func (r *Replicator) HandleSync(msg *wire.DeltaSync) (*wire.DeltaAck, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	high := r.applied[msg.Origin]
	var ops []storage.Op
	to := msg.WindowTop // sender-filtered windows may end past the last entry
	for _, d := range msg.Deltas {
		if d.Seq > to {
			to = d.Seq
		}
	}
	// to <= high: pure duplicate (skip, ack our watermark).
	// FirstSeq > high+1: gap — wait for retransmission from the ack.
	// FirstSeq <= high < to: partially replayed window; coalesced entries
	// cannot be split, so reject it whole and let the ack realign the
	// sender's next flush.
	if to > high && msg.FirstSeq == high+1 {
		for _, d := range msg.Deltas {
			if r.hosts != nil && !r.hosts(r.origin, d.Key) {
				continue // not our partition; ack it, never apply it
			}
			ops = append(ops, storage.DeltaOp(d.Key, d.Amount))
		}
		high = to
	}
	if len(ops) > 0 || (r.durable && high > r.applied[msg.Origin]) {
		if r.durable {
			// The watermark commits in the same batch as the deltas, so
			// a crash can never double-apply a retransmission. It must be
			// persisted even when the window applied nothing (every entry
			// filtered to a foreign partition): the ack we return makes
			// the sender trim its retransmission window permanently, so a
			// crash forgetting the advance would leave our durable
			// watermark stranded behind acks the sender will never
			// re-cover — wedging replication at the gap.
			wm := binary.AppendUvarint(nil, high)
			ops = append(ops, storage.MetaPutOp(
				fmt.Sprintf("%s%d", metaAppliedPrefix, msg.Origin), wm))
		}
		if err := r.eng.Apply(ops...); err != nil {
			// All sites share the same schema seeded from the base DB, so
			// a missing key is a real invariant violation, not a race.
			return nil, fmt.Errorf("replica: apply batch from site %d: %w", msg.Origin, err)
		}
	}
	r.applied[msg.Origin] = high
	return &wire.DeltaAck{Origin: msg.Origin, UpTo: high}, nil
}

// HandleAck records a peer's cumulative acknowledgement of our log.
func (r *Replicator) HandleAck(peer wire.SiteID, upTo uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if upTo > r.acked[peer] {
		r.acked[peer] = upTo
	}
}

// Flush pushes pending deltas to every peer concurrently and processes
// their acks; it returns once every peer's exchange finished. Each peer
// gets one coalesced DeltaSync, so flush latency is the slowest peer's
// round trip, not the sum. Unreachable peers are skipped (their backlog
// is kept for the next flush); every peer is attempted regardless of
// other peers' failures, and all unexpected errors are returned joined.
func (r *Replicator) Flush(ctx context.Context, node transport.Node, peers []wire.SiteID) error {
	type job struct {
		peer wire.SiteID
		msg  *wire.DeltaSync
	}
	var jobs []job
	for _, peer := range peers {
		if r.flushSkip(peer) {
			continue // failing peer inside its backoff window
		}
		if msg := r.PendingSyncFor(peer); msg != nil {
			jobs = append(jobs, job{peer, msg})
		}
	}
	if len(jobs) == 0 {
		return nil
	}
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func(i int, j job) {
			defer wg.Done()
			cctx := ctx
			r.fmu.Lock()
			timeout := r.flushTimeout
			clk := r.flushClock
			r.fmu.Unlock()
			cancel := context.CancelFunc(func() {})
			if timeout > 0 {
				// Per-peer deadline: one slow peer bounds only its own
				// exchange, never the whole fan-out.
				cctx, cancel = clock.WithTimeout(ctx, clk, timeout)
			}
			reply, err := node.Call(cctx, j.peer, j.msg)
			// Cancelled eagerly, not deferred: a finished exchange must not
			// leave its deadline timer pending on a virtual clock.
			cancel()
			if err != nil {
				// Partition or crash: keep the backlog, back the peer off,
				// try again later. This is the fault tolerance claim: Delay
				// Updates committed during the partition flow out once it
				// heals.
				r.flushOutcome(j.peer, false)
				return
			}
			r.flushOutcome(j.peer, true)
			ack, ok := reply.(*wire.DeltaAck)
			if !ok {
				errs[i] = fmt.Errorf("replica: unexpected reply %T from site %d", reply, j.peer)
				return
			}
			r.HandleAck(j.peer, ack.UpTo)
		}(i, j)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Pull fetches pending deltas *from* every peer (the push direction is
// Flush): each peer replies with the suffix of its log we have not yet
// acknowledged; we apply it and acknowledge with a one-way DeltaAck.
// After a Pull from all live peers, the local replica reflects every
// update those peers had committed when they answered — the basis for
// fresh reads. Unreachable peers are skipped.
func (r *Replicator) Pull(ctx context.Context, node transport.Node, peers []wire.SiteID) error {
	var firstErr error
	for _, peer := range peers {
		reply, err := node.Call(ctx, peer, &wire.SyncPull{})
		if err != nil {
			continue // partitioned/crashed peer: pull what we can reach
		}
		sync, ok := reply.(*wire.DeltaSync)
		if !ok {
			if firstErr == nil {
				firstErr = fmt.Errorf("replica: unexpected pull reply %T from site %d", reply, peer)
			}
			continue
		}
		ack, err := r.HandleSync(sync)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		// Tell the peer what we now hold so its push path and Compact
		// see the progress. Best effort: a lost ack only means a
		// harmless retransmission later.
		_ = node.Send(ctx, peer, ack)
	}
	return firstErr
}

// Compact drops log entries acknowledged by every peer in peers. It
// must be called with the full peer set; entries a peer has not acked
// are retained.
func (r *Replicator) Compact(peers []wire.SiteID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.log) == 0 {
		return
	}
	min := r.firstSeq + uint64(len(r.log)) - 1
	for _, p := range peers {
		if a := r.acked[p]; a < min {
			min = a
		}
	}
	if min < r.firstSeq {
		return
	}
	drop := int(min - r.firstSeq + 1)
	if r.durable {
		ops := make([]storage.Op, 0, drop+1)
		for seq := r.firstSeq; seq <= min; seq++ {
			ops = append(ops, storage.MetaDeleteOp(storage.LogKey(seq)))
		}
		ops = append(ops, storage.MetaPutOp(metaFloorKey, binary.AppendUvarint(nil, min+1)))
		if err := r.eng.Apply(ops...); err != nil {
			return // keep the uncompacted log; retry next time
		}
	}
	r.log = append([]wire.Delta(nil), r.log[drop:]...)
	r.firstSeq = min + 1
}

// LogLen returns the current outbound log length (for tests/metrics).
func (r *Replicator) LogLen() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.log)
}
