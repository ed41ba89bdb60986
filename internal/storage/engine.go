package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"avdb/internal/btree"
	"avdb/internal/clock"
	"avdb/internal/epoch"
	"avdb/internal/wal"
)

const (
	snapshotName = "snapshot.db"
	snapshotTmp  = "snapshot.tmp"
	snapMagic    = "AVDBSNP1"
)

// numStripes is the number of lock stripes the key space is hashed
// into. A power of two so the stripe index is a mask, sized so that on
// any realistic core count independent keys almost never share a
// stripe.
const numStripes = 32

// stripeOf hashes a key (FNV-1a) to its stripe index.
func stripeOf(key string) int {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return int(h & (numStripes - 1))
}

// Options configure an Engine.
type Options struct {
	// Dir is the data directory. Empty means a purely in-memory engine
	// (no WAL, no snapshots) — used by counting experiments where the
	// durability path is not under measurement.
	Dir string
	// NoSync disables fsync on the WAL (passed through to wal.Options).
	NoSync bool
	// SegmentMaxBytes is passed through to wal.Options.
	SegmentMaxBytes int64
	// MaxSyncDelay is passed through to wal.Options (group-commit stall).
	MaxSyncDelay time.Duration
	// Stats is passed through to wal.Options (shared fsync counters).
	Stats *wal.Stats
	// EpochInterval, when positive on a durable engine, routes Apply's
	// durability wait through an epoch manager: commits apply immediately
	// and their acknowledgements ride epoch boundaries, amortizing one
	// covering fsync across every commit in the epoch. Zero keeps the
	// per-commit group-commit SyncTo path.
	EpochInterval time.Duration
	// EpochMaxCommits closes an epoch early once it holds this many
	// commits (0 means epoch.DefaultMaxCommits; negative disables).
	EpochMaxCommits int
	// EpochAdaptive turns on the epoch manager's adaptive interval
	// controller; EpochMinInterval/EpochMaxInterval clamp it (see
	// epoch.Options).
	EpochAdaptive    bool
	EpochMinInterval time.Duration
	EpochMaxInterval time.Duration
	// EpochOnDurable, when non-nil, fires each time the durable epoch
	// watermark advances (see epoch.Options.OnDurable).
	EpochOnDurable func(epoch uint64)
	// Clock drives epoch deadlines (nil means the real clock).
	Clock clock.Clock
	// EpochStats, when non-nil, receives epoch counters (shareable with
	// other managers of the same site).
	EpochStats *epoch.Stats
}

// stripe is one lock-striped partition of the key space: keys hash to a
// stripe, and point operations only contend with other keys of the same
// stripe instead of serializing the whole engine.
type stripe struct {
	mu        sync.RWMutex
	mem       *btree.Tree
	metaCount int // rows under MetaPrefix, excluded from Len and Scan
}

// Engine is a site's local database. It is safe for concurrent use:
// the record table is partitioned into numStripes hash stripes, each
// with its own RWMutex, so Delay Updates to independent keys proceed in
// parallel. Multi-key batches lock their stripes in ascending index
// order (deadlock freedom); whole-table operations (Scan, Checkpoint,
// Close) lock every stripe.
type Engine struct {
	opts Options

	stripes [numStripes]stripe
	log     *wal.Log       // nil when in-memory; internally synchronized
	epochs  *epoch.Manager // nil unless EpochInterval > 0 on a durable engine
	closed  bool           // guarded by holding all stripe locks to set, any one to read

	// lastLSN is the highest LSN whose batch has been applied to the
	// table. Durable engines take LSNs from the WAL; in-memory engines
	// mint dense virtual LSNs from this counter so downstream consumers
	// (the read plane) see a uniform cursor either way.
	lastLSN atomic.Uint64
	// observer, when set, is called for every applied batch while the
	// batch's stripe locks are still held (so observation order for
	// conflicting batches matches apply order). Set before concurrent
	// use; it must not call back into the engine.
	observer func(lsn uint64, ops []Op)
}

// Open opens (or creates, or recovers) an engine.
func Open(opts Options) (*Engine, error) {
	e := &Engine{opts: opts}
	for i := range e.stripes {
		e.stripes[i].mem = &btree.Tree{}
	}
	if opts.Dir == "" {
		return e, nil
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	snapLSN, err := e.loadSnapshot()
	if err != nil {
		return nil, err
	}
	log, err := wal.Open(filepath.Join(opts.Dir, "wal"), wal.Options{
		NoSync:          opts.NoSync,
		SegmentMaxBytes: opts.SegmentMaxBytes,
		MaxSyncDelay:    opts.MaxSyncDelay,
		Stats:           opts.Stats,
	})
	if err != nil {
		return nil, err
	}
	e.log = log
	err = log.Replay(snapLSN+1, func(lsn uint64, payload []byte) error {
		ops, err := decodeBatch(payload)
		if err != nil {
			return err
		}
		// Replay applies without validation: the batch was validated when
		// first written, and partially-known state (post-snapshot deltas
		// to rows created before the snapshot) must still apply.
		e.applyOps(ops)
		return nil
	})
	if err != nil {
		log.Close()
		return nil, err
	}
	e.lastLSN.Store(log.NextLSN() - 1)
	if opts.EpochInterval > 0 {
		e.epochs = epoch.New(epoch.Options{
			Interval:    opts.EpochInterval,
			MaxCommits:  opts.EpochMaxCommits,
			Clock:       opts.Clock,
			Sync:        log.SyncTo,
			Stats:       opts.EpochStats,
			Adaptive:    opts.EpochAdaptive,
			MinInterval: opts.EpochMinInterval,
			MaxInterval: opts.EpochMaxInterval,
			OnDurable:   opts.EpochOnDurable,
		})
	}
	return e, nil
}

// Epochs returns the engine's epoch manager, nil when epoch commit is
// off (or the engine is in-memory).
func (e *Engine) Epochs() *epoch.Manager { return e.epochs }

// SetApplyObserver installs fn to be called for every applied batch
// with the batch's LSN and ops. It is called while the batch's stripe
// locks are held: keep it brief and never call back into the engine.
// Install before the engine sees concurrent use.
func (e *Engine) SetApplyObserver(fn func(lsn uint64, ops []Op)) {
	e.observer = fn
}

// LastLSN returns the LSN of the most recently applied batch (0 before
// any batch). For in-memory engines this is a virtual counter with the
// same density guarantees as WAL LSNs.
func (e *Engine) LastLSN() uint64 { return e.lastLSN.Load() }

// storageKey returns the key an op actually occupies in the table
// (meta ops live under MetaPrefix).
func storageKey(op *Op) string {
	if op.Kind == OpMetaPut || op.Kind == OpMetaDelete {
		return MetaPrefix + op.Key
	}
	return op.Key
}

// lockStripes write-locks the given stripe set in ascending order.
// stripesFor output is sorted and deduplicated, so concurrent batches
// always acquire in the same global order.
func (e *Engine) lockStripes(idx []int) {
	for _, i := range idx {
		e.stripes[i].mu.Lock()
	}
}

func (e *Engine) unlockStripes(idx []int) {
	for i := len(idx) - 1; i >= 0; i-- {
		e.stripes[idx[i]].mu.Unlock()
	}
}

// stripesFor returns the sorted, deduplicated stripe indices a batch
// touches.
func stripesFor(ops []Op) []int {
	var mask uint32
	for i := range ops {
		mask |= 1 << uint(stripeOf(storageKey(&ops[i])))
	}
	idx := make([]int, 0, numStripes)
	for i := 0; i < numStripes; i++ {
		if mask&(1<<uint(i)) != 0 {
			idx = append(idx, i)
		}
	}
	return idx
}

// allStripes is the full ascending stripe index set.
var allStripes = func() []int {
	idx := make([]int, numStripes)
	for i := range idx {
		idx[i] = i
	}
	return idx
}()

// lockAll / unlockAll bracket whole-table operations.
func (e *Engine) lockAll()   { e.lockStripes(allStripes) }
func (e *Engine) unlockAll() { e.unlockStripes(allStripes) }

func (e *Engine) rlockAll() {
	for i := range e.stripes {
		e.stripes[i].mu.RLock()
	}
}

func (e *Engine) runlockAll() {
	for i := numStripes - 1; i >= 0; i-- {
		e.stripes[i].mu.RUnlock()
	}
}

// Get returns the record stored under key.
func (e *Engine) Get(key string) (Record, error) {
	s := &e.stripes[stripeOf(key)]
	s.mu.RLock()
	defer s.mu.RUnlock()
	if e.closed {
		return Record{}, ErrClosed
	}
	v, ok := s.mem.Get(key)
	if !ok {
		return Record{}, ErrNotFound
	}
	var rec Record
	if err := decodeValue(key, v, &rec); err != nil {
		return Record{}, err
	}
	return rec, nil
}

// Amount returns just the stock amount for key.
func (e *Engine) Amount(key string) (int64, error) {
	rec, err := e.Get(key)
	if err != nil {
		return 0, err
	}
	return rec.Amount, nil
}

// Len returns the number of user rows (metadata rows are excluded).
func (e *Engine) Len() int {
	e.rlockAll()
	defer e.runlockAll()
	n := 0
	for i := range e.stripes {
		n += e.stripes[i].mem.Len() - e.stripes[i].metaCount
	}
	return n
}

// mergeScan iterates every stripe's tree in globally ascending key
// order while the caller holds all stripe locks. An empty `from` starts
// at the beginning.
func (e *Engine) mergeScan(from string, fn func(k string, v []byte) bool) {
	var iters [numStripes]btree.Iterator
	for i := range e.stripes {
		iters[i] = e.stripes[i].mem.IterFrom(from)
	}
	for {
		best := -1
		for i := range iters {
			if !iters[i].Valid() {
				continue
			}
			if best < 0 || iters[i].Key() < iters[best].Key() {
				best = i
			}
		}
		if best < 0 {
			return
		}
		if !fn(iters[best].Key(), iters[best].Value()) {
			return
		}
		iters[best].Next()
	}
}

// Scan calls fn for every record in key order until fn returns false.
func (e *Engine) Scan(fn func(rec Record) bool) error {
	e.rlockAll()
	defer e.runlockAll()
	if e.closed {
		return ErrClosed
	}
	var decodeErr error
	e.mergeScan("", func(k string, v []byte) bool {
		if len(k) >= len(MetaPrefix) && k[:len(MetaPrefix)] == MetaPrefix {
			return true // metadata rows are not part of the user schema
		}
		var rec Record
		if err := decodeValue(k, v, &rec); err != nil {
			decodeErr = err
			return false
		}
		return fn(rec)
	})
	return decodeErr
}

// SnapshotAmounts returns every user row's amount together with the
// LSN of the last applied batch, as one consistent pair: all stripe
// read locks are held for the scan, so every batch with LSN <= the
// returned cursor is fully reflected in the map and no later batch is.
// The read plane bootstraps (and resynchronizes) from this.
func (e *Engine) SnapshotAmounts() (map[string]int64, uint64, error) {
	e.rlockAll()
	defer e.runlockAll()
	if e.closed {
		return nil, 0, ErrClosed
	}
	out := make(map[string]int64)
	var decodeErr error
	e.mergeScan("", func(k string, v []byte) bool {
		if len(k) >= len(MetaPrefix) && k[:len(MetaPrefix)] == MetaPrefix {
			return true
		}
		var rec Record
		if err := decodeValue(k, v, &rec); err != nil {
			decodeErr = err
			return false
		}
		out[k] = rec.Amount
		return true
	})
	if decodeErr != nil {
		return nil, 0, decodeErr
	}
	return out, e.lastLSN.Load(), nil
}

// Apply validates and applies a batch of mutations atomically: either
// every op is applied (and logged as one WAL record) or none is. It is
// the single write entry point — Put/Delete/ApplyDelta are conveniences
// over it.
//
// Only the stripes the batch touches are locked, so batches over
// disjoint key sets run concurrently. The WAL append happens while the
// stripe locks are held: any two conflicting batches share a stripe and
// therefore serialize, so replay order always matches apply order for
// ops that do not commute. The fsync wait happens *after* the stripe
// locks are released — concurrent commits share one group-commit fsync
// instead of holding their stripes through it — and Apply returns only
// once its WAL record is durable (so a commit acknowledgement never
// escapes the site for a batch a crash could lose). With epoch commit
// on, the wait rides the open epoch's boundary instead: same record,
// same order, same durable-before-ack guarantee, one covering fsync per
// epoch instead of one group commit per batch. Apply is ApplyAsync
// followed by its wait.
func (e *Engine) Apply(ops ...Op) error {
	wait, err := e.ApplyAsync(ops...)
	if err != nil {
		return err
	}
	return wait()
}

// applied reports a no-op durability wait, shared by every ApplyAsync
// call that has nothing to wait for.
func applied() error { return nil }

// ApplyAsync applies a batch exactly as Apply does but returns before
// the durability wait: the batch is validated, logged, and visible in
// the table, and the returned wait function blocks until its WAL record
// is durable (riding the open epoch's boundary when epoch commit is
// on). This is the pipelined commit path — a caller can keep applying
// batches into epoch N+1 while epoch N's covering fsync drains, as long
// as it withholds every acknowledgement until the matching wait
// returns. For in-memory engines the wait is an immediate no-op.
func (e *Engine) ApplyAsync(ops ...Op) (wait func() error, err error) {
	if len(ops) == 0 {
		return applied, nil
	}
	lsn, err := e.applyBatch(ops)
	if err != nil {
		return nil, err
	}
	if e.log == nil || lsn == 0 {
		return applied, nil
	}
	if e.epochs != nil {
		t, err := e.epochs.Enqueue(lsn)
		if err != nil {
			return nil, err
		}
		return func() error {
			_, err := t.Wait()
			return err
		}, nil
	}
	return func() error { return e.log.SyncTo(lsn) }, nil
}

// applyBatch validates, logs, and applies one batch under its stripe
// locks, returning the batch's WAL LSN (0 when the engine is
// in-memory). Durability is the caller's job.
func (e *Engine) applyBatch(ops []Op) (uint64, error) {
	idx := stripesFor(ops)
	e.lockStripes(idx)
	defer e.unlockStripes(idx)
	if e.closed {
		return 0, ErrClosed
	}
	// Validate first so failures leave no partial state. A batch may
	// legitimately put a row and then delta it, so track keys the batch
	// itself creates or deletes.
	created := map[string]bool{}
	deleted := map[string]bool{}
	for i := range ops {
		op := &ops[i]
		switch op.Kind {
		case OpPut:
			if op.Key == "" {
				return 0, fmt.Errorf("storage: empty key in put")
			}
			if len(op.Key) >= len(MetaPrefix) && op.Key[:len(MetaPrefix)] == MetaPrefix {
				return 0, fmt.Errorf("storage: user key %q collides with the metadata namespace", op.Key)
			}
			created[op.Key] = true
			delete(deleted, op.Key)
		case OpDelete:
			deleted[op.Key] = true
			delete(created, op.Key)
		case OpDelta:
			if deleted[op.Key] {
				return 0, fmt.Errorf("storage: delta to key %q deleted earlier in batch: %w", op.Key, ErrNotFound)
			}
			if created[op.Key] {
				continue
			}
			if _, ok := e.stripes[stripeOf(op.Key)].mem.Get(op.Key); !ok {
				return 0, fmt.Errorf("storage: delta to %q: %w", op.Key, ErrNotFound)
			}
		case OpMetaPut, OpMetaDelete:
			if op.Key == "" {
				return 0, fmt.Errorf("storage: empty meta key")
			}
		default:
			return 0, fmt.Errorf("storage: unknown op kind %d", op.Kind)
		}
	}
	var lsn uint64
	if e.log != nil {
		var err error
		lsn, err = e.log.Append(encodeBatch(ops))
		if err != nil {
			return 0, err
		}
		// Batches on disjoint stripes race here; keep the max (a batch
		// never observes a lastLSN below its own once it completes).
		for {
			cur := e.lastLSN.Load()
			if lsn <= cur || e.lastLSN.CompareAndSwap(cur, lsn) {
				break
			}
		}
	} else {
		lsn = e.lastLSN.Add(1)
	}
	e.applyOps(ops)
	if e.observer != nil {
		e.observer(lsn, ops)
	}
	return lsn, nil
}

// applyOps applies pre-validated ops. The caller holds the write locks
// of every involved stripe (or has exclusive access during recovery).
func (e *Engine) applyOps(ops []Op) {
	for i := range ops {
		op := &ops[i]
		s := &e.stripes[stripeOf(storageKey(op))]
		switch op.Kind {
		case OpPut:
			rec := op.Rec
			rec.Key = op.Key
			s.mem.Put(op.Key, encodeValue(&rec))
		case OpDelete:
			s.mem.Delete(op.Key)
		case OpDelta:
			v, ok := s.mem.Get(op.Key)
			if !ok {
				// Replay may delta rows that a later snapshot-era op
				// created; in live operation validation prevents this.
				continue
			}
			var rec Record
			if decodeValue(op.Key, v, &rec) != nil {
				continue
			}
			rec.Amount += op.Delta
			s.mem.Put(op.Key, encodeValue(&rec))
		case OpMetaPut:
			if !s.mem.Put(MetaPrefix+op.Key, append([]byte(nil), op.Value...)) {
				s.metaCount++
			}
		case OpMetaDelete:
			if s.mem.Delete(MetaPrefix + op.Key) {
				s.metaCount--
			}
		}
	}
}

// GetMeta returns the raw metadata value stored under key.
func (e *Engine) GetMeta(key string) ([]byte, bool, error) {
	full := MetaPrefix + key
	s := &e.stripes[stripeOf(full)]
	s.mu.RLock()
	defer s.mu.RUnlock()
	if e.closed {
		return nil, false, ErrClosed
	}
	v, ok := s.mem.Get(full)
	if !ok {
		return nil, false, nil
	}
	return append([]byte(nil), v...), true, nil
}

// ScanMeta calls fn for every metadata entry whose key starts with
// prefix, in key order, until fn returns false.
func (e *Engine) ScanMeta(prefix string, fn func(key string, value []byte) bool) error {
	e.rlockAll()
	defer e.runlockAll()
	if e.closed {
		return ErrClosed
	}
	from := MetaPrefix + prefix
	e.mergeScan(from, func(k string, v []byte) bool {
		if len(k) < len(from) || k[:len(from)] != from {
			return false // left the prefix range (meta sorts contiguously)
		}
		return fn(k[len(MetaPrefix):], v)
	})
	return nil
}

// Put inserts or replaces a record.
func (e *Engine) Put(rec Record) error { return e.Apply(PutOp(rec)) }

// Delete removes a record (no error if absent).
func (e *Engine) Delete(key string) error { return e.Apply(DeleteOp(key)) }

// ApplyDelta adds delta to key's Amount and returns the new amount.
func (e *Engine) ApplyDelta(key string, delta int64) (int64, error) {
	if err := e.Apply(DeltaOp(key, delta)); err != nil {
		return 0, err
	}
	return e.Amount(key)
}

// Sync forces the WAL to stable storage.
func (e *Engine) Sync() error {
	s := &e.stripes[0]
	s.mu.RLock()
	defer s.mu.RUnlock()
	if e.closed {
		return ErrClosed
	}
	if e.log == nil {
		return nil
	}
	return e.log.Sync()
}

// Checkpoint writes a snapshot of the current table and truncates the
// WAL below it. The snapshot records its LSN boundary and recovery
// replays only records above it, so non-idempotent ops (deltas) are
// never applied twice. The snapshot is written to a temp file and
// renamed, so a crash during Checkpoint leaves a consistent pair.
func (e *Engine) Checkpoint() error {
	e.lockAll()
	defer e.unlockAll()
	if e.closed {
		return ErrClosed
	}
	if e.log == nil {
		return nil
	}
	boundary := e.log.NextLSN() - 1 // everything <= boundary is in the snapshot
	// Group commit buffers appends: force everything the snapshot covers
	// to disk before truncation can drop the segments holding it. SyncTo
	// never takes stripe locks, so calling it under lockAll is safe.
	if err := e.log.SyncTo(boundary); err != nil {
		return err
	}
	if err := e.writeSnapshotLocked(boundary); err != nil {
		return err
	}
	return e.log.TruncateBefore(boundary + 1)
}

// writeSnapshotLocked dumps the table to disk atomically (temp +
// rename). The caller holds every stripe lock.
func (e *Engine) writeSnapshotLocked(boundaryLSN uint64) error {
	total := 0
	for i := range e.stripes {
		total += e.stripes[i].mem.Len()
	}
	var body []byte
	body = binary.LittleEndian.AppendUint64(body, boundaryLSN)
	body = binary.AppendUvarint(body, uint64(total))
	e.mergeScan("", func(k string, v []byte) bool {
		body = binary.AppendUvarint(body, uint64(len(k)))
		body = append(body, k...)
		body = binary.AppendUvarint(body, uint64(len(v)))
		body = append(body, v...)
		return true
	})
	out := make([]byte, 0, len(snapMagic)+4+len(body))
	out = append(out, snapMagic...)
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(body))
	out = append(out, body...)
	tmp := filepath.Join(e.opts.Dir, snapshotTmp)
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	if _, err := f.Write(out); err != nil {
		f.Close()
		return fmt.Errorf("storage: %w", err)
	}
	// The snapshot replaces truncated WAL segments; make it stable
	// before the rename promotes it.
	if !e.opts.NoSync {
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("storage: %w", err)
		}
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	return os.Rename(tmp, filepath.Join(e.opts.Dir, snapshotName))
}

// loadSnapshot loads the snapshot if present, returning its boundary LSN
// (0 when there is no snapshot). Runs before any concurrency exists.
func (e *Engine) loadSnapshot() (uint64, error) {
	data, err := os.ReadFile(filepath.Join(e.opts.Dir, snapshotName))
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("storage: %w", err)
	}
	if len(data) < len(snapMagic)+4 || string(data[:len(snapMagic)]) != snapMagic {
		return 0, fmt.Errorf("%w: bad snapshot header", ErrCorrupt)
	}
	sum := binary.LittleEndian.Uint32(data[len(snapMagic):])
	body := data[len(snapMagic)+4:]
	if crc32.ChecksumIEEE(body) != sum {
		return 0, fmt.Errorf("%w: snapshot checksum mismatch", ErrCorrupt)
	}
	if len(body) < 8 {
		return 0, fmt.Errorf("%w: snapshot too short", ErrCorrupt)
	}
	boundary := binary.LittleEndian.Uint64(body)
	body = body[8:]
	count, n := binary.Uvarint(body)
	if n <= 0 {
		return 0, fmt.Errorf("%w: snapshot count", ErrCorrupt)
	}
	body = body[n:]
	for i := uint64(0); i < count; i++ {
		kLen, n := binary.Uvarint(body)
		if n <= 0 || kLen > uint64(len(body)-n) {
			return 0, fmt.Errorf("%w: snapshot key", ErrCorrupt)
		}
		key := string(body[n : n+int(kLen)])
		body = body[n+int(kLen):]
		vLen, n := binary.Uvarint(body)
		if n <= 0 || vLen > uint64(len(body)-n) {
			return 0, fmt.Errorf("%w: snapshot value", ErrCorrupt)
		}
		val := append([]byte(nil), body[n:n+int(vLen)]...)
		body = body[n+int(vLen):]
		s := &e.stripes[stripeOf(key)]
		if !s.mem.Put(key, val) &&
			len(key) >= len(MetaPrefix) && key[:len(MetaPrefix)] == MetaPrefix {
			s.metaCount++
		}
	}
	return boundary, nil
}

// Close syncs and closes the engine.
func (e *Engine) Close() error {
	e.lockAll()
	defer e.unlockAll()
	if e.closed {
		return nil
	}
	e.closed = true
	var err error
	if e.epochs != nil {
		// Flush the open epoch (releasing any committers still waiting on
		// its boundary) before the log goes away underneath it.
		err = e.epochs.Close()
	}
	if e.log != nil {
		if cerr := e.log.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
