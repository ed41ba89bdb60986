// Package txn provides strict two-phase-locking transactions over a
// site's storage engine. A transaction buffers its writes and applies
// them as one atomic storage batch at commit; abort simply discards the
// buffer. Locks are acquired as operations are issued (growing phase)
// and released only at commit or abort (strict 2PL), which is what the
// Immediate-Update participants need to hold a prepared update across
// the two message phases.
package txn

import (
	"context"
	"errors"
	"sync/atomic"

	"avdb/internal/lockmgr"
	"avdb/internal/storage"
)

// Transaction errors.
var (
	ErrDone = errors.New("txn: transaction already committed or aborted")
)

// Manager creates transactions bound to one engine and one lock table.
type Manager struct {
	eng   *storage.Engine
	locks *lockmgr.Manager
	next  atomic.Uint64
}

// NewManager builds a Manager over eng with its own lock table.
func NewManager(eng *storage.Engine, lockOpts lockmgr.Options) *Manager {
	return &Manager{eng: eng, locks: lockmgr.New(lockOpts)}
}

// Engine exposes the underlying engine (for non-transactional reads such
// as replica maintenance, which tolerates them by design).
func (m *Manager) Engine() *storage.Engine { return m.eng }

// Locks exposes the lock manager (shared with 2PC participants so their
// prepared locks conflict with local transactions).
func (m *Manager) Locks() *lockmgr.Manager { return m.locks }

// Begin starts a transaction.
func (m *Manager) Begin() *Txn {
	return &Txn{
		id: lockmgr.TxnID(m.next.Add(1)),
		m:  m,
	}
}

// pendingKey accumulates a transaction's buffered effect on one key.
type pendingKey struct {
	key     string
	hasPut  bool
	rec     storage.Record
	deleted bool
	delta   int64
}

// Txn is a single transaction. A Txn is not safe for concurrent use by
// multiple goroutines (like database handles everywhere); concurrency
// comes from running many transactions.
//
// The pending buffer is a small slice scanned linearly: transactions
// touch a handful of keys, and the slice keeps Begin allocation-free
// where a map would cost an allocation per transaction on the
// zero-communication fast path.
type Txn struct {
	id      lockmgr.TxnID
	m       *Manager
	writes  []storage.Op
	pending []pendingKey
	done    bool
}

// ID returns the transaction's lock-owner identity.
func (t *Txn) ID() lockmgr.TxnID { return t.id }

// Get returns key's record as this transaction sees it (its own buffered
// writes overlay the stored state). It takes a shared lock.
func (t *Txn) Get(ctx context.Context, key string) (storage.Record, error) {
	if t.done {
		return storage.Record{}, ErrDone
	}
	if err := t.m.locks.Acquire(ctx, t.id, key, lockmgr.Shared); err != nil {
		return storage.Record{}, err
	}
	return t.view(key)
}

// find returns the pending entry for key, nil if none. The pointer is
// valid only until the next append to t.pending.
func (t *Txn) find(key string) *pendingKey {
	for i := range t.pending {
		if t.pending[i].key == key {
			return &t.pending[i]
		}
	}
	return nil
}

// view merges stored state with the pending buffer for key.
func (t *Txn) view(key string) (storage.Record, error) {
	p := t.find(key)
	if p != nil && p.deleted {
		return storage.Record{}, storage.ErrNotFound
	}
	var rec storage.Record
	if p != nil && p.hasPut {
		rec = p.rec
	} else {
		var err error
		rec, err = t.m.eng.Get(key)
		if err != nil {
			return storage.Record{}, err
		}
	}
	if p != nil {
		rec.Amount += p.delta
	}
	return rec, nil
}

// ensure returns (creating) the pending entry for key. The pointer is
// valid only until the next append to t.pending.
func (t *Txn) ensure(key string) *pendingKey {
	if p := t.find(key); p != nil {
		return p
	}
	t.pending = append(t.pending, pendingKey{key: key})
	return &t.pending[len(t.pending)-1]
}

// Put buffers an insert/replace of rec under an exclusive lock.
func (t *Txn) Put(ctx context.Context, rec storage.Record) error {
	if t.done {
		return ErrDone
	}
	if err := t.m.locks.Acquire(ctx, t.id, rec.Key, lockmgr.Exclusive); err != nil {
		return err
	}
	t.writes = append(t.writes, storage.PutOp(rec))
	p := t.ensure(rec.Key)
	p.hasPut, p.rec, p.deleted, p.delta = true, rec, false, 0
	return nil
}

// Delete buffers removal of key under an exclusive lock.
func (t *Txn) Delete(ctx context.Context, key string) error {
	if t.done {
		return ErrDone
	}
	if err := t.m.locks.Acquire(ctx, t.id, key, lockmgr.Exclusive); err != nil {
		return err
	}
	t.writes = append(t.writes, storage.DeleteOp(key))
	p := t.ensure(key)
	p.hasPut, p.deleted, p.delta = false, true, 0
	return nil
}

// ApplyDelta buffers an addition to key's Amount under an exclusive lock
// and returns the amount as it will be after commit. The key must exist
// (in storage or earlier in this transaction).
func (t *Txn) ApplyDelta(ctx context.Context, key string, delta int64) (int64, error) {
	if t.done {
		return 0, ErrDone
	}
	if err := t.m.locks.Acquire(ctx, t.id, key, lockmgr.Exclusive); err != nil {
		return 0, err
	}
	cur, err := t.view(key)
	if err != nil {
		return 0, err
	}
	t.writes = append(t.writes, storage.DeltaOp(key, delta))
	t.ensure(key).delta += delta
	return cur.Amount + delta, nil
}

// PutMeta buffers a metadata write (see storage.MetaPrefix). Metadata
// rows are internal bookkeeping (replication logs and watermarks); they
// take no locks — their writers serialize among themselves — but they
// commit atomically with the transaction's data writes, which is the
// point: a replicated delta and its log/watermark row land together.
func (t *Txn) PutMeta(key string, value []byte) error {
	if t.done {
		return ErrDone
	}
	t.writes = append(t.writes, storage.MetaPutOp(key, value))
	return nil
}

// DeleteMeta buffers a metadata deletion.
func (t *Txn) DeleteMeta(key string) error {
	if t.done {
		return ErrDone
	}
	t.writes = append(t.writes, storage.MetaDeleteOp(key))
	return nil
}

// Commit atomically applies the buffered writes and releases all locks.
func (t *Txn) Commit() error {
	if t.done {
		return ErrDone
	}
	t.done = true
	defer t.m.locks.ReleaseAll(t.id)
	if len(t.writes) == 0 {
		return nil
	}
	return t.m.eng.Apply(t.writes...)
}

// Abort discards the buffered writes and releases all locks. Abort on a
// finished transaction is a no-op, so `defer tx.Abort()` is safe.
func (t *Txn) Abort() {
	if t.done {
		return
	}
	t.done = true
	t.m.locks.ReleaseAll(t.id)
}
