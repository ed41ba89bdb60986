// Package txn provides strict two-phase-locking transactions over a
// site's storage engine. A transaction buffers its writes and applies
// them as one atomic storage batch at commit; abort simply discards the
// buffer. A transaction changes one datum, as every update in the paper
// does: it locks that key exclusively on its first delta and releases
// it only at commit or abort (strict 2PL), which is what the
// Immediate-Update participants need to hold a prepared update across
// the two message phases.
package txn

import (
	"context"
	"errors"
	"fmt"
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

// Begin starts a transaction.
func (m *Manager) Begin() *Txn {
	return &Txn{
		id: lockmgr.TxnID(m.next.Add(1)),
		m:  m,
	}
}

// Txn is a single transaction. A Txn is not safe for concurrent use by
// multiple goroutines (like database handles everywhere); concurrency
// comes from running many transactions.
//
// A transaction locks at most one key (the lock manager refuses a
// second), so its pending effect on data is one buffered delta to that
// key.
type Txn struct {
	id     lockmgr.TxnID
	m      *Manager
	writes []storage.Op
	delta  int64
	done   bool
	// balanced is 1 + the index in writes of the unlogged delta that
	// also carries its key's AV balance change (BalanceDelta); 0 if none.
	balanced int
}

// ID returns the transaction's lock-owner identity.
func (t *Txn) ID() lockmgr.TxnID { return t.id }

// ApplyDelta buffers an addition to key's Amount under an exclusive lock
// and returns the amount as it will be after commit. The key must exist
// in storage; a transaction that already locked another key gets
// lockmgr.ErrSecondKey.
func (t *Txn) ApplyDelta(ctx context.Context, key string, delta int64) (int64, error) {
	if t.done {
		return 0, ErrDone
	}
	if err := t.m.locks.Acquire(ctx, t.id, key, lockmgr.Exclusive); err != nil {
		return 0, err
	}
	cur, err := t.m.eng.Amount(key)
	if err != nil {
		return 0, err
	}
	t.writes = append(t.writes, storage.DeltaOp(key, delta))
	t.delta += delta
	return cur + t.delta, nil
}

// AddMeta buffers an addition to a varint metadata row (see
// storage.MetaAddOp), such as an AV table balance. Metadata rows take
// no locks — their writers serialize among themselves — but they commit
// atomically with the transaction's data writes, which is the point: an
// AV change and the stock delta it accounts for land in one batch.
func (t *Txn) AddMeta(key string, delta int64) error {
	if t.done {
		return ErrDone
	}
	t.writes = append(t.writes, storage.MetaAddOp(key, delta))
	return nil
}

// LogDelta makes the transaction's last buffered delta of delta to key
// outbound replication entry seq (storage.OpLoggedDelta, or
// storage.OpBalancedDelta if BalanceDelta marked it), so the entry's log
// row commits in the same op as the data it describes.
func (t *Txn) LogDelta(key string, delta int64, seq uint64) error {
	if t.done {
		return ErrDone
	}
	for i := len(t.writes) - 1; i >= 0; i-- {
		if w := &t.writes[i]; w.Kind == storage.OpDelta && w.Key == key && w.Delta == delta {
			if t.balanced == i+1 {
				*w, t.balanced = storage.BalancedDeltaOp(key, delta, seq), 0
			} else {
				*w = storage.LoggedDeltaOp(key, delta, seq)
			}
			return nil
		}
	}
	return fmt.Errorf("txn: no buffered delta of %d to %q to log", delta, key)
}

// BalanceDelta makes the transaction's last buffered delta of delta to
// key carry the same change of key's AV balance row
// (storage.BalanceKey), so one op commits both: storage.OpBalancedDelta
// once LogDelta logs it; a commit without LogDelta writes the delta and
// an OpMetaAdd of the row. It reports whether it did: a finished
// transaction, a delta never buffered, or a second call (one unlogged
// delta per transaction carries the change) is refused, and the caller
// stages the change with AddMeta instead.
func (t *Txn) BalanceDelta(key string, delta int64) bool {
	if t.done || t.balanced != 0 {
		return false
	}
	for i := len(t.writes) - 1; i >= 0; i-- {
		if w := &t.writes[i]; w.Kind == storage.OpDelta && w.Key == key && w.Delta == delta {
			t.balanced = i + 1
			return true
		}
	}
	return false
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
	if t.balanced != 0 {
		w := &t.writes[t.balanced-1]
		t.writes = append(t.writes, storage.MetaAddOp(storage.BalanceKey(w.Key), w.Delta))
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
