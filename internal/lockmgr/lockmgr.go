// Package lockmgr provides the exclusive lock manager used for strict
// two-phase locking in each site's local database and by the
// Immediate-Update (primary-copy 2PC) participants.
//
// Every update in the paper touches one datum, so the rule here is that
// a lock owner holds at most one key, exclusively: Acquire of a second
// key by an owner that already holds one returns ErrSecondKey instead of
// waiting. A waiter therefore never holds anything, no waits-for cycle
// can form, and the manager needs no deadlock detector; a wait is
// bounded only by its timeout. Locks are granted in FIFO order to
// prevent starvation.
//
// The lock table is hash-partitioned into shards, each with its own
// mutex, so transactions locking unrelated keys never contend on one
// global mutex. Which key each owner holds lives in a second set of
// shards, partitioned by TxnID; a held-set mutex is a leaf (it may be
// taken under a shard mutex, never the other way round), so the manager
// itself cannot deadlock.
package lockmgr

import (
	"context"
	"errors"
	"sync"
	"time"
)

// Mode is a lock mode. Exclusive is the only one; Acquire keeps the
// argument so callers written against a mode-taking API (the bench
// layer probe) compile unchanged.
type Mode int

// Exclusive is the one lock mode.
const Exclusive Mode = 1

// TxnID identifies a lock owner (a transaction). An owner is driven by
// one goroutine at a time.
type TxnID uint64

// Lock manager errors.
var (
	ErrTimeout   = errors.New("lockmgr: lock wait timed out")
	ErrSecondKey = errors.New("lockmgr: owner already holds another key")
)

// Options configure a Manager.
type Options struct {
	// WaitTimeout bounds how long Acquire blocks when the caller's
	// context has no deadline (default 5s).
	WaitTimeout time.Duration
}

// numShards partitions the lock table; a power of two so the shard
// index is a mask.
const numShards = 64

// shardOf hashes a key (FNV-1a) to its shard index.
func shardOf(key string) int {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return int(h & (numShards - 1))
}

// shard is one partition of the lock table: a key has a lockState
// exactly while someone holds it. free is a one-slot lockState recycler
// so the common lock/release churn of a key does not allocate a fresh
// state every transaction.
type shard struct {
	mu    sync.Mutex
	locks map[string]*lockState
	free  *lockState
}

// heldShard is one partition of the owner -> held key set.
type heldShard struct {
	mu   sync.Mutex
	held map[TxnID]string
}

// Manager is a lock table. It is safe for concurrent use.
type Manager struct {
	opts       Options
	shards     [numShards]shard
	heldShards [numShards]heldShard
}

type lockState struct {
	holder TxnID
	queue  []*waiter
}

type waiter struct {
	txn   TxnID
	ready chan struct{} // closed when granted, under the shard mutex
}

// New creates a Manager.
func New(opts Options) *Manager {
	if opts.WaitTimeout <= 0 {
		opts.WaitTimeout = 5 * time.Second
	}
	m := &Manager{opts: opts}
	for i := range m.shards {
		m.shards[i].locks = make(map[string]*lockState)
		m.heldShards[i].held = make(map[TxnID]string)
	}
	return m
}

// heldShardOf returns the held-set partition for txn.
func (m *Manager) heldShardOf(txn TxnID) *heldShard {
	return &m.heldShards[uint64(txn)&(numShards-1)]
}

// Acquire obtains key exclusively for txn, blocking behind earlier
// requests if necessary. It returns nil on success (at once if txn
// already holds key), ErrSecondKey if txn holds a different key,
// ErrTimeout if the wait exceeded the deadline, or the context's error.
func (m *Manager) Acquire(ctx context.Context, txn TxnID, key string, _ Mode) error {
	hs := m.heldShardOf(txn)
	hs.mu.Lock()
	cur, holds := hs.held[txn]
	hs.mu.Unlock()
	if holds {
		if cur == key {
			return nil
		}
		return ErrSecondKey
	}

	sh := &m.shards[shardOf(key)]
	sh.mu.Lock()
	ls := sh.locks[key]
	if ls == nil {
		if ls = sh.free; ls != nil {
			sh.free = nil
		} else {
			ls = &lockState{}
		}
		sh.locks[key] = ls
		m.grantLocked(ls, txn, key)
		sh.mu.Unlock()
		return nil
	}
	w := &waiter{txn: txn, ready: make(chan struct{})}
	ls.queue = append(ls.queue, w)
	sh.mu.Unlock()

	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, m.opts.WaitTimeout)
		defer cancel()
	}
	select {
	case <-w.ready:
		return nil
	case <-ctx.Done():
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	select {
	case <-w.ready:
		// Granted in the race window; the caller gets the lock after all
		// (strict 2PL will release it with the rest).
		return nil
	default:
	}
	// The key is held while anyone queues for it, so withdrawing w leaves
	// no grant to hand on.
	for i, q := range ls.queue {
		if q == w {
			ls.queue = append(ls.queue[:i], ls.queue[i+1:]...)
			break
		}
	}
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		return ErrTimeout
	}
	return ctx.Err()
}

// grantLocked makes txn the holder of key. Caller holds the key's shard
// mutex.
func (m *Manager) grantLocked(ls *lockState, txn TxnID, key string) {
	ls.holder = txn
	hs := m.heldShardOf(txn)
	hs.mu.Lock()
	hs.held[txn] = key
	hs.mu.Unlock()
}

// ReleaseAll drops the lock txn holds, if any, and hands it to the
// oldest waiter — the strict-2PL release at commit or abort.
func (m *Manager) ReleaseAll(txn TxnID) {
	hs := m.heldShardOf(txn)
	hs.mu.Lock()
	key, holds := hs.held[txn]
	delete(hs.held, txn)
	hs.mu.Unlock()
	if !holds {
		return
	}
	sh := &m.shards[shardOf(key)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ls := sh.locks[key]
	if ls == nil || ls.holder != txn {
		return
	}
	if len(ls.queue) == 0 {
		delete(sh.locks, key)
		sh.free = ls
		return
	}
	w := ls.queue[0]
	ls.queue = ls.queue[1:]
	m.grantLocked(ls, w.txn, key)
	close(w.ready)
}
