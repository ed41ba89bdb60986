// Package av implements the paper's central data structure: the
// Allowable Volume table. An AV is a site-local slice of the global
// slack of one numeric datum (a product's stock). A site may decrement
// the datum locally, with no communication, as long as it spends AV it
// holds; AV moves between sites through explicit transfers. Because
// every unit of AV is backed by a unit of real global stock and
// transfers only move units (never mint them), local autonomous updates
// can never drive the global value negative — this is the escrow
// argument behind the paper's "autonomous consistency".
//
// The table distinguishes *available* AV from *held* AV: an in-flight
// update reserves (holds) the volume it intends to spend, so concurrent
// updates at the same site share the remainder without exclusive locks
// (paper §3.3: "extra AV can be used by other process while one process
// accesses the same data"). Aborting releases the hold — the paper's
// compensating "opposite of update volume".
//
// The table is hash-striped: every operation touches exactly one key,
// so entries are partitioned across independently locked shards and
// concurrent Delay Updates to different keys never serialize here.
package av

import (
	"errors"
	"fmt"
	"sync"

	"avdb/internal/txn"
)

// AV table errors.
var (
	ErrUndefined = errors.New("av: no allowable volume defined for key")
	ErrOverspend = errors.New("av: attempt to spend or release more than held")
	ErrNegative  = errors.New("av: negative amount")
)

// numShards partitions the table; a power of two so the shard index is
// a mask.
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

// Table is one site's AV management table. It is safe for concurrent use.
type Table struct {
	shards [numShards]tableShard
}

type tableShard struct {
	mu      sync.Mutex
	entries map[string]*entry
}

type entry struct {
	avail int64 // free allowable volume
	held  int64 // reserved by in-flight updates
}

// NewTable creates an empty table.
func NewTable() *Table {
	t := &Table{}
	for i := range t.shards {
		t.shards[i].entries = make(map[string]*entry)
	}
	return t
}

// shard returns the locked shard for key; the caller must unlock it.
func (t *Table) shard(key string) *tableShard {
	s := &t.shards[shardOf(key)]
	s.mu.Lock()
	return s
}

// Define declares an AV for key with an initial available volume. It is
// the act that classifies the datum as a Delay-Update (regular) product:
// the accelerator's checking function routes keys with a defined AV to
// the Delay path. Defining an already-defined key adds to it.
func (t *Table) Define(key string, initial int64) error {
	if initial < 0 {
		return ErrNegative
	}
	s := t.shard(key)
	defer s.mu.Unlock()
	e := s.entries[key]
	if e == nil {
		e = &entry{}
		s.entries[key] = e
	}
	e.avail += initial
	return nil
}

// Def is one key's initial allowable volume, for DefineAll.
type Def struct {
	Key string
	N   int64
}

// DefineAll is Define over many keys; a negative volume rejects the
// whole set before any key is defined.
func (t *Table) DefineAll(defs ...Def) error {
	for _, d := range defs {
		if d.N < 0 {
			return ErrNegative
		}
	}
	for _, d := range defs {
		if err := t.Define(d.Key, d.N); err != nil {
			return err
		}
	}
	return nil
}

// Defined reports whether an AV exists for key — the checking function.
func (t *Table) Defined(key string) bool {
	s := t.shard(key)
	defer s.mu.Unlock()
	_, ok := s.entries[key]
	return ok
}

// Avail returns the free (unheld) volume for key, 0 if undefined.
func (t *Table) Avail(key string) int64 {
	s := t.shard(key)
	defer s.mu.Unlock()
	if e := s.entries[key]; e != nil {
		return e.avail
	}
	return 0
}

// Held returns the volume currently reserved by in-flight updates.
func (t *Table) Held(key string) int64 {
	s := t.shard(key)
	defer s.mu.Unlock()
	if e := s.entries[key]; e != nil {
		return e.held
	}
	return 0
}

// Total returns avail + held: every unit of global slack this site is
// accountable for.
func (t *Table) Total(key string) int64 {
	s := t.shard(key)
	defer s.mu.Unlock()
	if e := s.entries[key]; e != nil {
		return e.avail + e.held
	}
	return 0
}

// AcquireUpTo moves up to want units from available to held and returns
// how many were taken (possibly 0). This is the Delay path's first step:
// take what the local table has, then go shopping for the shortage.
func (t *Table) AcquireUpTo(key string, want int64) (int64, error) {
	if want < 0 {
		return 0, ErrNegative
	}
	s := t.shard(key)
	defer s.mu.Unlock()
	e := s.entries[key]
	if e == nil {
		return 0, ErrUndefined
	}
	take := want
	if e.avail < take {
		take = e.avail
	}
	e.avail -= take
	e.held += take
	return take, nil
}

// Acquire reserves exactly n units, or nothing: it returns false when
// fewer than n are available.
func (t *Table) Acquire(key string, n int64) (bool, error) {
	if n < 0 {
		return false, ErrNegative
	}
	s := t.shard(key)
	defer s.mu.Unlock()
	e := s.entries[key]
	if e == nil {
		return false, ErrUndefined
	}
	if e.avail < n {
		return false, nil
	}
	e.avail -= n
	e.held += n
	return true, nil
}

// CreditHeld adds n units received from a peer directly to the held
// reservation of an in-flight update (an AV grant the requester is about
// to spend).
func (t *Table) CreditHeld(key string, n int64) error {
	if n < 0 {
		return ErrNegative
	}
	s := t.shard(key)
	defer s.mu.Unlock()
	e := s.entries[key]
	if e == nil {
		return ErrUndefined
	}
	e.held += n
	return nil
}

// Release moves n units from held back to available — the abort path,
// or the return of surplus after an update completed.
func (t *Table) Release(key string, n int64) error {
	if n < 0 {
		return ErrNegative
	}
	s := t.shard(key)
	defer s.mu.Unlock()
	e := s.entries[key]
	if e == nil {
		return ErrUndefined
	}
	if e.held < n {
		return fmt.Errorf("%w: release %d held %d", ErrOverspend, n, e.held)
	}
	e.held -= n
	e.avail += n
	return nil
}

// Spend destroys n held units — the commit of a decrement update. The
// destroyed slack is exactly matched by the decrement of the datum, so
// global conservation is preserved.
func (t *Table) Spend(key string, n int64) error {
	if n < 0 {
		return ErrNegative
	}
	s := t.shard(key)
	defer s.mu.Unlock()
	e := s.entries[key]
	if e == nil {
		return ErrUndefined
	}
	if e.held < n {
		return fmt.Errorf("%w: spend %d held %d", ErrOverspend, n, e.held)
	}
	e.held -= n
	return nil
}

// Stage is the durable half of a balance change in the shape
// core.AVTable asks of durable tables: a volatile table has no balance
// row, so it stages nothing into tx.
func (t *Table) Stage(tx *txn.Txn, key string, n int64) {}

// Fund adds n fresh units of available volume — an increment update
// creating new slack, or an inbound AV transfer.
func (t *Table) Fund(key string, n int64) error {
	if n < 0 {
		return ErrNegative
	}
	s := t.shard(key)
	defer s.mu.Unlock()
	e := s.entries[key]
	if e == nil {
		return ErrUndefined
	}
	e.avail += n
	return nil
}

// Debit removes up to n available units for an outbound transfer and
// returns how many were actually taken. The grantor's deciding policy
// computes n; Debit enforces it cannot exceed what is free.
func (t *Table) Debit(key string, n int64) (int64, error) {
	if n < 0 {
		return 0, ErrNegative
	}
	s := t.shard(key)
	defer s.mu.Unlock()
	e := s.entries[key]
	if e == nil {
		return 0, ErrUndefined
	}
	take := n
	if e.avail < take {
		take = e.avail
	}
	e.avail -= take
	return take, nil
}

// Keys returns the defined keys (unordered).
func (t *Table) Keys() []string {
	var out []string
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		for k := range s.entries {
			out = append(out, k)
		}
		s.mu.Unlock()
	}
	return out
}

// Snapshot returns key -> available volume for gossip piggybacking.
// Shards are visited one at a time, so the view across keys may be
// slightly stale — gossip consumers tolerate staleness by design.
func (t *Table) Snapshot() map[string]int64 {
	out := make(map[string]int64)
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		for k, e := range s.entries {
			out[k] = e.avail
		}
		s.mu.Unlock()
	}
	return out
}
