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
	"sort"
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

// maxResolvedXfers bounds the tombstone set remembering resolved
// transfer IDs (so a late duplicate request can't re-create escrow).
const maxResolvedXfers = 4096

// Table is one site's AV management table. It is safe for concurrent use.
type Table struct {
	shards [numShards]tableShard

	// Escrowed outbound transfers, keyed by transfer ID. Guarded by its
	// own lock; lock order is xmu before a shard lock, never the reverse.
	xmu           sync.Mutex
	xfers         map[uint64]escrowRec
	resolved      map[uint64]bool // tombstones of settled/canceled xfers
	resolvedOrder []uint64        // FIFO for tombstone eviction
	obls          map[uint64]Obligation
}

type escrowRec struct {
	key string
	n   int64
}

type tableShard struct {
	mu      sync.Mutex
	entries map[string]*entry
}

type entry struct {
	avail  int64 // free allowable volume
	held   int64 // reserved by in-flight updates
	escrow int64 // debited for a transfer but not yet settled/canceled
}

// NewTable creates an empty table.
func NewTable() *Table {
	t := &Table{
		xfers:    make(map[uint64]escrowRec),
		resolved: make(map[uint64]bool),
		obls:     make(map[uint64]Obligation),
	}
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

// Total returns avail + held + escrow: every unit of global slack this
// site is accountable for. Escrowed units still count against the site
// until the requester settles the transfer, which is what keeps the
// cluster-wide conservation sum exact while transfers are in flight.
func (t *Table) Total(key string) int64 {
	s := t.shard(key)
	defer s.mu.Unlock()
	if e := s.entries[key]; e != nil {
		return e.avail + e.held + e.escrow
	}
	return 0
}

// Escrowed returns the volume parked in unresolved outbound transfers
// of key.
func (t *Table) Escrowed(key string) int64 {
	s := t.shard(key)
	defer s.mu.Unlock()
	if e := s.entries[key]; e != nil {
		return e.escrow
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

// EscrowDebit removes up to n available units for the outbound
// transfer identified by xfer and parks them in escrow instead of
// handing them over unconditionally. The units leave avail but stay in
// this site's Total until ResolveEscrow settles (destroys) or cancels
// (refunds) them, so a lost grant reply can never make AV vanish — it
// strands slack, which the requester-driven settle protocol reclaims.
//
// EscrowDebit is idempotent on xfer: a duplicate request for a known
// transfer returns the originally escrowed amount without debiting
// again, and a request for an already-resolved transfer returns 0 (the
// tombstone blocks late duplicates from minting fresh escrow).
func (t *Table) EscrowDebit(key string, xfer uint64, n int64) (int64, error) {
	if n < 0 {
		return 0, ErrNegative
	}
	if xfer == 0 {
		return 0, fmt.Errorf("av: zero transfer id")
	}
	t.xmu.Lock()
	defer t.xmu.Unlock()
	if rec, ok := t.xfers[xfer]; ok {
		return rec.n, nil
	}
	if t.resolved[xfer] {
		return 0, nil
	}
	s := t.shard(key)
	e := s.entries[key]
	if e == nil {
		s.mu.Unlock()
		return 0, ErrUndefined
	}
	take := n
	if e.avail < take {
		take = e.avail
	}
	e.avail -= take
	e.escrow += take
	s.mu.Unlock()
	if take > 0 {
		// A zero take leaves no ledger entry: the requester uses a fresh
		// transfer id per attempt, and resolving an unknown id is a no-op.
		t.xfers[xfer] = escrowRec{key: key, n: take}
	}
	return take, nil
}

// ResolveEscrow finishes the transfer identified by xfer. With refund
// false (settle) the escrowed units are destroyed — the requester
// credited them, so this site's share of the global slack shrinks by
// exactly what the requester's grew. With refund true (cancel) they
// return to avail. Resolving an unknown or already-resolved transfer
// returns (0, nil): settles and cancels may be retried and duplicated
// freely.
func (t *Table) ResolveEscrow(xfer uint64, refund bool) (int64, error) {
	t.xmu.Lock()
	defer t.xmu.Unlock()
	rec, ok := t.xfers[xfer]
	if !ok {
		return 0, nil
	}
	delete(t.xfers, xfer)
	t.tombstone(xfer)
	s := t.shard(rec.key)
	defer s.mu.Unlock()
	e := s.entries[rec.key]
	if e == nil || e.escrow < rec.n {
		return 0, fmt.Errorf("%w: resolve %d escrow %d", ErrOverspend, rec.n, t.escrowOf(e))
	}
	e.escrow -= rec.n
	if refund {
		e.avail += rec.n
	}
	return rec.n, nil
}

func (t *Table) escrowOf(e *entry) int64 {
	if e == nil {
		return 0
	}
	return e.escrow
}

// tombstone records a resolved xfer, evicting the oldest record when
// the set is full. Caller holds t.xmu.
func (t *Table) tombstone(xfer uint64) {
	if len(t.resolvedOrder) >= maxResolvedXfers {
		evict := t.resolvedOrder[0]
		t.resolvedOrder = t.resolvedOrder[1:]
		delete(t.resolved, evict)
	}
	t.resolved[xfer] = true
	t.resolvedOrder = append(t.resolvedOrder, xfer)
}

// PendingEscrow returns the unresolved transfer xfer; ok is false when
// the transfer is unknown or already resolved.
func (t *Table) PendingEscrow(xfer uint64) (esc Escrow, ok bool) {
	t.xmu.Lock()
	defer t.xmu.Unlock()
	rec, ok := t.xfers[xfer]
	return Escrow{Xfer: xfer, Key: rec.key, N: rec.n}, ok
}

// Escrow describes one unresolved outbound transfer.
type Escrow struct {
	Xfer uint64
	Key  string
	N    int64
}

// PendingEscrows returns the unresolved outbound transfers, ordered by
// transfer id, for restart recovery and invariant checks.
func (t *Table) PendingEscrows() []Escrow {
	t.xmu.Lock()
	defer t.xmu.Unlock()
	out := make([]Escrow, 0, len(t.xfers))
	for x, rec := range t.xfers {
		out = append(out, Escrow{Xfer: x, Key: rec.key, N: rec.n})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Xfer < out[j].Xfer })
	return out
}

// Obligation is a requester-side promise to finish an escrowed inbound
// transfer: Cancel=false settles (the units were credited locally, the
// granter must destroy its escrow), Cancel=true cancels (the request
// failed, the granter must refund). Obligations are recorded before
// their effects so that after a crash the requester re-drives the
// settle/cancel and the granter's escrow cannot strand double-counted.
type Obligation struct {
	Xfer   uint64
	Peer   uint32 // granter site
	Cancel bool
}

// AddObligation records ob, overwriting any previous record for the
// same transfer.
func (t *Table) AddObligation(ob Obligation) error {
	if ob.Xfer == 0 {
		return errors.New("av: zero obligation transfer id")
	}
	t.xmu.Lock()
	defer t.xmu.Unlock()
	t.obls[ob.Xfer] = ob
	return nil
}

// CompleteObligation discharges the obligation for xfer (no-op when
// unknown).
func (t *Table) CompleteObligation(xfer uint64) error {
	t.xmu.Lock()
	defer t.xmu.Unlock()
	delete(t.obls, xfer)
	return nil
}

// Obligations returns the outstanding obligations, ordered by transfer
// id so callers that iterate them (escrow reconciliation) behave
// deterministically.
func (t *Table) Obligations() []Obligation {
	t.xmu.Lock()
	defer t.xmu.Unlock()
	out := make([]Obligation, 0, len(t.obls))
	for _, ob := range t.obls {
		out = append(out, ob)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Xfer < out[j].Xfer })
	return out
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
