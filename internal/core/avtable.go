package core

import (
	"avdb/internal/av"
	"avdb/internal/txn"
)

// AVTable is the accelerator's view of an Allowable Volume table. The
// canonical implementation is av.Table (volatile); avstore.Store keeps
// its balances as rows of the site's storage engine, so a site's AV
// survives restarts in the same WAL as the stock without breaking the
// global conservation argument (it may only *under*-count after a
// crash or a lost grant reply, never over-count — lost slack is safe,
// minted slack is not).
//
// A Delay Update changes its key's balance in memory (Spend, Fund,
// CreditHeld, Release) and durably through Stage, which puts the
// balance change into the update's own transaction: the stock delta,
// the AV change and the replication entry commit as one storage batch,
// one WAL record, one durability wait.
type AVTable interface {
	// Define declares (or adds to) the AV for key; DefineAll does so for
	// many keys at once (one durable write on a durable table).
	Define(key string, initial int64) error
	DefineAll(defs ...av.Def) error
	// Defined reports whether key carries an AV (the checking function).
	Defined(key string) bool
	// Avail returns the free volume; Held the reserved volume; Total
	// their sum.
	Avail(key string) int64
	Held(key string) int64
	Total(key string) int64
	// AcquireUpTo reserves up to want units and returns how many.
	AcquireUpTo(key string, want int64) (int64, error)
	// Acquire reserves exactly n units or nothing.
	Acquire(key string, n int64) (bool, error)
	// CreditHeld adds transferred-in units directly to the reservation.
	CreditHeld(key string, n int64) error
	// Release moves n reserved units back to available (abort/surplus).
	Release(key string, n int64) error
	// Spend destroys n reserved units (the spend of a decrement).
	Spend(key string, n int64) error
	// Fund adds n fresh available units (an increment's slack).
	Fund(key string, n int64) error
	// Stage adds the durable change of key's balance by n to tx, so it
	// commits in tx's batch. It changes nothing in memory, and a volatile
	// table stages nothing. CreditHeld, Release, Spend and Fund in turn
	// write nothing: a decrement stages its spend net of the grants it
	// received, an increment its slack, and a grant an update does not
	// spend is staged in a transaction of its own before its release.
	Stage(tx *txn.Txn, key string, n int64)
	// Debit removes up to n available units for an outbound transfer and
	// returns how many were taken. The units are gone from this site
	// before the grant leaves it: a grant whose reply is lost is slack
	// lost, never volume minted.
	Debit(key string, n int64) (int64, error)
	// Keys lists defined keys; Snapshot maps key -> available volume.
	Keys() []string
	Snapshot() map[string]int64
}
