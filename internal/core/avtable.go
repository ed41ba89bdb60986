package core

import (
	"avdb/internal/av"
	"avdb/internal/txn"
)

// AVTable is the accelerator's view of an Allowable Volume table. The
// canonical implementation is av.Table (volatile); avstore.Store keeps
// its balances, escrows and obligations as rows of the site's storage
// engine, so a site's AV survives restarts in the same WAL as the stock
// without breaking the global conservation argument (it may only
// *under*-count after a crash, never over-count — lost slack is safe,
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
	// returns how many were taken.
	Debit(key string, n int64) (int64, error)
	// EscrowDebit removes up to n available units for the outbound
	// transfer identified by xfer, parking them in escrow until the
	// transfer settles (units destroyed here, credited remotely) or
	// cancels (units refunded to available). Duplicate calls for a known
	// xfer return the originally escrowed amount; calls for an already
	// resolved xfer return 0.
	EscrowDebit(key string, xfer uint64, n int64) (int64, error)
	// ResolveEscrow finishes the transfer: refund=true returns the units
	// to available (cancel), refund=false destroys them (settle). It
	// returns the escrowed amount, or 0 for an unknown xfer.
	ResolveEscrow(xfer uint64, refund bool) (int64, error)
	// Escrowed returns the volume currently parked in escrow for key.
	Escrowed(key string) int64
	// AddObligation records a requester-side promise to settle or cancel
	// an inbound escrowed transfer; CompleteObligation discharges it;
	// Obligations lists the outstanding ones. Recorded *before* their
	// effects so a restarted site re-drives unfinished transfers.
	AddObligation(ob av.Obligation) error
	CompleteObligation(xfer uint64) error
	Obligations() []av.Obligation
	// Keys lists defined keys; Snapshot maps key -> available volume.
	Keys() []string
	Snapshot() map[string]int64
}
