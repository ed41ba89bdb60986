// Package avstore makes a site's Allowable Volume table survive
// restarts: AV is real purchasing power over the shared stock, so losing
// the table on crash would strand (or worse, double) slack.
//
// Store wraps av.Table and keeps its durable state as metadata rows of
// a storage engine — on a site, the engine that holds the stock, so the
// AV and the stock share one WAL, one LSN space and one checkpoint:
//
//	av/<key>  the balance (avail + held), a varint changed by
//	          storage.OpMetaAdd, or by the storage.OpBalancedDelta of
//	          a Delay Update whose balance change equals its stock delta
//	          (storage.BalanceKey names the row)
//
// Holds are volatile: an update that did not commit before a crash must
// not consume AV, so a restart counts its hold as available again. So
// are received grants until the update that gathered them commits: a
// crash before then loses them, as slack.
//
// Crash-safety discipline: an AV change is durable no later than its
// cause and its effect. A Delay Update's balance change — the spend net
// of the grants it received, or an increment's slack — is staged into
// the update's own transaction (Stage), so it is one WAL record with the
// stock delta (one op of it when the two are equal): every durable
// prefix of the one log holds both or neither, satisfies `AV <= stock`,
// and a crash can only lose slack, never mint it. A grant the update does not spend gets its balance row
// in a batch of its own before its hold is released, and a granter's
// debit is durable before the grant leaves the site: a grant lost on
// the way is slack lost, never volume minted.
package avstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"avdb/internal/av"
	"avdb/internal/storage"
	"avdb/internal/txn"
	"avdb/internal/wal"
)

// Row prefixes inside the engine's metadata namespace. The escrow and
// obligation prefixes are reserved: no key may balance under them, and
// a directory that holds such rows is refused (ErrEscrowLayout).
const (
	rowPrefix    = storage.BalancePrefix
	escrowPrefix = rowPrefix + "e/"
	obligPrefix  = rowPrefix + "o/"
)

// Store errors.
var (
	ErrCorrupt = errors.New("avstore: corrupt AV row")
	// ErrLegacyLayout refuses a directory written by the separate AV
	// journal this package used to keep. Opening it with the row layout
	// would find no AV, and a node that seeds missing AV would define it
	// again on top of the old journal's balances: minted volume.
	ErrLegacyLayout = errors.New("avstore: legacy AV journal or snapshot present")
	// ErrEscrowLayout refuses a directory holding the escrow or
	// obligation rows of the escrowed transfer protocol avdb used to
	// offer. An escrow's units are still inside its granter's balance
	// row while the requester already holds them, so loading the balance
	// alone would make them available twice: minted volume.
	ErrEscrowLayout = errors.New("avstore: escrowed-transfer rows present")
)

// Options configure a Store.
type Options struct {
	// Engine holds the AV rows. A site passes its own engine, so AV and
	// stock share one WAL. Nil opens a private engine in Open's dir.
	Engine *storage.Engine
	// NoSync and Stats configure the private engine (see
	// storage.Options); they are ignored when Engine is set.
	NoSync bool
	Stats  *wal.Stats
}

// Store is a durable AV table. It implements core.AVTable: the durable
// operations are its own, the volatile ones (holds, spends, funds,
// reads) are the embedded table's, and Stage puts an update's balance
// change into the update's transaction.
//
// Every durable operation of its own pairs its table change with one
// engine batch under s.mu, so the log holds those changes in table
// order. The durability wait happens after s.mu is released, so
// concurrent ops share a group commit (or an epoch) instead of
// serializing on it.
type Store struct {
	*av.Table
	eng *storage.Engine
	own bool // eng is private: opened by Open, closed by Close

	mu sync.Mutex
}

// Open rebuilds the table from the engine's AV rows, with zero holds.
// dir is where a private engine lives and where a legacy journal would
// be; Open refuses it if one is found.
func Open(dir string, opts Options) (*Store, error) {
	for _, name := range []string{"journal", "av-snapshot.db"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err == nil {
			return nil, fmt.Errorf("%w: %s", ErrLegacyLayout, filepath.Join(dir, name))
		}
	}
	s := &Store{Table: av.NewTable(), eng: opts.Engine}
	if s.eng == nil {
		eng, err := storage.Open(storage.Options{Dir: dir, NoSync: opts.NoSync, Stats: opts.Stats})
		if err != nil {
			return nil, err
		}
		s.eng, s.own = eng, true
	}
	if err := s.load(); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// load defines every balance row.
func (s *Store) load() error {
	var err error
	scanErr := s.eng.ScanMeta(rowPrefix, func(row string, v []byte) bool {
		if strings.HasPrefix(row, escrowPrefix) || strings.HasPrefix(row, obligPrefix) {
			err = fmt.Errorf("%w: %q", ErrEscrowLayout, row)
			return false
		}
		n, k := binary.Varint(v)
		if k <= 0 || k != len(v) || n < 0 {
			err = fmt.Errorf("%w: balance row %q", ErrCorrupt, row)
		} else {
			err = s.Table.Define(row[len(rowPrefix):], n)
		}
		return err == nil
	})
	if scanErr != nil {
		return scanErr
	}
	return err
}

func addBalance(key string, n int64) storage.Op { return storage.MetaAddOp(storage.BalanceKey(key), n) }

// wait runs a durability wait returned by an engine batch, once s.mu is
// released; a batch that failed to apply has nothing to wait for.
func wait(w func() error, err error) error {
	if err != nil {
		return err
	}
	return w()
}

// write appends ops as one engine batch and, once it has applied, runs
// apply on the table, both under s.mu; then it waits for durability.
func (s *Store) write(apply func() error, ops ...storage.Op) error {
	s.mu.Lock()
	w, err := s.eng.ApplyAsync(ops...)
	if err == nil {
		err = apply()
	}
	s.mu.Unlock()
	return wait(w, err)
}

// Define declares (or adds to) the AV for key, durably.
func (s *Store) Define(key string, initial int64) error {
	return s.DefineAll(av.Def{Key: key, N: initial})
}

// DefineAll declares the AV of many keys in one engine batch: one
// durability wait however many keys a node seeds.
func (s *Store) DefineAll(defs ...av.Def) error {
	ops := make([]storage.Op, len(defs))
	for i, d := range defs {
		if d.N < 0 {
			return av.ErrNegative
		}
		if row := storage.BalanceKey(d.Key); strings.HasPrefix(row, escrowPrefix) || strings.HasPrefix(row, obligPrefix) {
			return fmt.Errorf("avstore: key %q collides with the reserved escrow and obligation rows", d.Key)
		}
		ops[i] = addBalance(d.Key, d.N)
	}
	return s.write(func() error { return s.Table.DefineAll(defs...) }, ops...)
}

// Stage adds the change of key's balance by n to tx, so it commits in
// the batch of the stock delta it accounts for (see core.AVTable). A
// zero change writes nothing: a defined key's row already exists. A
// change equal to tx's buffered delta of key — every decrement spent
// from local volume and every increment — rides inside that delta
// (txn.BalanceDelta), so the update logs one op; any other change, such
// as a spend net of received grants, is an OpMetaAdd of its own.
func (s *Store) Stage(tx *txn.Txn, key string, n int64) {
	if n != 0 && !tx.BalanceDelta(key, n) {
		_ = tx.AddMeta(storage.BalanceKey(key), n) // fails only on a finished tx, whose commit writes nothing
	}
}

// Credit adds fresh available volume durably, as a batch of its own. It
// validates before writing (a defined key stays defined), so a credit
// the table would refuse leaves no row behind.
func (s *Store) Credit(key string, n int64) error {
	if n < 0 {
		return av.ErrNegative
	}
	if !s.Table.Defined(key) {
		return av.ErrUndefined
	}
	return s.write(func() error { return s.Table.Fund(key, n) }, addBalance(key, n))
}

// Consume destroys n held units durably, as a batch of its own: the
// table validates and spends, the spend row is appended, and Consume
// returns once it is durable. If the row cannot be written the hold is
// restored, so a failed spend leaves the table as it found it.
func (s *Store) Consume(key string, n int64) error {
	s.mu.Lock()
	if err := s.Table.Spend(key, n); err != nil {
		s.mu.Unlock()
		return err
	}
	w, err := s.eng.ApplyAsync(addBalance(key, -n))
	if err != nil {
		_ = s.Table.CreditHeld(key, n)
	}
	s.mu.Unlock()
	return wait(w, err)
}

// Debit removes up to n available units for an outbound transfer,
// durably, and returns the amount taken: the grant leaves the site only
// once its row is durable. If the row cannot be written the debit is
// undone; if the wait fails zero is reported and the units are lost
// slack, never minted volume.
func (s *Store) Debit(key string, n int64) (int64, error) {
	s.mu.Lock()
	taken, err := s.Table.Debit(key, n)
	var w func() error
	if err == nil && taken > 0 {
		if w, err = s.eng.ApplyAsync(addBalance(key, -taken)); err != nil {
			_ = s.Table.Fund(key, taken)
		}
	}
	s.mu.Unlock()
	if err == nil && taken > 0 {
		err = w()
	}
	if err != nil {
		return 0, err
	}
	return taken, nil
}

// Close closes a private engine. A shared engine belongs to its site,
// which closes it.
func (s *Store) Close() error {
	if s.own {
		return s.eng.Close()
	}
	return nil
}
