// Package avstore makes a site's Allowable Volume table survive
// restarts: AV is real purchasing power over the shared stock, so losing
// the table on crash would strand (or worse, double) slack.
//
// Store wraps av.Table and keeps its durable state as metadata rows of
// a storage engine — on a site, the engine that holds the stock, so the
// AV and the stock share one WAL, one LSN space and one checkpoint:
//
//	av/<key>     the balance (avail + held + escrow), a varint changed
//	             only by storage.OpMetaAdd
//	av/e/<xfer>  an unresolved outbound escrow: key and amount
//	av/o/<xfer>  a settle/cancel obligation: granter site and flag
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
// stock delta: every durable prefix of the one log holds both or
// neither, satisfies `AV <= stock`, and a crash can only lose slack,
// never mint it. A grant the update does not spend gets its balance row
// in a batch of its own before its hold is released; a granter's debit
// or escrow is durable before the grant leaves the site; an obligation
// is durable before the credit it guards.
package avstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"avdb/internal/av"
	"avdb/internal/storage"
	"avdb/internal/txn"
	"avdb/internal/wal"
)

// Row prefixes inside the engine's metadata namespace.
const (
	rowPrefix    = "av/"
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

// load defines every balance row, then parks the escrow rows' units
// (the balance includes them) and restores the obligations.
func (s *Store) load() error {
	var escrows []av.Escrow
	var obls []av.Obligation
	var err error
	scanErr := s.eng.ScanMeta(rowPrefix, func(row string, v []byte) bool {
		switch {
		case strings.HasPrefix(row, escrowPrefix):
			var esc av.Escrow
			esc, err = decodeEscrow(row, v)
			escrows = append(escrows, esc)
		case strings.HasPrefix(row, obligPrefix):
			var ob av.Obligation
			ob, err = decodeObligation(row, v)
			obls = append(obls, ob)
		default:
			n, k := binary.Varint(v)
			if k <= 0 || k != len(v) || n < 0 {
				err = fmt.Errorf("%w: balance row %q", ErrCorrupt, row)
			} else {
				err = s.Table.Define(row[len(rowPrefix):], n)
			}
		}
		return err == nil
	})
	if scanErr != nil {
		return scanErr
	}
	if err != nil {
		return err
	}
	for _, esc := range escrows {
		taken, err := s.Table.EscrowDebit(esc.Key, esc.Xfer, esc.N)
		if err != nil {
			return err
		}
		if taken != esc.N {
			return fmt.Errorf("%w: escrow %d wants %d of %s, took %d", ErrCorrupt, esc.Xfer, esc.N, esc.Key, taken)
		}
	}
	for _, ob := range obls {
		if err := s.Table.AddObligation(ob); err != nil {
			return err
		}
	}
	return nil
}

func balanceRow(key string) string              { return rowPrefix + key }
func escrowRow(xfer uint64) string              { return escrowPrefix + strconv.FormatUint(xfer, 10) }
func obligRow(xfer uint64) string               { return obligPrefix + strconv.FormatUint(xfer, 10) }
func addBalance(key string, n int64) storage.Op { return storage.MetaAddOp(balanceRow(key), n) }

func decodeEscrow(row string, v []byte) (av.Escrow, error) {
	xfer, err := strconv.ParseUint(row[len(escrowPrefix):], 10, 64)
	keyLen, k := binary.Uvarint(v)
	if err != nil || k <= 0 || keyLen > uint64(len(v)-k) {
		return av.Escrow{}, fmt.Errorf("%w: escrow row %q", ErrCorrupt, row)
	}
	key := string(v[k : k+int(keyLen)])
	n, m := binary.Varint(v[k+int(keyLen):])
	if m <= 0 || k+int(keyLen)+m != len(v) || n <= 0 {
		return av.Escrow{}, fmt.Errorf("%w: escrow row %q", ErrCorrupt, row)
	}
	return av.Escrow{Xfer: xfer, Key: key, N: n}, nil
}

func encodeEscrow(key string, n int64) []byte {
	v := binary.AppendUvarint(nil, uint64(len(key)))
	return binary.AppendVarint(append(v, key...), n)
}

func decodeObligation(row string, v []byte) (av.Obligation, error) {
	xfer, err := strconv.ParseUint(row[len(obligPrefix):], 10, 64)
	peer, k := binary.Uvarint(v)
	if err != nil || k <= 0 || peer > 0xFFFFFFFF || len(v) != k+1 || v[k] > 1 {
		return av.Obligation{}, fmt.Errorf("%w: obligation row %q", ErrCorrupt, row)
	}
	return av.Obligation{Xfer: xfer, Peer: uint32(peer), Cancel: v[k] == 1}, nil
}

func encodeObligation(ob av.Obligation) []byte {
	flag := byte(0)
	if ob.Cancel {
		flag = 1
	}
	return append(binary.AppendUvarint(nil, uint64(ob.Peer)), flag)
}

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
		if row := balanceRow(d.Key); strings.HasPrefix(row, escrowPrefix) || strings.HasPrefix(row, obligPrefix) {
			return fmt.Errorf("avstore: key %q collides with the escrow and obligation rows", d.Key)
		}
		ops[i] = addBalance(d.Key, d.N)
	}
	return s.write(func() error { return s.Table.DefineAll(defs...) }, ops...)
}

// Stage adds the change of key's balance by n to tx, so it commits in
// the batch of the stock delta it accounts for (see core.AVTable). A
// zero change writes nothing: a defined key's row already exists.
func (s *Store) Stage(tx *txn.Txn, key string, n int64) {
	if n != 0 {
		_ = tx.AddMeta(balanceRow(key), n) // fails only on a finished tx, whose commit writes nothing
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
	return granted(taken, w, err)
}

// granted reports taken once its row is durable, and zero on any
// failure.
func granted(taken int64, w func() error, err error) (int64, error) {
	if err == nil && taken > 0 {
		err = w()
	}
	if err != nil {
		return 0, err
	}
	return taken, nil
}

// EscrowDebit durably parks up to n available units in escrow for the
// transfer xfer and returns the amount taken. Like Debit, the row is
// durable before the grant leaves the site. A duplicate request for a
// known transfer rewrites the same row, so it too returns only once the
// escrow is durable.
func (s *Store) EscrowDebit(key string, xfer uint64, n int64) (int64, error) {
	s.mu.Lock()
	_, dup := s.Table.PendingEscrow(xfer)
	taken, err := s.Table.EscrowDebit(key, xfer, n)
	var w func() error
	if err == nil && taken > 0 {
		if w, err = s.eng.ApplyAsync(storage.MetaPutOp(escrowRow(xfer), encodeEscrow(key, taken))); err != nil && !dup {
			_, _ = s.Table.ResolveEscrow(xfer, true)
		}
	}
	s.mu.Unlock()
	return granted(taken, w, err)
}

// ResolveEscrow durably finishes transfer xfer (refund=true cancels,
// false settles and destroys the units). The escrow row and, for a
// settle, the balance change go in one batch. Resolving an unknown
// transfer is a no-op that writes nothing.
func (s *Store) ResolveEscrow(xfer uint64, refund bool) (int64, error) {
	s.mu.Lock()
	esc, ok := s.Table.PendingEscrow(xfer)
	if !ok {
		s.mu.Unlock()
		return 0, nil
	}
	ops := []storage.Op{storage.MetaDeleteOp(escrowRow(xfer))}
	if !refund {
		ops = append(ops, addBalance(esc.Key, -esc.N))
	}
	w, err := s.eng.ApplyAsync(ops...)
	var n int64
	if err == nil {
		n, err = s.Table.ResolveEscrow(xfer, refund)
	}
	s.mu.Unlock()
	if err := wait(w, err); err != nil {
		return 0, err
	}
	return n, nil
}

// AddObligation durably records a settle/cancel obligation for an
// inbound transfer. It is written before the effect it guards (the
// local credit), so a restarted site re-drives it.
func (s *Store) AddObligation(ob av.Obligation) error {
	if ob.Xfer == 0 {
		return s.Table.AddObligation(ob) // rejected: nothing to write
	}
	return s.write(func() error { return s.Table.AddObligation(ob) },
		storage.MetaPutOp(obligRow(ob.Xfer), encodeObligation(ob)))
}

// CompleteObligation durably discharges the obligation for xfer.
func (s *Store) CompleteObligation(xfer uint64) error {
	return s.write(func() error { return s.Table.CompleteObligation(xfer) },
		storage.MetaDeleteOp(obligRow(xfer)))
}

// Close closes a private engine. A shared engine belongs to its site,
// which closes it.
func (s *Store) Close() error {
	if s.own {
		return s.eng.Close()
	}
	return nil
}
