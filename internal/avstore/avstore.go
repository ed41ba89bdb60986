// Package avstore makes a site's Allowable Volume table durable. The
// paper's fault-tolerance argument needs the AV to survive a site
// restart: AV is real purchasing power over the shared stock, so losing
// the table on crash would strand (or worse, double) slack.
//
// Store wraps av.Table with a journal of the *durable* balance changes:
// Define, Credit (an increment's new slack or a received grant), Spend
// (a committed decrement's consumption) and TransferOut (a grant to a
// peer). Holds are deliberately volatile — they are reservations of
// in-flight updates, and an update that did not commit before the crash
// must not consume AV.
//
// Crash-safety discipline (the escrow rule): AV-decreasing records are
// journaled *before* their effect escapes the site, AV-increasing
// records *after* their cause is durable. A crash can therefore only
// lose slack, never mint it: after recovery the system-wide invariant
// weakens from `sum(AV) == global stock` to `sum(AV) <= global stock`,
// which preserves the non-negativity guarantee that makes autonomous
// updates safe.
package avstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"avdb/internal/av"
	"avdb/internal/clock"
	"avdb/internal/epoch"
	"avdb/internal/wal"
)

// Journal record kinds.
const (
	opDefine byte = iota + 1
	opCredit
	opSpend
	opTransferOut
	// opEscrow parks a grant in escrow (amount + transfer id); the units
	// leave avail but stay in the balance until resolved.
	opEscrow
	// opEscrowResolve finishes a transfer: amount 1 means cancel
	// (refund), 0 means settle (destroy).
	opEscrowResolve
	// opOblige records a requester-side settle (amount 0) or cancel
	// (amount 1) obligation for an inbound transfer; the key field holds
	// the granter site id. opObligeDone discharges it.
	opOblige
	opObligeDone
)

// Store errors.
var ErrCorrupt = errors.New("avstore: corrupt journal or snapshot")

const (
	snapName = "av-snapshot.db"
	snapTmp  = "av-snapshot.tmp"
	// snapMagicV1 snapshots hold balances only; snapMagic (v2) appends an
	// escrow section so unresolved transfers survive restart. New
	// snapshots are v2; v1 still loads (its escrow set is empty).
	snapMagicV1 = "AVDBAVS1"
	snapMagic   = "AVDBAVS2"
)

// Options tune a Store.
type Options struct {
	// NoSync skips fsync on journal appends (experiments).
	NoSync bool
	// SegmentMaxBytes passes through to the journal's WAL.
	SegmentMaxBytes int64
	// MaxSyncDelay passes through to the journal's WAL group commit.
	MaxSyncDelay time.Duration
	// Stats passes through to the journal's WAL (shared fsync counters).
	Stats *wal.Stats
	// EpochInterval, when positive, rides durable acknowledgements on
	// epoch boundaries instead of per-op group commits: one covering
	// fsync per epoch. Record contents and append order are unchanged,
	// so the escrow discipline (decreases journal-before-ack) survives.
	EpochInterval time.Duration
	// EpochMaxCommits closes an epoch early at this many commits
	// (0 means epoch.DefaultMaxCommits; negative disables).
	EpochMaxCommits int
	// EpochAdaptive turns on the epoch manager's adaptive interval
	// controller; EpochMinInterval/EpochMaxInterval clamp it (see
	// epoch.Options).
	EpochAdaptive    bool
	EpochMinInterval time.Duration
	EpochMaxInterval time.Duration
	// Clock drives epoch deadlines (nil means the real clock).
	Clock clock.Clock
	// EpochStats, when non-nil, receives epoch counters (shareable with
	// the storage engine's manager).
	EpochStats *epoch.Stats
}

// Store is a durable AV table. It implements core.AVTable.
//
// Durable operations pair the journal append and the table change under
// s.mu, but wait for the group-commit fsync *after* releasing the lock:
// the record's LSN is captured inside the critical section and the
// operation returns — so any dependent message can escape the site —
// only once journal.SyncTo reports that LSN durable. Concurrent ops
// therefore share one fsync instead of serializing on one each.
type Store struct {
	dir  string
	opts Options

	mu      sync.Mutex // serializes journal append + table apply pairs
	tbl     *av.Table
	journal *wal.Log
	epochs  *epoch.Manager // nil unless EpochInterval > 0
	enc     []byte         // scratch encode buffer for journal records; guarded by mu

	ckptMu sync.Mutex // serializes whole checkpoints (snapshot + truncate)
}

// Open loads (or creates) the store in dir, replaying snapshot +
// journal into a fresh table with zero holds.
func Open(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("avstore: %w", err)
	}
	s := &Store{dir: dir, opts: opts, tbl: av.NewTable()}
	boundary, balances, escrows, obls, err := s.loadSnapshot()
	if err != nil {
		return nil, err
	}
	for key, n := range balances {
		if n < 0 {
			return nil, fmt.Errorf("%w: negative snapshot balance for %s", ErrCorrupt, key)
		}
		if err := s.tbl.Define(key, n); err != nil {
			return nil, err
		}
	}
	// Balances include escrowed units; move them from avail back into
	// their transfers so a restart preserves the escrow ledger.
	for _, esc := range escrows {
		taken, err := s.tbl.EscrowDebit(esc.Key, esc.Xfer, esc.N)
		if err != nil {
			return nil, err
		}
		if taken != esc.N {
			return nil, fmt.Errorf("%w: snapshot escrow %d wants %d of %s, took %d",
				ErrCorrupt, esc.Xfer, esc.N, esc.Key, taken)
		}
	}
	for _, ob := range obls {
		if err := s.tbl.AddObligation(ob); err != nil {
			return nil, err
		}
	}
	j, err := wal.Open(filepath.Join(dir, "journal"), wal.Options{
		NoSync:          opts.NoSync,
		SegmentMaxBytes: opts.SegmentMaxBytes,
		MaxSyncDelay:    opts.MaxSyncDelay,
		Stats:           opts.Stats,
	})
	if err != nil {
		return nil, err
	}
	s.journal = j
	err = j.Replay(boundary+1, func(lsn uint64, payload []byte) error {
		return s.applyRecord(payload)
	})
	if err != nil {
		j.Close()
		return nil, err
	}
	if opts.EpochInterval > 0 {
		s.epochs = epoch.New(epoch.Options{
			Interval:    opts.EpochInterval,
			MaxCommits:  opts.EpochMaxCommits,
			Clock:       opts.Clock,
			Sync:        j.SyncTo,
			Stats:       opts.EpochStats,
			Adaptive:    opts.EpochAdaptive,
			MinInterval: opts.EpochMinInterval,
			MaxInterval: opts.EpochMaxInterval,
		})
	}
	return s, nil
}

// Epochs returns the store's epoch manager, nil when epoch commit is
// off.
func (s *Store) Epochs() *epoch.Manager { return s.epochs }

// syncTo is the durable-ack wait every journal-backed operation ends
// with, called after s.mu is released. Checkpoint does NOT use it — a
// truncation boundary must not wait out an open epoch's interval, and
// its direct SyncTo is correct either way.
func (s *Store) syncTo(lsn uint64) error { return s.syncToAsync(lsn)() }

// syncToAsync registers the wait — riding the open epoch when epoch
// commit is on, otherwise joining the per-op group commit — and returns
// a function that blocks until lsn is durable. The caller withholds the
// operation's acknowledgement until that wait resolves, but may keep
// issuing ops — filling the next epoch while the previous one's
// covering fsync drains.
func (s *Store) syncToAsync(lsn uint64) func() error {
	if s.epochs != nil {
		t, err := s.epochs.Enqueue(lsn)
		if err != nil {
			return func() error { return err }
		}
		return func() error {
			_, werr := t.Wait()
			return werr
		}
	}
	return func() error { return s.journal.SyncTo(lsn) }
}

// applyRecord replays one journal record into the table.
func (s *Store) applyRecord(payload []byte) error {
	if len(payload) < 1 {
		return ErrCorrupt
	}
	op := payload[0]
	r := payload[1:]
	keyLen, n := binary.Uvarint(r)
	if n <= 0 || keyLen > uint64(len(r)-n) {
		return ErrCorrupt
	}
	key := string(r[n : n+int(keyLen)])
	r = r[n+int(keyLen):]
	amount, n := binary.Varint(r)
	if n <= 0 {
		return ErrCorrupt
	}
	r = r[n:]
	// Escrow and obligation records carry a trailing transfer id.
	var xfer uint64
	if op == opEscrow || op == opEscrowResolve || op == opOblige || op == opObligeDone {
		xfer, n = binary.Uvarint(r)
		if n <= 0 {
			return ErrCorrupt
		}
		r = r[n:]
	}
	if len(r) != 0 {
		return ErrCorrupt
	}
	switch op {
	case opDefine, opCredit:
		return s.tbl.Define(key, amount) // Define adds; Credit to a fresh table is the same
	case opSpend, opTransferOut:
		// Balance decrease. The table holds it all as avail during
		// replay; route through acquire+consume to keep accounting exact.
		ok, err := s.tbl.Acquire(key, amount)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("%w: replayed decrease of %d exceeds balance for %s", ErrCorrupt, amount, key)
		}
		return s.tbl.Consume(key, amount)
	case opEscrow:
		taken, err := s.tbl.EscrowDebit(key, xfer, amount)
		if err != nil {
			return err
		}
		if taken != amount {
			return fmt.Errorf("%w: replayed escrow %d wants %d of %s, took %d", ErrCorrupt, xfer, amount, key, taken)
		}
		return nil
	case opEscrowResolve:
		// amount 1 = cancel (refund), 0 = settle. Resolving an unknown
		// transfer is a no-op, so replayed duplicates are harmless.
		_, err := s.tbl.ResolveEscrow(xfer, amount == 1)
		return err
	case opOblige:
		peer, err := strconv.ParseUint(key, 10, 32)
		if err != nil {
			return fmt.Errorf("%w: obligation peer %q", ErrCorrupt, key)
		}
		return s.tbl.AddObligation(av.Obligation{Xfer: xfer, Peer: uint32(peer), Cancel: amount == 1})
	case opObligeDone:
		return s.tbl.CompleteObligation(xfer)
	default:
		return fmt.Errorf("%w: journal op %d", ErrCorrupt, op)
	}
}

// appendLocked journals one record and returns its LSN. Caller holds
// s.mu; durability is the caller's job (journal.SyncTo after unlock).
func (s *Store) appendLocked(op byte, key string, amount int64) (uint64, error) {
	return s.appendXferLocked(op, key, amount, 0)
}

// appendXferLocked journals one record with a trailing transfer id
// (escrow ops only) and returns its LSN. The record is encoded into the
// store's scratch buffer (guarded by s.mu, copied by the WAL's own
// append buffer) so the hot path allocates nothing. Caller holds s.mu.
func (s *Store) appendXferLocked(op byte, key string, amount int64, xfer uint64) (uint64, error) {
	payload := append(s.enc[:0], op)
	payload = binary.AppendUvarint(payload, uint64(len(key)))
	payload = append(payload, key...)
	payload = binary.AppendVarint(payload, amount)
	if op == opEscrow || op == opEscrowResolve || op == opOblige || op == opObligeDone {
		payload = binary.AppendUvarint(payload, xfer)
	}
	s.enc = payload
	return s.journal.Append(payload)
}

// --- durable operations (journal + table) ---

// Define declares (or adds to) the AV for key, durably.
func (s *Store) Define(key string, initial int64) error {
	s.mu.Lock()
	// Increase: table first (cause), then journal. A crash between the
	// two loses the new slack — safe direction.
	err := s.tbl.Define(key, initial)
	var lsn uint64
	if err == nil {
		lsn, err = s.appendLocked(opDefine, key, initial)
	}
	s.mu.Unlock()
	if err != nil {
		return err
	}
	return s.syncTo(lsn)
}

// Credit adds fresh available volume durably (an increment's slack or a
// received transfer). Journaled after the table so a crash loses, never
// mints.
func (s *Store) Credit(key string, n int64) error {
	s.mu.Lock()
	err := s.tbl.Credit(key, n)
	var lsn uint64
	if err == nil {
		lsn, err = s.appendLocked(opCredit, key, n)
	}
	s.mu.Unlock()
	if err != nil {
		return err
	}
	return s.syncTo(lsn)
}

// Consume destroys n held units durably. The journal record precedes
// the table change: if we crash after journaling, recovery has already
// removed the volume (the accompanying storage-WAL decrement may or may
// not have committed — if it did not, slack is lost, which is safe).
// The fsync wait happens after s.mu is released, so concurrent durable
// ops batch onto one group commit. Consume is ConsumeAsync followed by
// its wait.
func (s *Store) Consume(key string, n int64) error {
	wait, err := s.ConsumeAsync(key, n)
	if err != nil {
		return err
	}
	return wait()
}

// ConsumeAsync is Consume's pipelined form: the journal append and
// table change happen before it returns (same order, same records —
// the escrow discipline is untouched), but the durable-ack wait is
// returned as a function instead of blocked on inline. The caller must
// not acknowledge the consumption until the wait resolves; until then
// a crash loses only unacked slack, exactly as with Consume.
func (s *Store) ConsumeAsync(key string, n int64) (wait func() error, err error) {
	s.mu.Lock()
	lsn, err := s.appendLocked(opSpend, key, n)
	if err == nil {
		err = s.tbl.Consume(key, n)
	}
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return s.syncToAsync(lsn), nil
}

// Debit removes up to n available units for an outbound transfer,
// durably, and returns the amount taken. The journal precedes the grant
// leaving the site: the debit only returns (letting the grant escape)
// once its record is durable. If the group commit fails, the in-memory
// debit is kept and zero is reported — the units are lost slack, never
// minted volume.
func (s *Store) Debit(key string, n int64) (int64, error) {
	s.mu.Lock()
	taken, err := s.tbl.Debit(key, n)
	if err != nil || taken == 0 {
		s.mu.Unlock()
		return taken, err
	}
	lsn, err := s.appendLocked(opTransferOut, key, taken)
	if err != nil {
		// Undo the in-memory debit: the grant must not leave the site
		// without a durable record.
		_ = s.tbl.Credit(key, taken)
		s.mu.Unlock()
		return 0, err
	}
	s.mu.Unlock()
	if err := s.syncTo(lsn); err != nil {
		return 0, err
	}
	return taken, nil
}

// EscrowDebit durably parks up to n available units in escrow for the
// transfer xfer and returns the amount taken. Like Debit, the journal
// record lands before the grant leaves the site; on journal failure
// the in-memory escrow is canceled (append error) or reported as zero
// granted (sync error) so nothing escapes unrecorded.
func (s *Store) EscrowDebit(key string, xfer uint64, n int64) (int64, error) {
	s.mu.Lock()
	taken, err := s.tbl.EscrowDebit(key, xfer, n)
	if err != nil || taken == 0 {
		s.mu.Unlock()
		return taken, err
	}
	lsn, err := s.appendXferLocked(opEscrow, key, taken, xfer)
	if err != nil {
		_, _ = s.tbl.ResolveEscrow(xfer, true)
		s.mu.Unlock()
		return 0, err
	}
	s.mu.Unlock()
	if err := s.syncTo(lsn); err != nil {
		return 0, err
	}
	return taken, nil
}

// ResolveEscrow durably finishes transfer xfer (refund=true cancels,
// false settles). The journal record precedes the table change: a
// settle that crashed mid-way must re-apply on replay (the requester
// already owns the units), and a replayed cancel is equally safe
// because the refund is rebuilt from the same journal.
func (s *Store) ResolveEscrow(xfer uint64, refund bool) (int64, error) {
	s.mu.Lock()
	// Peek first: resolving an unknown transfer is a no-op and should
	// not pollute the journal.
	if s.tbl.EscrowAmount(xfer) == 0 {
		s.mu.Unlock()
		return 0, nil
	}
	amount := int64(0)
	if refund {
		amount = 1
	}
	lsn, err := s.appendXferLocked(opEscrowResolve, "", amount, xfer)
	var refunded int64
	if err == nil {
		refunded, err = s.tbl.ResolveEscrow(xfer, refund)
	}
	s.mu.Unlock()
	if err != nil {
		return 0, err
	}
	if err := s.syncTo(lsn); err != nil {
		return 0, err
	}
	return refunded, nil
}

// Escrowed implements core.AVTable.
func (s *Store) Escrowed(key string) int64 { return s.tbl.Escrowed(key) }

// PendingEscrows returns the unresolved outbound transfers.
func (s *Store) PendingEscrows() []av.Escrow { return s.tbl.PendingEscrows() }

// AddObligation durably records a settle/cancel obligation for an
// inbound transfer. The journal record precedes the table change so the
// obligation is re-driven after a crash; the effect it guards (the
// local credit) is journaled after it.
func (s *Store) AddObligation(ob av.Obligation) error {
	s.mu.Lock()
	amount := int64(0)
	if ob.Cancel {
		amount = 1
	}
	peer := strconv.FormatUint(uint64(ob.Peer), 10)
	lsn, err := s.appendXferLocked(opOblige, peer, amount, ob.Xfer)
	if err == nil {
		err = s.tbl.AddObligation(ob)
	}
	s.mu.Unlock()
	if err != nil {
		return err
	}
	return s.syncTo(lsn)
}

// CompleteObligation durably discharges the obligation for xfer.
func (s *Store) CompleteObligation(xfer uint64) error {
	s.mu.Lock()
	lsn, err := s.appendXferLocked(opObligeDone, "", 0, xfer)
	if err == nil {
		err = s.tbl.CompleteObligation(xfer)
	}
	s.mu.Unlock()
	if err != nil {
		return err
	}
	return s.syncTo(lsn)
}

// Obligations returns the outstanding obligations.
func (s *Store) Obligations() []av.Obligation { return s.tbl.Obligations() }

// --- volatile operations (reservations; pass through) ---

// Defined implements core.AVTable.
func (s *Store) Defined(key string) bool { return s.tbl.Defined(key) }

// Avail implements core.AVTable.
func (s *Store) Avail(key string) int64 { return s.tbl.Avail(key) }

// Held implements core.AVTable.
func (s *Store) Held(key string) int64 { return s.tbl.Held(key) }

// Total implements core.AVTable.
func (s *Store) Total(key string) int64 { return s.tbl.Total(key) }

// AcquireUpTo implements core.AVTable (volatile reservation).
func (s *Store) AcquireUpTo(key string, want int64) (int64, error) {
	return s.tbl.AcquireUpTo(key, want)
}

// Acquire implements core.AVTable (volatile reservation).
func (s *Store) Acquire(key string, n int64) (bool, error) { return s.tbl.Acquire(key, n) }

// CreditHeld adds a received grant to the reservation. The grant's
// durable record is written immediately (it is already durably debited
// at the granter), while the hold itself stays volatile: a crash before
// the update commits must return the volume to `avail`, which replaying
// a Credit does.
func (s *Store) CreditHeld(key string, n int64) error {
	s.mu.Lock()
	err := s.tbl.CreditHeld(key, n)
	var lsn uint64
	if err == nil {
		lsn, err = s.appendLocked(opCredit, key, n)
	}
	s.mu.Unlock()
	if err != nil {
		return err
	}
	return s.syncTo(lsn)
}

// Release implements core.AVTable (volatile reservation).
func (s *Store) Release(key string, n int64) error { return s.tbl.Release(key, n) }

// Keys implements core.AVTable.
func (s *Store) Keys() []string { return s.tbl.Keys() }

// Snapshot implements core.AVTable.
func (s *Store) Snapshot() map[string]int64 { return s.tbl.Snapshot() }

// Checkpoint writes the durable balances (avail + held — holds are
// reservations of still-running updates and belong to the balance) to a
// snapshot and truncates the journal.
func (s *Store) Checkpoint() error {
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	s.mu.Lock()
	boundary := s.journal.NextLSN() - 1
	balances := make(map[string]int64)
	for _, key := range s.tbl.Keys() {
		balances[key] = s.tbl.Total(key)
	}
	escrows := s.tbl.PendingEscrows()
	obls := s.tbl.Obligations()
	s.mu.Unlock()
	// With buffered group commit the journal tail may not be on disk
	// yet; make everything the snapshot covers durable before any
	// segment holding it can be dropped, so the journal remains a
	// complete record even if the snapshot rename is lost to a crash.
	if err := s.journal.SyncTo(boundary); err != nil {
		return err
	}
	if err := s.writeSnapshot(boundary, balances, escrows, obls); err != nil {
		return err
	}
	return s.journal.TruncateBefore(boundary + 1)
}

// writeSnapshot dumps balances, the escrow ledger, and the obligation
// ledger atomically.
func (s *Store) writeSnapshot(boundary uint64, balances map[string]int64, escrows []av.Escrow, obls []av.Obligation) error {
	out := encodeSnapshot(boundary, balances, escrows, obls)
	tmp := filepath.Join(s.dir, snapTmp)
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("avstore: %w", err)
	}
	if _, err := f.Write(out); err != nil {
		f.Close()
		return fmt.Errorf("avstore: %w", err)
	}
	// The snapshot replaces truncated journal segments, so it must hit
	// stable storage before the rename makes it authoritative.
	if !s.opts.NoSync {
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("avstore: %w", err)
		}
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("avstore: %w", err)
	}
	return os.Rename(tmp, filepath.Join(s.dir, snapName))
}

// encodeSnapshot renders the v2 snapshot format: magic, CRC32 of the
// body, then boundary LSN, balances, escrows and obligations.
func encodeSnapshot(boundary uint64, balances map[string]int64, escrows []av.Escrow, obls []av.Obligation) []byte {
	keys := make([]string, 0, len(balances))
	for k := range balances {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	sort.Slice(escrows, func(i, j int) bool { return escrows[i].Xfer < escrows[j].Xfer })
	var body []byte
	body = binary.LittleEndian.AppendUint64(body, boundary)
	body = binary.AppendUvarint(body, uint64(len(keys)))
	for _, k := range keys {
		body = binary.AppendUvarint(body, uint64(len(k)))
		body = append(body, k...)
		body = binary.AppendVarint(body, balances[k])
	}
	body = binary.AppendUvarint(body, uint64(len(escrows)))
	for _, esc := range escrows {
		body = binary.AppendUvarint(body, esc.Xfer)
		body = binary.AppendUvarint(body, uint64(len(esc.Key)))
		body = append(body, esc.Key...)
		body = binary.AppendVarint(body, esc.N)
	}
	sort.Slice(obls, func(i, j int) bool { return obls[i].Xfer < obls[j].Xfer })
	body = binary.AppendUvarint(body, uint64(len(obls)))
	for _, ob := range obls {
		body = binary.AppendUvarint(body, ob.Xfer)
		body = binary.AppendUvarint(body, uint64(ob.Peer))
		cancel := int64(0)
		if ob.Cancel {
			cancel = 1
		}
		body = binary.AppendVarint(body, cancel)
	}
	out := make([]byte, 0, len(snapMagic)+4+len(body))
	out = append(out, snapMagic...)
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(body))
	out = append(out, body...)
	return out
}

// loadSnapshot reads the snapshot if present. Both the v1 format (balances
// only) and the v2 format (balances plus the pending-escrow ledger) are
// accepted; a v1 snapshot simply yields no escrows.
func (s *Store) loadSnapshot() (uint64, map[string]int64, []av.Escrow, []av.Obligation, error) {
	data, err := os.ReadFile(filepath.Join(s.dir, snapName))
	if os.IsNotExist(err) {
		return 0, nil, nil, nil, nil
	}
	if err != nil {
		return 0, nil, nil, nil, fmt.Errorf("avstore: %w", err)
	}
	return decodeSnapshot(data)
}

// decodeSnapshot parses a v1 or v2 snapshot blob. Corrupt input of any
// shape must come back as ErrCorrupt, never a panic — the fuzz harness
// holds it to that.
func decodeSnapshot(data []byte) (uint64, map[string]int64, []av.Escrow, []av.Obligation, error) {
	if len(data) < len(snapMagic)+4 {
		return 0, nil, nil, nil, fmt.Errorf("%w: bad snapshot header", ErrCorrupt)
	}
	magic := string(data[:len(snapMagic)])
	if magic != snapMagic && magic != snapMagicV1 {
		return 0, nil, nil, nil, fmt.Errorf("%w: bad snapshot header", ErrCorrupt)
	}
	sum := binary.LittleEndian.Uint32(data[len(snapMagic):])
	body := data[len(snapMagic)+4:]
	if crc32.ChecksumIEEE(body) != sum {
		return 0, nil, nil, nil, fmt.Errorf("%w: snapshot checksum", ErrCorrupt)
	}
	if len(body) < 8 {
		return 0, nil, nil, nil, fmt.Errorf("%w: snapshot truncated", ErrCorrupt)
	}
	boundary := binary.LittleEndian.Uint64(body)
	body = body[8:]
	count, n := binary.Uvarint(body)
	if n <= 0 {
		return 0, nil, nil, nil, fmt.Errorf("%w: snapshot count", ErrCorrupt)
	}
	body = body[n:]
	balances := make(map[string]int64, count)
	for i := uint64(0); i < count; i++ {
		keyLen, n := binary.Uvarint(body)
		if n <= 0 || keyLen > uint64(len(body)-n) {
			return 0, nil, nil, nil, fmt.Errorf("%w: snapshot key", ErrCorrupt)
		}
		key := string(body[n : n+int(keyLen)])
		body = body[n+int(keyLen):]
		amount, n := binary.Varint(body)
		if n <= 0 {
			return 0, nil, nil, nil, fmt.Errorf("%w: snapshot amount", ErrCorrupt)
		}
		body = body[n:]
		balances[key] = amount
	}
	if magic == snapMagicV1 {
		return boundary, balances, nil, nil, nil
	}
	escCount, n := binary.Uvarint(body)
	if n <= 0 {
		return 0, nil, nil, nil, fmt.Errorf("%w: snapshot escrow count", ErrCorrupt)
	}
	body = body[n:]
	escrows := make([]av.Escrow, 0, escCount)
	for i := uint64(0); i < escCount; i++ {
		xfer, n := binary.Uvarint(body)
		if n <= 0 {
			return 0, nil, nil, nil, fmt.Errorf("%w: snapshot escrow xfer", ErrCorrupt)
		}
		body = body[n:]
		keyLen, n := binary.Uvarint(body)
		if n <= 0 || keyLen > uint64(len(body)-n) {
			return 0, nil, nil, nil, fmt.Errorf("%w: snapshot escrow key", ErrCorrupt)
		}
		key := string(body[n : n+int(keyLen)])
		body = body[n+int(keyLen):]
		amount, n := binary.Varint(body)
		if n <= 0 {
			return 0, nil, nil, nil, fmt.Errorf("%w: snapshot escrow amount", ErrCorrupt)
		}
		body = body[n:]
		escrows = append(escrows, av.Escrow{Xfer: xfer, Key: key, N: amount})
	}
	oblCount, n := binary.Uvarint(body)
	if n <= 0 {
		return 0, nil, nil, nil, fmt.Errorf("%w: snapshot obligation count", ErrCorrupt)
	}
	body = body[n:]
	obls := make([]av.Obligation, 0, oblCount)
	for i := uint64(0); i < oblCount; i++ {
		xfer, n := binary.Uvarint(body)
		if n <= 0 {
			return 0, nil, nil, nil, fmt.Errorf("%w: snapshot obligation xfer", ErrCorrupt)
		}
		body = body[n:]
		peer, n := binary.Uvarint(body)
		if n <= 0 || peer > 0xFFFFFFFF {
			return 0, nil, nil, nil, fmt.Errorf("%w: snapshot obligation peer", ErrCorrupt)
		}
		body = body[n:]
		cancel, n := binary.Varint(body)
		if n <= 0 {
			return 0, nil, nil, nil, fmt.Errorf("%w: snapshot obligation flag", ErrCorrupt)
		}
		body = body[n:]
		obls = append(obls, av.Obligation{Xfer: xfer, Peer: uint32(peer), Cancel: cancel == 1})
	}
	return boundary, balances, escrows, obls, nil
}

// Close syncs and closes the journal. The epoch manager (if any) is
// flushed first so no committer is left waiting on a boundary whose
// journal has gone away.
func (s *Store) Close() error {
	var err error
	if s.epochs != nil {
		err = s.epochs.Close()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if cerr := s.journal.Close(); err == nil {
		err = cerr
	}
	return err
}
