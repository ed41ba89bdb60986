package avstore

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"avdb/internal/av"
	"avdb/internal/core"
	"avdb/internal/lockmgr"
	"avdb/internal/rng"
	"avdb/internal/storage"
	"avdb/internal/txn"
	"avdb/internal/wal"
)

// interface conformance
var _ core.AVTable = (*Store)(nil)

func openStore(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// openOn opens a store over an engine the test configures and owns, as
// a site does with its own engine.
func openOn(t *testing.T, opts storage.Options) (*Store, *storage.Engine) {
	t.Helper()
	eng, err := storage.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(opts.Dir, Options{Engine: eng})
	if err != nil {
		eng.Close()
		t.Fatal(err)
	}
	return s, eng
}

func checkpoint(t *testing.T, s *Store) {
	t.Helper()
	if err := s.eng.Checkpoint(); err != nil {
		t.Fatal(err)
	}
}

// tearTail chops n bytes off the engine WAL's last segment, as a crash
// mid-append would.
func tearTail(t *testing.T, dir string, n int64) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal", "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segments: %v", err)
	}
	sort.Strings(segs)
	last := segs[len(segs)-1]
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, fi.Size()-n); err != nil {
		t.Fatal(err)
	}
}

func TestDefineSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	if err := s.Define("k", 500); err != nil {
		t.Fatal(err)
	}
	if err := s.DefineAll(av.Def{Key: "a", N: 1}, av.Def{Key: "zero", N: 0}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2 := openStore(t, dir)
	defer s2.Close()
	if !s2.Defined("k") || s2.Avail("k") != 500 {
		t.Fatalf("recovered avail = %d, defined=%v", s2.Avail("k"), s2.Defined("k"))
	}
	// A zero definition still classifies the key as a Delay-Update datum.
	if !s2.Defined("zero") || s2.Avail("a") != 1 {
		t.Fatalf("batched defines: zero defined=%v, a=%d", s2.Defined("zero"), s2.Avail("a"))
	}
}

func TestBalanceOpsSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	s.Define("k", 100)
	s.Credit("k", 50) // increment minted slack
	// A committed decrement of 30.
	if ok, _ := s.Acquire("k", 30); !ok {
		t.Fatal("acquire failed")
	}
	if err := s.Consume("k", 30); err != nil {
		t.Fatal(err)
	}
	// A transfer of up to 40 out (grant policy already applied upstream).
	granted, err := s.Debit("k", 40)
	if err != nil || granted != 40 {
		t.Fatalf("debit = %d, %v", granted, err)
	}
	s.Close()

	s2 := openStore(t, dir)
	defer s2.Close()
	if got := s2.Avail("k"); got != 80 { // 100+50-30-40
		t.Fatalf("recovered avail = %d, want 80", got)
	}
	if s2.Held("k") != 0 {
		t.Fatal("holds must be volatile")
	}
}

func TestHoldsAreVolatile(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	s.Define("k", 100)
	s.AcquireUpTo("k", 70) // in-flight update reserves, then we "crash"
	if s.Avail("k") != 30 || s.Held("k") != 70 {
		t.Fatal("hold not applied")
	}
	s.Close()
	s2 := openStore(t, dir)
	defer s2.Close()
	// The uncommitted reservation is returned to the balance.
	if s2.Avail("k") != 100 || s2.Held("k") != 0 {
		t.Fatalf("after restart avail=%d held=%d, want 100/0", s2.Avail("k"), s2.Held("k"))
	}
}

// TestReceivedGrantSurvivesRestart: a peer's grant arrives into the
// hold of an update that then fails. The hold writes nothing; the grant
// is staged in a transaction of its own and committed before the hold
// is released, and a restart returns it to avail.
func TestReceivedGrantSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	s.Define("k", 10)
	s.AcquireUpTo("k", 10)
	lsn := s.eng.LastLSN()
	if err := s.CreditHeld("k", 25); err != nil {
		t.Fatal(err)
	}
	if s.eng.LastLSN() != lsn {
		t.Fatal("a received grant wrote a row before its update committed")
	}
	tx := txn.NewManager(s.eng, lockmgr.Options{}).Begin()
	s.Stage(tx, "k", 25)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := s.Release("k", 35); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2 := openStore(t, dir)
	defer s2.Close()
	if got := s2.Avail("k"); got != 35 {
		t.Fatalf("recovered avail = %d, want 10+25", got)
	}
}

// TestStagedChangeCommitsWithTheStock: a staged balance change commits
// in the stock transaction's batch, and a zero change stages nothing.
func TestStagedChangeCommitsWithTheStock(t *testing.T) {
	dir := t.TempDir()
	s, eng := openOn(t, storage.Options{Dir: dir, NoSync: true})
	if err := eng.Put(storage.Record{Key: "k", Amount: 100}); err != nil {
		t.Fatal(err)
	}
	if err := s.Define("k", 100); err != nil {
		t.Fatal(err)
	}
	tm := txn.NewManager(eng, lockmgr.Options{})
	for _, n := range []int64{-30, 0} {
		tx := tm.Begin()
		if _, err := tx.ApplyDelta(context.Background(), "k", n); err != nil {
			t.Fatal(err)
		}
		s.Stage(tx, "k", n)
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if lsn := eng.LastLSN(); lsn != 4 {
		t.Fatalf("engine LSN = %d, want 4 (put, define, two commits)", lsn)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	s2, eng2 := openOn(t, storage.Options{Dir: dir, NoSync: true})
	defer eng2.Close()
	if v, _ := eng2.Amount("k"); v != 70 || s2.Avail("k") != 70 {
		t.Fatalf("stock %d / AV %d after restart, want 70/70", v, s2.Avail("k"))
	}
}

func TestCheckpointAndRestart(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	s.Define("a", 100)
	s.Define("b", 200)
	if ok, _ := s.Acquire("a", 40); !ok {
		t.Fatal("acquire")
	}
	s.Consume("a", 40)
	checkpoint(t, s)
	// Post-checkpoint traffic lands in the WAL only.
	s.Credit("b", 11)
	s.Close()

	s2 := openStore(t, dir)
	defer s2.Close()
	if s2.Avail("a") != 60 || s2.Avail("b") != 211 {
		t.Fatalf("a=%d b=%d", s2.Avail("a"), s2.Avail("b"))
	}
}

func TestCheckpointNotReplayedTwice(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	s.Define("k", 100)
	for round := 0; round < 4; round++ {
		s.Credit("k", 10)
		checkpoint(t, s)
		s.Credit("k", 1)
		s.Close()
		s = openStore(t, dir)
		want := int64(100 + (round+1)*11)
		if got := s.Avail("k"); got != want {
			t.Fatalf("round %d: avail = %d, want %d", round, got, want)
		}
	}
	s.Close()
}

func TestCorruptSnapshotRejected(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	s.Define("k", 5)
	checkpoint(t, s)
	s.Close()
	path := filepath.Join(dir, "snapshot.db")
	data, _ := os.ReadFile(path)
	data[len(data)-1] ^= 0xFF
	os.WriteFile(path, data, 0o644)
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("corrupt snapshot accepted")
	}
}

func TestCheckpointIncludesHolds(t *testing.T) {
	// A hold at checkpoint time is part of the durable balance (the
	// update may still commit); after a restart it is available again.
	dir := t.TempDir()
	s := openStore(t, dir)
	s.Define("k", 100)
	s.AcquireUpTo("k", 60)
	checkpoint(t, s)
	s.Close()
	s2 := openStore(t, dir)
	defer s2.Close()
	if got := s2.Avail("k"); got != 100 {
		t.Fatalf("avail = %d, want 100", got)
	}
}

// TestCorruptRowRejected: a row that does not decode refuses Open with
// ErrCorrupt instead of rebuilding a wrong table.
func TestCorruptRowRejected(t *testing.T) {
	for _, op := range []storage.Op{
		storage.MetaPutOp(storage.BalanceKey("k"), []byte{0x80}),
		storage.MetaAddOp(storage.BalanceKey("k"), -1),
	} {
		dir := t.TempDir()
		eng, err := storage.Open(storage.Options{Dir: dir, NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Apply(op); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir, Options{Engine: eng}); err == nil {
			t.Errorf("row %q = %v accepted", op.Key, op)
		}
		eng.Close()
	}
}

// TestLegacyLayoutRefused: a directory that still holds the old AV
// journal or AV snapshot is refused with ErrLegacyLayout. Opening it
// would find no AV rows, and a node seeding missing AV would define it
// again on top of the journal's balances.
func TestLegacyLayoutRefused(t *testing.T) {
	for _, legacy := range []string{"journal", "av-snapshot.db"} {
		dir := t.TempDir()
		if err := os.Mkdir(filepath.Join(dir, legacy), 0o755); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir, Options{NoSync: true}); !errors.Is(err, ErrLegacyLayout) {
			t.Fatalf("%s: err = %v, want ErrLegacyLayout", legacy, err)
		}
	}
}

// TestEscrowRowsRefused: a directory written by the escrowed transfer
// protocol can hold escrow rows, whose units are also still inside the
// granter's balance row, and obligation rows. Open refuses either with
// ErrEscrowLayout rather than load the balance and mint the escrow.
func TestEscrowRowsRefused(t *testing.T) {
	escrow := append([]byte{5}, "ghost"...)
	escrow = append(escrow, 10) // varint 5
	for _, op := range []storage.Op{
		storage.MetaPutOp(escrowPrefix+"7", escrow),
		storage.MetaPutOp(obligPrefix+"9", []byte{3, 0}),
	} {
		dir := t.TempDir()
		eng, err := storage.Open(storage.Options{Dir: dir, NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Apply(storage.MetaAddOp(storage.BalanceKey("ghost"), 5), op); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir, Options{Engine: eng}); !errors.Is(err, ErrEscrowLayout) {
			t.Errorf("row %q: err = %v, want ErrEscrowLayout", op.Key, err)
		}
		eng.Close()
	}
	s := openStore(t, t.TempDir())
	defer s.Close()
	for _, key := range []string{"e/7", "o/9"} {
		if err := s.Define(key, 1); err == nil {
			t.Errorf("Define(%q) accepted a reserved row name", key)
		}
	}
}

// TestRowsShareTheEngine: over a site's engine the AV rows are batches
// of the engine's own WAL — dense LSNs beside the stock — and invisible
// to its user schema.
func TestRowsShareTheEngine(t *testing.T) {
	dir := t.TempDir()
	s, eng := openOn(t, storage.Options{Dir: dir, NoSync: true})
	if err := eng.Put(storage.Record{Key: "k", Amount: 100}); err != nil {
		t.Fatal(err)
	}
	if err := s.Define("k", 100); err != nil {
		t.Fatal(err)
	}
	if ok, _ := s.Acquire("k", 30); !ok {
		t.Fatal("acquire")
	}
	if err := s.Consume("k", 30); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.ApplyDelta("k", -30); err != nil {
		t.Fatal(err)
	}
	if lsn := eng.LastLSN(); lsn != 4 {
		t.Fatalf("engine LSN = %d, want 4 (put, define, spend, decrement)", lsn)
	}
	if eng.Len() != 1 {
		t.Fatalf("engine Len = %d: AV rows leaked into the user schema", eng.Len())
	}
	s.Close() // shared engine: a no-op
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	s2, eng2 := openOn(t, storage.Options{Dir: dir, NoSync: true})
	defer eng2.Close()
	if v, _ := eng2.Amount("k"); v != 70 || s2.Avail("k") != 70 {
		t.Fatalf("stock %d / AV %d after restart, want 70/70", v, s2.Avail("k"))
	}
}

// TestFailedSpendRestoresHold: a spend the log refuses leaves the table
// as it was — the hold is still held, for the caller to release.
func TestFailedSpendRestoresHold(t *testing.T) {
	s, eng := openOn(t, storage.Options{Dir: t.TempDir(), NoSync: true})
	s.Define("k", 100)
	if ok, _ := s.Acquire("k", 30); !ok {
		t.Fatal("acquire")
	}
	eng.Close()
	if err := s.Consume("k", 30); !errors.Is(err, storage.ErrClosed) {
		t.Fatalf("spend on a closed engine: err = %v, want ErrClosed", err)
	}
	if s.Held("k") != 30 || s.Total("k") != 100 {
		t.Fatalf("after failed spend held=%d total=%d, want 30/100", s.Held("k"), s.Total("k"))
	}
}

// TestQuickRecoveredBalanceNeverExceedsTruth drives a random history of
// durable ops, restarts at the end, and checks the recovered balance
// equals the arithmetic truth (crash-free runs lose nothing) and that
// recovery always succeeds.
func TestQuickRecoveredBalanceNeverExceedsTruth(t *testing.T) {
	f := func(seed uint64) bool {
		dir, err := os.MkdirTemp("", "avstoreq")
		if err != nil {
			return false
		}
		defer os.RemoveAll(dir)
		eng, err := storage.Open(storage.Options{Dir: dir, NoSync: true, SegmentMaxBytes: 128})
		if err != nil {
			return false
		}
		s, err := Open(dir, Options{Engine: eng})
		if err != nil {
			return false
		}
		r := rng.New(seed)
		truth := int64(0)
		s.Define("k", 1000)
		truth = 1000
		for i := 0; i < 150; i++ {
			switch r.Intn(5) {
			case 0:
				n := r.Range(1, 50)
				s.Credit("k", n)
				truth += n
			case 1:
				n := r.Range(1, 50)
				if ok, _ := s.Acquire("k", n); ok {
					s.Consume("k", n)
					truth -= n
				}
			case 2:
				n := r.Range(1, 80)
				taken, _ := s.Debit("k", n)
				truth -= taken
			case 3:
				got, _ := s.AcquireUpTo("k", r.Range(1, 40))
				if r.Bool(0.5) {
					s.Release("k", got)
				} // else leave held across restart: must come back as avail
			case 4:
				if r.Bool(0.3) {
					if err := eng.Checkpoint(); err != nil {
						return false
					}
				}
			}
		}
		held := s.Held("k")
		availBefore := s.Avail("k")
		if availBefore+held != truth {
			return false
		}
		eng.Close()
		s2, err := Open(dir, Options{})
		if err != nil {
			return false
		}
		defer s2.Close()
		return s2.Avail("k") == truth && s2.Held("k") == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkDurableConsume(b *testing.B) {
	s, err := Open(b.TempDir(), Options{NoSync: true})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	s.Define("k", 1<<50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ok, _ := s.Acquire("k", 1); ok {
			if err := s.Consume("k", 1); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func TestTornJournalTailRecovered(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	s.Define("k", 100)
	s.Credit("k", 50)
	s.Close()
	tearTail(t, dir, 3)
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("torn WAL tail not tolerated: %v", err)
	}
	defer s2.Close()
	// The torn Credit is lost — the safe direction (slack lost, not
	// minted).
	if got := s2.Avail("k"); got != 100 {
		t.Fatalf("avail = %d, want 100 (torn credit dropped)", got)
	}
}

// TestCrashTornMidGroupCommitBatchNeverMints simulates a crash that
// lands inside one group-commit batch: the spend reached disk intact,
// the credit after it is torn. Recovery must apply the intact prefix
// and drop the tail — losing the credit's slack, never minting AV — so
// the recovered balance stays at or below the arithmetic truth.
func TestCrashTornMidGroupCommitBatchNeverMints(t *testing.T) {
	testTornTailNeverMints(t, storage.Options{})
}

func testTornTailNeverMints(t *testing.T, opts storage.Options) {
	opts.Dir, opts.NoSync = t.TempDir(), true
	s, eng := openOn(t, opts)
	if err := s.Define("k", 100); err != nil {
		t.Fatal(err)
	}
	if ok, _ := s.Acquire("k", 30); !ok {
		t.Fatal("acquire")
	}
	if err := s.Consume("k", 30); err != nil {
		t.Fatal(err)
	}
	if err := s.Credit("k", 50); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	tearTail(t, opts.Dir, 4)

	s2, eng2 := openOn(t, opts)
	defer eng2.Close()
	// Truth if everything had committed: 100 - 30 + 50 = 120. The torn
	// credit is dropped, so exactly 70 — strictly below truth, no mint.
	if got := s2.Avail("k"); got != 70 {
		t.Fatalf("recovered avail = %d, want 70 (spend applied, torn credit dropped)", got)
	}
	if got := s2.Total("k"); got > 120 {
		t.Fatalf("recovered total = %d exceeds arithmetic truth 120: AV minted", got)
	}
	// The store must keep working past the repaired tail.
	if err := s2.Credit("k", 5); err != nil {
		t.Fatal(err)
	}
	if got := s2.Avail("k"); got != 75 {
		t.Fatalf("avail after post-recovery credit = %d, want 75", got)
	}
}

func TestConcurrentDurableOps(t *testing.T) {
	s := openStore(t, t.TempDir())
	defer s.Close()
	s.Define("k", 1_000_000)
	done := make(chan int64, 8)
	for g := 0; g < 8; g++ {
		go func(seed uint64) {
			r := rng.New(seed)
			var spent int64
			for i := 0; i < 100; i++ {
				n := r.Range(1, 20)
				if ok, err := s.Acquire("k", n); err == nil && ok {
					if err := s.Consume("k", n); err != nil {
						break
					}
					spent += n
				}
			}
			done <- spent
		}(uint64(g + 1))
	}
	var total int64
	for g := 0; g < 8; g++ {
		total += <-done
	}
	if s.Avail("k")+s.Held("k")+total != 1_000_000 {
		t.Fatalf("accounting: avail=%d held=%d spent=%d", s.Avail("k"), s.Held("k"), total)
	}
}

// TestConcurrentDurableOpsWithCheckpointer hammers the store with every
// class of durable op from many goroutines while the engine checkpoints
// (snapshot + truncate) underneath them, with real fsyncs so the group
// commit leader/follower protocol is exercised. Run under -race this
// checks the apply-under-lock / sync-after-unlock split; afterwards the
// books must balance in memory and survive a restart.
func TestConcurrentDurableOpsWithCheckpointer(t *testing.T) {
	dir := t.TempDir()
	st := &wal.Stats{}
	s, eng := openOn(t, storage.Options{Dir: dir, SegmentMaxBytes: 512, Stats: st})
	const initial = 1_000_000
	if err := s.Define("k", initial); err != nil {
		t.Fatal(err)
	}

	const workers = 6
	var wg sync.WaitGroup
	spent := make([]int64, workers)  // committed decrements and grants
	minted := make([]int64, workers) // credits
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rng.New(uint64(g + 1))
			for i := 0; i < 40; i++ {
				switch r.Intn(3) {
				case 0:
					n := r.Range(1, 20)
					if ok, err := s.Acquire("k", n); err == nil && ok {
						if err := s.Consume("k", n); err != nil {
							t.Errorf("consume: %v", err)
							return
						}
						spent[g] += n
					}
				case 1:
					n := r.Range(1, 10)
					if err := s.Credit("k", n); err != nil {
						t.Errorf("credit: %v", err)
						return
					}
					minted[g] += n
				case 2:
					n := r.Range(1, 15)
					taken, err := s.Debit("k", n)
					if err != nil {
						t.Errorf("debit: %v", err)
						return
					}
					spent[g] += taken
				}
			}
		}(g)
	}
	ckptDone := make(chan error, 1)
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				ckptDone <- nil
				return
			default:
				if err := eng.Checkpoint(); err != nil {
					ckptDone <- err
					return
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	if err := <-ckptDone; err != nil {
		t.Fatalf("checkpoint: %v", err)
	}

	truth := int64(initial)
	for g := 0; g < workers; g++ {
		truth += minted[g] - spent[g]
	}
	if got := s.Avail("k") + s.Held("k"); got != truth {
		t.Fatalf("in-memory balance %d, want %d", got, truth)
	}
	if st.RecordsSynced.Load() == 0 || st.Fsyncs.Load() == 0 {
		t.Fatalf("group commit never ran: %d records / %d fsyncs",
			st.RecordsSynced.Load(), st.Fsyncs.Load())
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if got := s2.Avail("k"); got != truth {
		t.Fatalf("recovered balance %d, want %d", got, truth)
	}
}

// BenchmarkDurableDecrementSerial measures the durable decrement fast
// path with real fsyncs and no concurrency: every op must wait for its
// own sync round, so fsyncs/op ≈ 1. The parallel variant below is the
// payoff comparison.
func BenchmarkDurableDecrementSerial(b *testing.B) {
	benchmarkDurableDecrement(b, func(body func()) {
		for i := 0; i < b.N; i++ {
			body()
		}
	})
}

// BenchmarkDurableDecrementParallel runs the same durable decrement
// from GOMAXPROCS goroutines. Group commit batches concurrent waiters
// behind one leader fsync, so fsyncs/op drops well below 1 at
// parallelism ≥ 4.
func BenchmarkDurableDecrementParallel(b *testing.B) {
	benchmarkDurableDecrement(b, func(body func()) {
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				body()
			}
		})
	})
}

func benchmarkDurableDecrement(b *testing.B, run func(body func())) {
	st := &wal.Stats{}
	s, err := Open(b.TempDir(), Options{Stats: st})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	if err := s.Define("k", 1<<50); err != nil {
		b.Fatal(err)
	}
	start := st.Fsyncs.Load()
	b.ResetTimer()
	run(func() {
		if ok, _ := s.Acquire("k", 1); ok {
			if err := s.Consume("k", 1); err != nil {
				b.Error(err)
			}
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(st.Fsyncs.Load()-start)/float64(b.N), "fsyncs/op")
}

// TestFoldedUpdatesRaceGrants: Delay Updates whose balance change rides
// inside their logged stock delta (one OpBalancedDelta each) race grants
// (Debit batches) on the same key's balance row. Both lock the row's
// stripe, so no change is lost: at the end the row equals the table's
// total, live and after a reopen, and the stock moved by exactly the
// updates' deltas.
func TestFoldedUpdatesRaceGrants(t *testing.T) {
	const key, initial, rounds = "k", 1 << 20, 200
	dir := t.TempDir()
	s, eng := openOn(t, storage.Options{Dir: dir, NoSync: true})
	if err := eng.Put(storage.Record{Key: key, Amount: initial}); err != nil {
		t.Fatal(err)
	}
	if err := s.Define(key, initial); err != nil {
		t.Fatal(err)
	}
	var folded atomic.Int64
	eng.SetApplyObserver(func(_ uint64, ops []storage.Op) {
		for i := range ops {
			if ops[i].Kind == storage.OpBalancedDelta {
				folded.Add(1)
			}
		}
	})
	tm := txn.NewManager(eng, lockmgr.Options{})
	var seq atomic.Uint64
	// update runs one local Delay Update of delta as the accelerator
	// does: hold, validate under the lock, spend, stage, log, commit.
	update := func(delta int64) error {
		if delta < 0 {
			if ok, err := s.Acquire(key, -delta); err != nil || !ok {
				return fmt.Errorf("acquire %d: %v %v", -delta, ok, err)
			}
		}
		tx := tm.Begin()
		if _, err := tx.ApplyDelta(context.Background(), key, delta); err != nil {
			tx.Abort()
			return err
		}
		if delta < 0 {
			if err := s.Spend(key, -delta); err != nil {
				tx.Abort()
				return err
			}
		}
		s.Stage(tx, key, delta)
		if err := tx.LogDelta(key, delta, seq.Add(1)); err != nil {
			tx.Abort()
			return err
		}
		if err := tx.Commit(); err != nil {
			return err
		}
		if delta > 0 {
			return s.Fund(key, delta)
		}
		return nil
	}
	var stock, granted atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for w := 0; w < 2; w++ {
		wg.Add(2)
		go func() { // updater: decrements and increments, all folded
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				delta := int64(-3)
				if i%3 == 0 {
					delta = 2
				}
				if err := update(delta); err != nil {
					errs <- err
					return
				}
				stock.Add(delta)
			}
		}()
		go func() { // granter: outbound transfers from the same row
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				n, err := s.Debit(key, 1)
				if err != nil {
					errs <- err
					return
				}
				granted.Add(n)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := folded.Load(); got != 2*rounds {
		t.Fatalf("%d of %d updates committed one balanced-delta op", got, 2*rounds)
	}
	want := initial + stock.Load() - granted.Load()
	row := func(eng *storage.Engine) int64 {
		v, ok, err := eng.GetMeta(storage.BalanceKey(key))
		n, _ := binary.Varint(v)
		if err != nil || !ok {
			t.Fatalf("balance row: found %v, %v", ok, err)
		}
		return n
	}
	if got, total := row(eng), s.Total(key); got != want || total != want {
		t.Fatalf("live: balance row %d, table total %d, want %d", got, total, want)
	}
	if v, _ := eng.Amount(key); v != initial+stock.Load() {
		t.Fatalf("live stock %d, want %d", v, initial+stock.Load())
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	s2, eng2 := openOn(t, storage.Options{Dir: dir, NoSync: true})
	defer eng2.Close()
	if got, total := row(eng2), s2.Total(key); got != want || total != want {
		t.Fatalf("reopened: balance row %d, table total %d, want %d", got, total, want)
	}
}
