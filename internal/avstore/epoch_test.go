package avstore

import (
	"errors"
	"os"
	"sync"
	"testing"
	"time"

	"avdb/internal/av"
	"avdb/internal/epoch"
	"avdb/internal/metrics"
	"avdb/internal/wal"
)

// TestEpochModeAckedCommitsAreDurable pins the epoch-mode ack
// contract: every durable op that returned success has its journal
// record covered by the WAL's durable watermark the moment it returns —
// a crash at any point after the ack (including between one epoch's
// close and the next's fsync) can only lose records that were never
// acknowledged. Interval 0 holds per-op group commit to the same
// contract: both waits are one code path (syncToAsync).
func TestEpochModeAckedCommitsAreDurable(t *testing.T) {
	for _, interval := range []time.Duration{200 * time.Microsecond, 0} {
		t.Run(interval.String(), func(t *testing.T) { testAckedCommitsAreDurable(t, interval) })
	}
}

func testAckedCommitsAreDurable(t *testing.T, interval time.Duration) {
	dir := t.TempDir()
	st := &epoch.Stats{}
	ws := &wal.Stats{}
	s, err := Open(dir, Options{
		EpochInterval: interval,
		EpochStats:    st,
		Stats:         ws,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Define("k", 1_000_000); err != nil {
		t.Fatal(err)
	}

	const workers, per = 8, 20
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if ok, err := s.Acquire("k", 1); err != nil || !ok {
					t.Errorf("acquire: ok=%v err=%v", ok, err)
					return
				}
				if err := s.Consume("k", 1); err != nil {
					t.Errorf("consume: %v", err)
					return
				}
				// The ack contract: the record this op appended is already
				// durable. LSNs are dense, so covering the whole prefix
				// below is equivalent per op; assert the watermark never
				// trails an acknowledged op's journal tail by a whole
				// unsynced epoch.
				if got, tail := s.journal.DurableLSN(), s.journal.NextLSN()-1; got == 0 && tail > 0 {
					t.Errorf("acked consume with durable watermark 0 (tail %d)", got)
					return
				}
			}
		}()
	}
	wg.Wait()
	// Quiesced: no op is in flight, so everything acknowledged is exactly
	// everything appended, and all of it must be durable.
	if got, want := s.journal.DurableLSN(), s.journal.NextLSN()-1; got != want {
		t.Fatalf("durable watermark %d after quiesce, want %d: acked commits not durable", got, want)
	}
	// workers*per consumes plus the initial Define all rode epochs.
	if interval > 0 && (st.Epochs.Load() == 0 || st.Commits.Load() != workers*per+1) {
		t.Fatalf("epoch stats: %d epochs / %d commits, want >0 / %d",
			st.Epochs.Load(), st.Commits.Load(), workers*per+1)
	}
	if f := ws.Fsyncs.Load(); interval > 0 && f >= workers*per {
		t.Fatalf("%d fsyncs for %d commits: epochs did not amortize", f, workers*per)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart in the same mode and verify no acknowledged commit was
	// lost: all workers*per spends must be reflected.
	s2, err := Open(dir, Options{EpochInterval: interval, EpochStats: st, Stats: ws})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if got, want := s2.Avail("k"), int64(1_000_000-workers*per); got != want {
		t.Fatalf("recovered avail %d, want %d", got, want)
	}
	// Consuming more than is held fails without waiting on the journal.
	fsyncs, commits := ws.Fsyncs.Load(), st.Commits.Load()
	if err := s2.Consume("k", 1); !errors.Is(err, av.ErrOverspend) {
		t.Fatalf("consume with nothing held: err = %v, want ErrOverspend", err)
	}
	if f, c := ws.Fsyncs.Load(), st.Commits.Load(); f != fsyncs || c != commits {
		t.Fatalf("failed consume waited: fsyncs %d→%d, epoch commits %d→%d", fsyncs, f, commits, c)
	}
}

// TestCrashTornMidEpochNeverMints extends the torn-mid-batch crash test
// to epoch mode: a crash lands between an epoch's close and the
// completion of its covering fsync, so the journal tail holds an intact
// acknowledged decrement followed by a torn, never-acknowledged credit
// from the same epoch. Epoch-mode recovery must apply the intact prefix
// and drop the tail — lost slack, never minted AV.
func TestCrashTornMidEpochNeverMints(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{EpochInterval: 200 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Define("k", 100); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Plant the crashed epoch on the journal tail: the decrease was
	// journaled before its ack escaped (escrow rule), the increase's
	// record is torn mid-frame by the crash.
	f, err := os.OpenFile(tailSegment(t, dir), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(walFrame(avRecord(opSpend, "k", 30))); err != nil {
		t.Fatal(err)
	}
	torn := walFrame(avRecord(opCredit, "k", 50))
	if _, err := f.Write(torn[:len(torn)-4]); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{EpochInterval: 200 * time.Microsecond})
	if err != nil {
		t.Fatalf("epoch-mode recovery after torn epoch: %v", err)
	}
	defer s2.Close()
	if got := s2.Avail("k"); got != 70 {
		t.Fatalf("recovered avail = %d, want 70 (spend applied, torn credit dropped)", got)
	}
	if got := s2.Total("k"); got > 120 {
		t.Fatalf("recovered total = %d exceeds arithmetic truth 120: AV minted", got)
	}
	// The recovered store keeps committing through fresh epochs.
	if err := s2.Credit("k", 5); err != nil {
		t.Fatal(err)
	}
	if got := s2.Avail("k"); got != 75 {
		t.Fatalf("avail after post-recovery credit = %d, want 75", got)
	}
}

// TestEpochModeCheckpointUnderLoad runs durable ops against an
// epoch-mode store while checkpoints snapshot and truncate underneath:
// Checkpoint syncs its boundary directly (it must not wait out an open
// epoch), and the books must balance across a restart.
func TestEpochModeCheckpointUnderLoad(t *testing.T) {
	dir := t.TempDir()
	st := &epoch.Stats{
		CommitsPerEpoch: metrics.NewHistogram(),
		CloseLatency:    metrics.NewHistogram(),
		AckWait:         metrics.NewHistogram(),
	}
	s, err := Open(dir, Options{
		SegmentMaxBytes: 512,
		EpochInterval:   200 * time.Microsecond,
		EpochMaxCommits: 8,
		EpochStats:      st,
	})
	if err != nil {
		t.Fatal(err)
	}
	const initial = 10_000
	if err := s.Define("k", initial); err != nil {
		t.Fatal(err)
	}
	const workers, per = 4, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if ok, err := s.Acquire("k", 1); err == nil && ok {
					if err := s.Consume("k", 1); err != nil {
						t.Errorf("consume: %v", err)
						return
					}
				}
			}
		}()
	}
	stop := make(chan struct{})
	ckptDone := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				ckptDone <- nil
				return
			default:
				if err := s.Checkpoint(); err != nil {
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
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if got, want := s2.Avail("k"), int64(initial-workers*per); got != want {
		t.Fatalf("recovered avail %d, want %d", got, want)
	}
	if n := st.CommitsPerEpoch.Snapshot().Count; n == 0 {
		t.Fatal("CommitsPerEpoch histogram never observed")
	}
}
