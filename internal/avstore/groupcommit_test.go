package avstore

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"avdb/internal/rng"
	"avdb/internal/wal"
)

// avRecord hand-encodes one journal record exactly as appendXferLocked
// does, so crash tests can plant records the store never acknowledged.
func avRecord(op byte, key string, amount int64) []byte {
	p := []byte{op}
	p = binary.AppendUvarint(p, uint64(len(key)))
	p = append(p, key...)
	p = binary.AppendVarint(p, amount)
	return p
}

// walFrame wraps a payload in the WAL's on-disk framing (u32 length,
// u32 CRC32, payload).
func walFrame(payload []byte) []byte {
	buf := make([]byte, 8, 8+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
	return append(buf, payload...)
}

// tailSegment returns the path of the journal's highest-numbered
// segment file.
func tailSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "journal", "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no journal segments: %v", err)
	}
	sort.Strings(segs)
	return segs[len(segs)-1]
}

// TestConcurrentDurableOpsWithCheckpointer hammers the store with every
// class of durable op from many goroutines while a checkpointer loops
// snapshot+truncate underneath them, with real fsyncs so the group
// commit leader/follower protocol is exercised. Run under -race this
// checks the append-under-lock / sync-after-unlock split and the
// checkpoint's mid-flight lock release; afterwards the books must
// balance in memory and survive a restart.
func TestConcurrentDurableOpsWithCheckpointer(t *testing.T) {
	dir := t.TempDir()
	st := &wal.Stats{}
	s, err := Open(dir, Options{SegmentMaxBytes: 512, Stats: st})
	if err != nil {
		t.Fatal(err)
	}
	const initial = 1_000_000
	if err := s.Define("k", initial); err != nil {
		t.Fatal(err)
	}

	const workers = 6
	var wg sync.WaitGroup
	spent := make([]int64, workers)   // committed decrements
	minted := make([]int64, workers)  // credits
	settled := make([]int64, workers) // escrows resolved as settle (destroyed)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rng.New(uint64(g + 1))
			for i := 0; i < 40; i++ {
				switch r.Intn(4) {
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
				case 3:
					xfer := uint64(g)<<32 | uint64(i)
					taken, err := s.EscrowDebit("k", xfer, r.Range(1, 10))
					if err != nil || taken == 0 {
						continue
					}
					cancel := r.Bool(0.5)
					if _, err := s.ResolveEscrow(xfer, cancel); err != nil {
						t.Errorf("resolve: %v", err)
						return
					}
					if !cancel {
						settled[g] += taken
					}
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

	truth := int64(initial)
	for g := 0; g < workers; g++ {
		truth += minted[g] - spent[g] - settled[g]
	}
	if got := s.Avail("k") + s.Held("k"); got != truth {
		t.Fatalf("in-memory balance %d, want %d", got, truth)
	}
	if st.RecordsSynced.Load() == 0 || st.Fsyncs.Load() == 0 {
		t.Fatalf("group commit never ran: %d records / %d fsyncs",
			st.RecordsSynced.Load(), st.Fsyncs.Load())
	}
	if err := s.Close(); err != nil {
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
	for i := 0; i < b.N; i++ {
		if ok, _ := s.Acquire("k", 1); ok {
			if err := s.Consume("k", 1); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(st.Fsyncs.Load()-start)/float64(b.N), "fsyncs/op")
}

// BenchmarkDurableDecrementParallel runs the same durable decrement
// from GOMAXPROCS goroutines. Group commit batches concurrent waiters
// behind one leader fsync, so fsyncs/op drops well below 1 at
// parallelism ≥ 4.
func BenchmarkDurableDecrementParallel(b *testing.B) {
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
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if ok, _ := s.Acquire("k", 1); ok {
				if err := s.Consume("k", 1); err != nil {
					b.Error(err)
					return
				}
			}
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(st.Fsyncs.Load()-start)/float64(b.N), "fsyncs/op")
}

// TestCrashTornMidGroupCommitBatchNeverMints simulates a crash that
// lands inside one group-commit batch: the first record of the batch
// (a decrement) reached disk intact, the second (a credit) is torn.
// Recovery must apply the intact prefix and drop the tail — losing the
// credit's slack, never minting AV — so the recovered balance stays at
// or below the arithmetic truth.
func TestCrashTornMidGroupCommitBatchNeverMints(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	if err := s.Define("k", 100); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Plant the crashed batch on the journal tail: a complete spend of
	// 30 followed by a credit of 50 torn mid-frame.
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

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("recovery after torn batch: %v", err)
	}
	defer s2.Close()
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
