package readplane

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"avdb/internal/storage"
)

// seedKeys puts n keys of amount each, one batch, and returns them.
func seedKeys(tb testing.TB, eng *storage.Engine, n int, amount int64) []string {
	tb.Helper()
	keys := make([]string, n)
	ops := make([]storage.Op, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("product-%04d", i)
		ops[i] = storage.PutOp(storage.Record{Key: keys[i], Amount: amount})
	}
	if err := eng.Apply(ops...); err != nil {
		tb.Fatal(err)
	}
	return keys
}

// stockTotal is the sum of every amount in the snapshot.
func stockTotal(s *StockSnapshot) (total int64) {
	for _, v := range s.Amounts {
		total += v
	}
	return total
}

// checkEqualsEngine compares a catalog read with the engine's own
// consistent pair once the writers are done.
func checkEqualsEngine(t *testing.T, h *harness) {
	t.Helper()
	amounts, lsn, err := h.eng.SnapshotAmounts()
	if err != nil {
		t.Fatal(err)
	}
	s := stock(t, h.plane)
	if s.AppliedLSN != lsn || lsn != h.eng.LastLSN() {
		t.Fatalf("stamp %d, snapshot cursor %d, engine %d", s.AppliedLSN, lsn, h.eng.LastLSN())
	}
	if !reflect.DeepEqual(s.Amounts, amounts) {
		t.Fatalf("catalog read %v, engine %v", s.Amounts, amounts)
	}
}

// Committers on disjoint and on shared stripes race each other. Every
// batch moves the catalog total by exactly -1, so a catalog read
// stamped w must total seed - (w - seedLSN): it holds every batch up to
// w and nothing above it.
func TestConcurrentCommittersKeepWatermarkContiguous(t *testing.T) {
	const (
		writers = 8
		iters   = 300
		amount  = 1 << 20
	)
	h := newHarness(t, 1, storage.Options{}, Config{})
	keys := seedKeys(t, h.eng, 2*writers, amount)
	seedLSN := h.eng.LastLSN()
	seedTotal := int64(len(keys)) * amount
	finalLSN := seedLSN + writers*iters

	// A token for every 50th LSN up to the last: all must be woken.
	ctx := waitCtx(t)
	var waits sync.WaitGroup
	waitErr := make(chan error, writers*iters/50+1)
	for lsn := seedLSN + 50; lsn <= finalLSN; lsn += 50 {
		waits.Add(1)
		go func() {
			defer waits.Done()
			if err := h.plane.WaitFor(ctx, Token{Site: 1, LSN: lsn}); err != nil {
				waitErr <- fmt.Errorf("token %d: %w", lsn, err)
			} else if s, err := h.plane.Stock(); err != nil || s.AppliedLSN < lsn {
				waitErr <- fmt.Errorf("token %d satisfied, then a read stamped %d (%v)", lsn, s.AppliedLSN, err)
			}
		}()
	}

	done := make(chan struct{})
	var poll sync.WaitGroup
	poll.Add(1)
	go func() {
		defer poll.Done()
		var last uint64
		for stopped := false; !stopped; {
			select {
			case <-done:
				stopped = true // one more look, at the final state
			default:
			}
			s, err := h.plane.Stock()
			if err != nil {
				t.Error(err)
				return
			}
			if s.AppliedLSN < last {
				t.Errorf("stamp regressed: %d after %d", s.AppliedLSN, last)
				return
			}
			last = s.AppliedLSN
			if got, want := stockTotal(s), seedTotal-int64(s.AppliedLSN-seedLSN); got != want {
				t.Errorf("catalog read stamped %d totals %d, want %d: not exactly the batches up to it", s.AppliedLSN, got, want)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			own, next := keys[w], keys[writers+w%2] // next: shared by half the writers
			for i := 0; i < iters; i++ {
				var err error
				switch i % 3 {
				case 0: // a stripe of its own
					_, err = h.eng.ApplyDelta(own, -1)
				case 1: // a contended stripe
					_, err = h.eng.ApplyDelta(keys[writers], -1)
				default: // several stripes in one batch
					err = h.eng.Apply(storage.DeltaOp(own, -3), storage.DeltaOp(next, 1), storage.DeltaOp(keys[2*writers-1], 1))
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	poll.Wait()
	waits.Wait()
	close(waitErr)
	for err := range waitErr {
		t.Error(err)
	}
	if h.eng.LastLSN() != finalLSN {
		t.Fatalf("engine at LSN %d, want %d", h.eng.LastLSN(), finalLSN)
	}
	checkEqualsEngine(t, h)
}

// The plane's observer runs under the committer's stripe write locks
// and SnapshotAmounts takes every stripe's read lock: an observer that
// read the engine, or waited on a catalog reader, would stop here for
// good.
func TestApplyDoesNotDeadlockWithSnapshotAmounts(t *testing.T) {
	const (
		writers = 64
		iters   = 30
	)
	h := newHarness(t, 1, storage.Options{}, Config{})
	keys := seedKeys(t, h.eng, 256, 1<<20)

	finished := make(chan struct{})
	go func() {
		defer close(finished)
		stop := make(chan struct{})
		var side sync.WaitGroup
		side.Add(2)
		go func() { // the engine-wide reader
			defer side.Done()
			for {
				select {
				case <-stop:
					return
				default:
					if _, _, err := h.eng.SnapshotAmounts(); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
		go func() { // a session reader parked on the next commit
			defer side.Done()
			for {
				select {
				case <-stop:
					return
				default:
					ctx, cancel := context.WithTimeout(context.Background(), time.Second)
					h.plane.WaitFor(ctx, Mint(1, h.eng.LastLSN()+1)) //nolint:errcheck // only its locking matters here
					cancel()
				}
			}
		}()
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ops := make([]storage.Op, 8)
				for i := 0; i < iters; i++ {
					for j := range ops { // 8 keys a batch: several stripes at once
						ops[j] = storage.DeltaOp(keys[(w*31+i*7+j*13)%len(keys)], -1)
					}
					if err := h.eng.Apply(ops...); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		close(stop)
		side.Wait()
	}()
	select {
	case <-finished:
	case <-time.After(60 * time.Second):
		t.Fatal("committers, SnapshotAmounts and the plane are deadlocked")
	}
	checkEqualsEngine(t, h)
}
