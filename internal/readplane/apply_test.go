package readplane

import (
	"context"
	"fmt"
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
	s.scan(func(_ string, v int64) bool {
		total += v
		return true
	})
	return total
}

// checkEqualsEngine compares the published view with the engine's own
// consistent pair once the writers are done.
func checkEqualsEngine(t *testing.T, h *harness) {
	t.Helper()
	amounts, lsn, err := h.eng.SnapshotAmounts()
	if err != nil {
		t.Fatal(err)
	}
	s := h.plane.Stock()
	if s.AppliedLSN != lsn || lsn != h.eng.LastLSN() {
		t.Fatalf("watermark %d, snapshot cursor %d, engine %d", s.AppliedLSN, lsn, h.eng.LastLSN())
	}
	if s.Len() != len(amounts) {
		t.Fatalf("view holds %d keys, engine %d", s.Len(), len(amounts))
	}
	for k, want := range amounts {
		if got, ok := s.Amount(k); !ok || got != want {
			t.Fatalf("%s = %d %v, engine %d", k, got, ok, want)
		}
	}
	if n := h.parked(); n != 0 {
		t.Fatalf("%d batches still parked with every writer done", n)
	}
}

// Committers on disjoint and on shared stripes fold their own batches
// in, racing each other into Apply. Every batch moves the catalog total
// by exactly -1, so a snapshot at watermark w must total seed - (w -
// seedLSN): it holds every batch up to w and nothing above it.
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
			} else if got := h.plane.Stock().AppliedLSN; got < lsn {
				waitErr <- fmt.Errorf("token %d satisfied at watermark %d", lsn, got)
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
			s := h.plane.Stock()
			if s.AppliedLSN < last {
				t.Errorf("watermark regressed: %d after %d", s.AppliedLSN, last)
				return
			}
			last = s.AppliedLSN
			if got, want := stockTotal(s), seedTotal-int64(s.AppliedLSN-seedLSN); got != want {
				t.Errorf("snapshot at LSN %d totals %d, want %d: not exactly the batches up to it", s.AppliedLSN, got, want)
				return
			}
			// Parked batches are strictly beyond the next one due.
			h.plane.mu.Lock()
			for l := range h.plane.st.pending {
				if l <= h.plane.st.applied+1 {
					t.Errorf("LSN %d parked at watermark %d", l, h.plane.st.applied)
				}
			}
			h.plane.mu.Unlock()
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
	if st := h.plane.Stats(); st.EventsApplied != writers*iters+1 || st.EventsStale != 0 || st.RYWViolations != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// Writers are already committing when the plane bootstraps: every batch
// is either inside Start's snapshot (parked, then discarded as stale)
// or applied after it. None is lost, none is applied twice.
func TestWritersDuringBootstrapLoseNoBatch(t *testing.T) {
	const (
		writers = 4
		iters   = 500
	)
	eng, err := storage.Open(storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	keys := seedKeys(t, eng, writers, 1<<20)
	seedLSN := eng.LastLSN()

	plane := New(Config{Site: 1, Engine: eng})
	defer plane.Close()
	eng.SetApplyObserver(plane.Apply)
	h := &harness{eng: eng, plane: plane}

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if _, err := eng.ApplyDelta(keys[w], -1); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for eng.LastLSN() < seedLSN+writers*iters/4 {
		time.Sleep(50 * time.Microsecond)
	}
	if plane.Stock() != nil || h.parked() == 0 {
		t.Fatalf("before Start: snapshot %v, %d parked", plane.Stock(), h.parked())
	}
	// Start's snapshot needs every stripe's read lock while committers
	// sit in Apply under their stripe's write lock: holding the plane
	// mutex across the snapshot would stop both sides here.
	started := make(chan error, 1)
	go func() { started <- plane.Start() }()
	select {
	case err := <-started:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Start is deadlocked against the committers")
	}
	boot := plane.Stock().AppliedLSN
	wg.Wait()

	checkEqualsEngine(t, h)
	st := plane.Stats()
	if st.EventsStale+st.EventsApplied != writers*iters {
		t.Fatalf("%d stale + %d applied, want %d batches accounted for", st.EventsStale, st.EventsApplied, writers*iters)
	}
	t.Logf("bootstrapped at LSN %d of %d: %d parked batches were already in the snapshot", boot, eng.LastLSN(), st.EventsStale)
}

// Apply runs under the committer's stripe write locks and
// SnapshotAmounts takes every stripe's read lock: a plane that took the
// snapshot inside Apply, or under the mutex Apply waits for, would stop
// here for good.
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
		go func() { // a session reader parked on the newest commit
			defer side.Done()
			for {
				select {
				case <-stop:
					return
				default:
					ctx, cancel := context.WithTimeout(context.Background(), time.Second)
					h.plane.WaitCaughtUp(ctx) //nolint:errcheck // only its locking matters here
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
