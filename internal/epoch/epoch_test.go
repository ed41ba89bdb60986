package epoch

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"avdb/internal/clock"
	"avdb/internal/metrics"
)

// fakeSync records calls and the highest LSN requested durable.
type fakeSync struct {
	mu    sync.Mutex
	calls int
	maxTo uint64
	err   error
}

func (f *fakeSync) sync(lsn uint64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls++
	if lsn > f.maxTo {
		f.maxTo = lsn
	}
	return f.err
}

func (f *fakeSync) snapshot() (int, uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls, f.maxTo
}

func TestIntervalCloseReleasesCommits(t *testing.T) {
	fs := &fakeSync{}
	st := &Stats{CommitsPerEpoch: metrics.NewHistogram(), AckWait: metrics.NewHistogram()}
	m := New(Options{Interval: time.Millisecond, Sync: fs.sync, Stats: st})
	defer m.Close()

	const n = 8
	var wg sync.WaitGroup
	epochs := make([]uint64, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ep, err := m.Commit(uint64(i + 1))
			if err != nil {
				t.Errorf("commit %d: %v", i, err)
			}
			epochs[i] = ep
		}(i)
	}
	wg.Wait()
	calls, maxTo := fs.snapshot()
	if maxTo < n {
		t.Fatalf("covering sync reached %d, want >= %d", maxTo, n)
	}
	if calls >= n {
		t.Fatalf("%d syncs for %d commits: no amortization", calls, n)
	}
	if got := st.Commits.Load(); got != n {
		t.Fatalf("Commits = %d, want %d", got, n)
	}
	if m.Durable() == 0 {
		t.Fatal("no epoch became durable")
	}
	for i, ep := range epochs {
		if ep == 0 {
			t.Fatalf("commit %d rode epoch 0", i)
		}
		if ep > m.Durable() {
			t.Fatalf("commit %d released from epoch %d before it was durable (durable=%d)", i, ep, m.Durable())
		}
	}
}

func TestSizeBasedEarlyClose(t *testing.T) {
	fs := &fakeSync{}
	st := &Stats{}
	// Interval far beyond the test deadline: only the size cap can close.
	m := New(Options{Interval: time.Hour, MaxCommits: 4, Sync: fs.sync, Stats: st})
	defer m.Close()

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := m.Commit(uint64(i + 1)); err != nil {
				t.Errorf("commit: %v", err)
			}
		}(i)
	}
	wg.Wait()
	if st.EarlyCloses.Load() != 1 {
		t.Fatalf("EarlyCloses = %d, want 1", st.EarlyCloses.Load())
	}
	if calls, _ := fs.snapshot(); calls != 1 {
		t.Fatalf("syncs = %d, want 1", calls)
	}
}

func TestVirtualClockClose(t *testing.T) {
	vc := clock.NewVirtual(time.Unix(0, 0))
	fs := &fakeSync{}
	m := New(Options{Interval: 2 * time.Millisecond, Clock: vc, Sync: fs.sync})
	defer m.Close()

	done := make(chan uint64, 1)
	go func() {
		ep, err := m.Commit(7)
		if err != nil {
			t.Errorf("commit: %v", err)
		}
		done <- ep
	}()
	// Wait for the commit to arm the epoch timer, then advance past it.
	deadline := time.Now().Add(5 * time.Second)
	for vc.Pending() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("epoch timer never armed")
		}
		time.Sleep(100 * time.Microsecond)
	}
	vc.Advance(2 * time.Millisecond)
	select {
	case ep := <-done:
		if ep != 1 {
			t.Fatalf("first epoch numbered %d, want 1", ep)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("commit never released after the virtual interval elapsed")
	}
	if _, maxTo := fs.snapshot(); maxTo != 7 {
		t.Fatalf("synced to %d, want 7", maxTo)
	}
}

func TestSyncErrorPropagates(t *testing.T) {
	boom := errors.New("disk gone")
	fs := &fakeSync{err: boom}
	m := New(Options{Interval: time.Millisecond, Sync: fs.sync})
	defer m.Close()
	if _, err := m.Commit(1); !errors.Is(err, boom) {
		t.Fatalf("Commit error = %v, want %v", err, boom)
	}
	if m.Durable() != 0 {
		t.Fatalf("failed epoch published durable %d", m.Durable())
	}
}

func TestCloseFlushesOpenEpoch(t *testing.T) {
	fs := &fakeSync{}
	m := New(Options{Interval: time.Hour, Sync: fs.sync})
	released := make(chan error, 1)
	go func() {
		_, err := m.Commit(3)
		released <- err
	}()
	// Wait until the commit is enqueued on the open epoch.
	deadline := time.Now().Add(5 * time.Second)
	for {
		m.mu.Lock()
		armed := m.cur != nil
		m.mu.Unlock()
		if armed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("commit never opened an epoch")
		}
		time.Sleep(100 * time.Microsecond)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	select {
	case err := <-released:
		if err != nil {
			t.Fatalf("commit released with %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not release the pending commit")
	}
	if _, maxTo := fs.snapshot(); maxTo != 3 {
		t.Fatalf("Close synced to %d, want 3", maxTo)
	}
	if _, err := m.Commit(4); !errors.Is(err, ErrClosed) {
		t.Fatalf("Commit after Close = %v, want ErrClosed", err)
	}
}

func TestEpochNumbersMonotonic(t *testing.T) {
	fs := &fakeSync{}
	m := New(Options{Interval: 200 * time.Microsecond, Sync: fs.sync})
	defer m.Close()
	var last uint64
	for i := 0; i < 5; i++ {
		ep, err := m.Commit(uint64(i + 1))
		if err != nil {
			t.Fatal(err)
		}
		if ep < last {
			t.Fatalf("epoch regressed: %d after %d", ep, last)
		}
		last = ep
		// Let the epoch close so the next commit opens a fresh one.
		time.Sleep(time.Millisecond)
	}
	if last < 2 {
		t.Fatalf("expected multiple epochs across spaced commits, got %d", last)
	}
	if cur := m.Current(); cur != last+1 && cur != last {
		t.Fatalf("Current() = %d after epoch %d", cur, last)
	}
}

// gateSync blocks every covering sync until the gate opens, simulating
// an fsync in flight.
type gateSync struct {
	gate chan struct{}
	fs   fakeSync
}

func (g *gateSync) sync(lsn uint64) error {
	<-g.gate
	return g.fs.sync(lsn)
}

// TestEnqueuePipelinesAcrossEpochs drives the async half of the API:
// with epoch 1's covering sync deliberately stalled, Enqueue must keep
// accepting commits into epoch 2 without blocking.
func TestEnqueuePipelinesAcrossEpochs(t *testing.T) {
	gs := &gateSync{gate: make(chan struct{})}
	m := New(Options{Interval: time.Hour, MaxCommits: 2, Sync: gs.sync})
	defer m.Close()

	t1, err := m.Enqueue(1)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := m.Enqueue(2)
	if err != nil {
		t.Fatal(err)
	}
	// Epoch 1 hit MaxCommits and its sync is now parked on the gate.
	// The next enqueues must land on epoch 2 without blocking.
	t3, err := m.Enqueue(3)
	if err != nil {
		t.Fatal(err)
	}
	if m.Durable() != 0 {
		t.Fatalf("durable %d while every sync is gated", m.Durable())
	}
	select {
	case <-t1.e.done:
		t.Fatal("ticket released before its covering sync ran")
	default:
	}
	t4, err := m.Enqueue(4) // tips epoch 2 over MaxCommits too
	if err != nil {
		t.Fatal(err)
	}
	close(gs.gate)
	for i, tk := range []Ticket{t1, t2, t3, t4} {
		ep, err := tk.Wait()
		if err != nil {
			t.Fatalf("ticket %d: %v", i, err)
		}
		// The first two commits rode epoch 1; those enqueued during its
		// sync rode epoch 2.
		if want := uint64(i/2 + 1); ep != want {
			t.Fatalf("ticket %d rode epoch %d, want %d", i, ep, want)
		}
	}
	if m.Durable() != 2 {
		t.Fatalf("durable %d after both epochs synced, want 2", m.Durable())
	}
	if _, maxTo := gs.fs.snapshot(); maxTo != 4 {
		t.Fatalf("covering syncs reached LSN %d, want 4", maxTo)
	}
}

// TestTicketCompletesAfterVirtualClose holds a ticket across a
// virtual-clock epoch boundary: Wait blocks until the interval elapses,
// then returns the epoch with a nil error.
func TestTicketCompletesAfterVirtualClose(t *testing.T) {
	vc := clock.NewVirtual(time.Unix(0, 0))
	fs := &fakeSync{}
	m := New(Options{Interval: 2 * time.Millisecond, Clock: vc, Sync: fs.sync})
	defer m.Close()

	tk, err := m.Enqueue(9)
	if err != nil {
		t.Fatal(err)
	}
	waited := make(chan error, 1)
	go func() {
		ep, err := tk.Wait()
		if err == nil && ep != 1 {
			err = fmt.Errorf("rode epoch %d, want 1", ep)
		}
		waited <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for vc.Pending() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("epoch timer never armed")
		}
		time.Sleep(100 * time.Microsecond)
	}
	select {
	case err := <-waited:
		t.Fatalf("ticket released before the virtual interval elapsed (%v)", err)
	default:
	}
	vc.Advance(2 * time.Millisecond)
	select {
	case err := <-waited:
		if err != nil {
			t.Fatalf("Wait after a clean close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ticket never completed after the virtual interval elapsed")
	}
	if _, maxTo := fs.snapshot(); maxTo != 9 {
		t.Fatalf("synced to %d, want 9", maxTo)
	}
}

// TestTornEpochKeepsAckedWatermark crashes the covering sync of a later
// epoch and requires the durable watermark to stay where the last acked
// epoch left it: a torn epoch loses only its own unacknowledged
// commits, never the contract that acked commits are durable.
func TestTornEpochKeepsAckedWatermark(t *testing.T) {
	fs := &fakeSync{}
	m := New(Options{Interval: time.Millisecond, Sync: fs.sync})
	defer m.Close()

	if ep, err := m.Commit(1); err != nil || ep != 1 {
		t.Fatalf("first commit = (%d, %v)", ep, err)
	}
	if m.Durable() != 1 {
		t.Fatalf("durable %d after a clean epoch, want 1", m.Durable())
	}
	boom := errors.New("torn write")
	fs.mu.Lock()
	fs.err = boom
	fs.mu.Unlock()
	tk, err := m.Enqueue(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tk.Wait(); !errors.Is(err, boom) {
		t.Fatalf("torn epoch Wait error = %v, want %v", err, boom)
	}
	if m.Durable() != 1 {
		t.Fatalf("durable moved to %d through a failed sync, want 1", m.Durable())
	}
}

func TestConcurrentCommitsShareSyncs(t *testing.T) {
	fs := &fakeSync{}
	m := New(Options{Interval: 500 * time.Microsecond, Sync: fs.sync})
	defer m.Close()
	const workers, per = 8, 25
	var lsn atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := m.Commit(lsn.Add(1)); err != nil {
					t.Errorf("commit: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	calls, maxTo := fs.snapshot()
	if maxTo != workers*per {
		t.Fatalf("synced to %d, want %d", maxTo, workers*per)
	}
	if calls >= workers*per/2 {
		t.Fatalf("%d syncs for %d commits: epochs are not batching", calls, workers*per)
	}
}
