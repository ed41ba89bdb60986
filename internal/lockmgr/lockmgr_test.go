package lockmgr

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"avdb/internal/rng"
)

func ctxBg() context.Context { return context.Background() }

// heldKey reports the key txn holds, if any.
func heldKey(m *Manager, txn TxnID) (string, bool) {
	hs := m.heldShardOf(txn)
	hs.mu.Lock()
	defer hs.mu.Unlock()
	key, ok := hs.held[txn]
	return key, ok
}

func TestExclusiveBlocksOthers(t *testing.T) {
	m := New(Options{WaitTimeout: 50 * time.Millisecond})
	if err := m.Acquire(ctxBg(), 1, "k", Exclusive); err != nil {
		t.Fatal(err)
	}
	for txn := TxnID(2); txn <= 3; txn++ {
		if err := m.Acquire(ctxBg(), txn, "k", Exclusive); !errors.Is(err, ErrTimeout) {
			t.Fatalf("txn %d behind X: %v, want timeout", txn, err)
		}
	}
	if err := m.Acquire(ctxBg(), 4, "other", Exclusive); err != nil {
		t.Fatalf("unrelated key: %v", err)
	}
}

func TestReleaseWakesWaiter(t *testing.T) {
	m := New(Options{})
	if err := m.Acquire(ctxBg(), 1, "k", Exclusive); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() { got <- m.Acquire(ctxBg(), 2, "k", Exclusive) }()
	time.Sleep(10 * time.Millisecond)
	m.ReleaseAll(1)
	select {
	case err := <-got:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("waiter not woken")
	}
	if key, ok := heldKey(m, 2); !ok || key != "k" {
		t.Fatalf("txn 2 holds %q,%v after wake, want k", key, ok)
	}
	if _, ok := heldKey(m, 1); ok {
		t.Fatal("txn 1 still holds a key after ReleaseAll")
	}
}

func TestReentrantAcquire(t *testing.T) {
	m := New(Options{})
	for i := 0; i < 2; i++ {
		if err := m.Acquire(ctxBg(), 1, "k", Exclusive); err != nil {
			t.Fatalf("acquire %d: %v", i, err)
		}
	}
	// One release frees it: a re-acquire is not counted.
	m.ReleaseAll(1)
	if err := m.Acquire(ctxBg(), 2, "k", Exclusive); err != nil {
		t.Fatalf("lock not free after one ReleaseAll: %v", err)
	}
}

// TestSecondKeyRefused: an owner holding one key is refused a second at
// once, keeps the first, and can lock another key after releasing. The
// interleaving that could deadlock (1 holds a and wants b, 2 holds b and
// wants a) therefore never waits.
func TestSecondKeyRefused(t *testing.T) {
	m := New(Options{WaitTimeout: 5 * time.Second})
	if err := m.Acquire(ctxBg(), 1, "a", Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(ctxBg(), 2, "b", Exclusive); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := m.Acquire(ctxBg(), 1, "b", Exclusive); !errors.Is(err, ErrSecondKey) {
		t.Fatalf("1 -> b: %v, want ErrSecondKey", err)
	}
	if err := m.Acquire(ctxBg(), 2, "a", Exclusive); !errors.Is(err, ErrSecondKey) {
		t.Fatalf("2 -> a: %v, want ErrSecondKey", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("refusal waited %v", d)
	}
	if key, _ := heldKey(m, 1); key != "a" {
		t.Fatalf("txn 1 holds %q after refusal, want a", key)
	}
	m.ReleaseAll(2)
	if err := m.Acquire(ctxBg(), 3, "b", Exclusive); err != nil {
		t.Fatalf("b not free after its owner released: %v", err)
	}
	m.ReleaseAll(1)
	if err := m.Acquire(ctxBg(), 1, "c", Exclusive); err != nil {
		t.Fatalf("txn 1 after release: %v", err)
	}
}

func TestFIFOOrdering(t *testing.T) {
	m := New(Options{})
	m.Acquire(ctxBg(), 1, "k", Exclusive)
	var order []int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 2; i <= 4; i++ {
		wg.Add(1)
		txn := TxnID(i)
		go func() {
			defer wg.Done()
			if err := m.Acquire(ctxBg(), txn, "k", Exclusive); err != nil {
				t.Errorf("txn %d: %v", txn, err)
				return
			}
			mu.Lock()
			order = append(order, int(txn))
			mu.Unlock()
			time.Sleep(5 * time.Millisecond)
			m.ReleaseAll(txn)
		}()
		time.Sleep(15 * time.Millisecond) // force distinct queue positions
	}
	m.ReleaseAll(1)
	wg.Wait()
	if fmt.Sprint(order) != "[2 3 4]" {
		t.Fatalf("grant order = %v, want [2 3 4]", order)
	}
}

func TestReleaseAll(t *testing.T) {
	m := New(Options{WaitTimeout: 50 * time.Millisecond})
	m.ReleaseAll(7) // holds nothing: a no-op
	if err := m.Acquire(ctxBg(), 7, "a", Exclusive); err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(7)
	if _, ok := heldKey(m, 7); ok {
		t.Fatal("txn 7 still holds a key after ReleaseAll")
	}
	if err := m.Acquire(ctxBg(), 8, "a", Exclusive); err != nil {
		t.Fatalf("lock not actually free: %v", err)
	}
	m.ReleaseAll(7) // a second release must not free txn 8's lock
	if err := m.Acquire(ctxBg(), 9, "a", Exclusive); err == nil {
		t.Fatal("txn 9 got a lock txn 8 holds")
	} else if !errors.Is(err, ErrTimeout) {
		t.Fatalf("txn 9: %v, want timeout", err)
	}
}

func TestTimeoutRemovesFromQueue(t *testing.T) {
	m := New(Options{WaitTimeout: 30 * time.Millisecond})
	m.Acquire(ctxBg(), 1, "k", Exclusive)
	if err := m.Acquire(ctxBg(), 2, "k", Exclusive); !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v", err)
	}
	// After the timed-out waiter is gone, release must not grant to it.
	m.ReleaseAll(1)
	if err := m.Acquire(ctxBg(), 3, "k", Exclusive); err != nil {
		t.Fatalf("txn 3: %v", err)
	}
	if _, ok := heldKey(m, 2); ok {
		t.Fatal("timed-out txn 2 somehow holds the lock")
	}
}

func TestContextCancellation(t *testing.T) {
	m := New(Options{})
	m.Acquire(ctxBg(), 1, "k", Exclusive)
	ctx, cancel := context.WithCancel(ctxBg())
	go func() { time.Sleep(10 * time.Millisecond); cancel() }()
	if err := m.Acquire(ctx, 2, "k", Exclusive); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
}

// TestNoConflictingGrants hammers the manager and asserts the core safety
// property: never two holders of one key.
func TestNoConflictingGrants(t *testing.T) {
	m := New(Options{WaitTimeout: 2 * time.Second})
	keys := []string{"a", "b", "c"}
	var inCS [3]atomic.Int32
	var violations atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		seed := uint64(g + 1)
		go func() {
			defer wg.Done()
			r := rng.New(seed)
			for i := 0; i < 200; i++ {
				txn := TxnID(uint64(seed)*100000 + uint64(i))
				ki := r.Intn(len(keys))
				if err := m.Acquire(ctxBg(), txn, keys[ki], Exclusive); err != nil {
					continue // timeout: fine, just skip
				}
				if inCS[ki].Add(1) != 1 {
					violations.Add(1)
				}
				inCS[ki].Add(-1)
				m.ReleaseAll(txn)
			}
		}()
	}
	wg.Wait()
	if violations.Load() != 0 {
		t.Fatalf("%d mutual-exclusion violations", violations.Load())
	}
}

func BenchmarkUncontendedAcquireRelease(b *testing.B) {
	m := New(Options{})
	for i := 0; i < b.N; i++ {
		txn := TxnID(i)
		if err := m.Acquire(ctxBg(), txn, "k", Exclusive); err != nil {
			b.Fatal(err)
		}
		m.ReleaseAll(txn)
	}
}

// BenchmarkContendedAcquireRelease runs every goroutine on one key, so
// most acquisitions queue and are granted by a release hand-off.
func BenchmarkContendedAcquireRelease(b *testing.B) {
	m := New(Options{})
	var next atomic.Uint64
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			txn := TxnID(next.Add(1))
			if err := m.Acquire(ctxBg(), txn, "k", Exclusive); err != nil {
				b.Error(err)
				return
			}
			m.ReleaseAll(txn)
		}
	})
}
