package txn

import (
	"context"
	"encoding/binary"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"avdb/internal/lockmgr"
	"avdb/internal/storage"
)

func newMgr(t *testing.T) *Manager {
	t.Helper()
	eng, err := storage.Open(storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	return NewManager(eng, lockmgr.Options{WaitTimeout: 200 * time.Millisecond})
}

func bg() context.Context { return context.Background() }

func TestCommitAppliesWrites(t *testing.T) {
	m := newMgr(t)
	m.Engine().Put(storage.Record{Key: "p", Amount: 100})
	tx := m.Begin()
	if _, err := tx.ApplyDelta(bg(), "p", -40); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.ApplyDelta(bg(), "p", -5); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if n, _ := m.Engine().Amount("p"); n != 55 {
		t.Fatalf("amount = %d, want 55", n)
	}
}

func TestAbortDiscardsWrites(t *testing.T) {
	m := newMgr(t)
	m.Engine().Put(storage.Record{Key: "p", Amount: 100})
	tx := m.Begin()
	if _, err := tx.ApplyDelta(bg(), "p", -99); err != nil {
		t.Fatal(err)
	}
	tx.Abort()
	if n, _ := m.Engine().Amount("p"); n != 100 {
		t.Fatalf("abort leaked writes: amount = %d", n)
	}
	// Locks must be free.
	tx2 := m.Begin()
	if _, err := tx2.ApplyDelta(bg(), "p", -1); err != nil {
		t.Fatalf("lock not released by abort: %v", err)
	}
	tx2.Commit()
}

func TestReadYourOwnWrites(t *testing.T) {
	m := newMgr(t)
	m.Engine().Put(storage.Record{Key: "p", Amount: 10})
	tx := m.Begin()
	defer tx.Abort()
	if n, err := tx.ApplyDelta(bg(), "p", 5); err != nil || n != 15 {
		t.Fatalf("first delta projects %d, %v; want 15", n, err)
	}
	if n, err := tx.ApplyDelta(bg(), "p", -3); err != nil || n != 12 {
		t.Fatalf("second delta projects %d, %v; want 12 (own delta)", n, err)
	}
	// Other state unaffected until commit.
	if n, _ := m.Engine().Amount("p"); n != 10 {
		t.Fatalf("uncommitted delta visible: %d", n)
	}
}

func TestDeltaToMissingKeyFails(t *testing.T) {
	m := newMgr(t)
	tx := m.Begin()
	defer tx.Abort()
	if _, err := tx.ApplyDelta(bg(), "ghost", 1); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestWriteConflictBlocks(t *testing.T) {
	m := newMgr(t)
	m.Engine().Put(storage.Record{Key: "p", Amount: 10})
	tx1 := m.Begin()
	if _, err := tx1.ApplyDelta(bg(), "p", -1); err != nil {
		t.Fatal(err)
	}
	tx2 := m.Begin()
	if _, err := tx2.ApplyDelta(bg(), "p", -1); !errors.Is(err, lockmgr.ErrTimeout) {
		t.Fatalf("concurrent writer: %v, want lock timeout", err)
	}
	tx1.Commit()
	tx3 := m.Begin()
	if _, err := tx3.ApplyDelta(bg(), "p", -1); err != nil {
		t.Fatalf("after commit: %v", err)
	}
	tx3.Commit()
	if n, _ := m.Engine().Amount("p"); n != 8 {
		t.Fatalf("amount = %d, want 8", n)
	}
}

func TestFinishedTxnRejectsOps(t *testing.T) {
	m := newMgr(t)
	tx := m.Begin()
	tx.Commit()
	if _, err := tx.ApplyDelta(bg(), "x", 1); !errors.Is(err, ErrDone) {
		t.Fatalf("ApplyDelta after commit: %v", err)
	}
	if err := tx.AddMeta("x", 1); !errors.Is(err, ErrDone) {
		t.Fatalf("AddMeta after commit: %v", err)
	}
	if err := tx.LogDelta("x", 1, 1); !errors.Is(err, ErrDone) {
		t.Fatalf("LogDelta after commit: %v", err)
	}
	if tx.BalanceDelta("x", 1) {
		t.Fatal("BalanceDelta after commit succeeded")
	}
	if err := tx.Commit(); !errors.Is(err, ErrDone) {
		t.Fatalf("double commit: %v", err)
	}
	tx.Abort() // no-op, must not panic
}

// TestLogDeltaCommitsOneOp: LogDelta turns the buffered delta into a
// logged delta — one op carrying the data change and its replication
// row — and refuses a delta the transaction never buffered.
func TestLogDeltaCommitsOneOp(t *testing.T) {
	m := newMgr(t)
	if err := m.Engine().Put(storage.Record{Key: "p", Amount: 100}); err != nil {
		t.Fatal(err)
	}
	var batch []storage.Op
	m.Engine().SetApplyObserver(func(_ uint64, ops []storage.Op) { batch = ops })
	tx := m.Begin()
	if _, err := tx.ApplyDelta(bg(), "p", -40); err != nil {
		t.Fatal(err)
	}
	if err := tx.LogDelta("p", -41, 9); err == nil {
		t.Fatal("LogDelta of a delta never buffered succeeded")
	}
	if err := tx.LogDelta("p", -40, 9); err != nil {
		t.Fatal(err)
	}
	if err := tx.AddMeta("av/p", -40); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	want := []storage.Op{storage.LoggedDeltaOp("p", -40, 9), storage.MetaAddOp("av/p", -40)}
	if !reflect.DeepEqual(batch, want) {
		t.Fatalf("committed batch %v, want %v", batch, want)
	}
	if n, _ := m.Engine().Amount("p"); n != 60 {
		t.Fatalf("amount = %d, want 60", n)
	}
	if _, ok, _ := m.Engine().GetMeta(storage.LogKey(9)); !ok {
		t.Fatal("no replication log row for entry 9")
	}
}

// TestBalanceDeltaRidesTheDelta: a delta marked by BalanceDelta
// commits its balance change in the same op once logged, and as the
// delta plus an OpMetaAdd of the balance row when not; a delta never
// buffered, or a second mark, is refused.
func TestBalanceDeltaRidesTheDelta(t *testing.T) {
	m := newMgr(t)
	if err := m.Engine().Put(storage.Record{Key: "p", Amount: 100}); err != nil {
		t.Fatal(err)
	}
	var batch []storage.Op
	m.Engine().SetApplyObserver(func(_ uint64, ops []storage.Op) { batch = ops })
	for _, logged := range []bool{true, false} {
		tx := m.Begin()
		if _, err := tx.ApplyDelta(bg(), "p", -40); err != nil {
			t.Fatal(err)
		}
		if tx.BalanceDelta("p", -41) {
			t.Fatal("BalanceDelta of a delta never buffered succeeded")
		}
		if !tx.BalanceDelta("p", -40) {
			t.Fatal("BalanceDelta of the buffered delta refused")
		}
		if tx.BalanceDelta("p", -40) {
			t.Fatal("a second BalanceDelta of one delta succeeded")
		}
		want := []storage.Op{storage.DeltaOp("p", -40), storage.MetaAddOp(storage.BalanceKey("p"), -40)}
		if logged {
			if err := tx.LogDelta("p", -40, 9); err != nil {
				t.Fatal(err)
			}
			want = []storage.Op{storage.BalancedDeltaOp("p", -40, 9)}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(batch, want) {
			t.Fatalf("logged=%v: committed batch %v, want %v", logged, batch, want)
		}
	}
	v, ok, _ := m.Engine().GetMeta(storage.BalanceKey("p"))
	if bal, _ := binary.Varint(v); !ok || bal != -80 {
		t.Fatalf("balance row = %d (found %v), want -80", bal, ok)
	}
	if n, _ := m.Engine().Amount("p"); n != 20 {
		t.Fatalf("amount = %d, want 20", n)
	}
}

// TestSecondKeyRefused: a transaction changes one key. A delta to a
// second key is refused without waiting and without touching that key,
// and the first key's buffered delta still commits.
func TestSecondKeyRefused(t *testing.T) {
	m := newMgr(t)
	m.Engine().Put(storage.Record{Key: "a", Amount: 0})
	m.Engine().Put(storage.Record{Key: "b", Amount: 0})
	tx1 := m.Begin()
	if _, err := tx1.ApplyDelta(bg(), "a", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := tx1.ApplyDelta(bg(), "b", 1); !errors.Is(err, lockmgr.ErrSecondKey) {
		t.Fatalf("second key: %v, want ErrSecondKey", err)
	}
	tx2 := m.Begin()
	if _, err := tx2.ApplyDelta(bg(), "b", 2); err != nil {
		t.Fatalf("b locked by the refused request: %v", err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
	if na, _ := m.Engine().Amount("a"); na != 1 {
		t.Fatalf("a = %d, want 1", na)
	}
	if nb, _ := m.Engine().Amount("b"); nb != 2 {
		t.Fatalf("b = %d, want 2", nb)
	}
}

func TestConcurrentIncrementsSerialize(t *testing.T) {
	m := newMgr(t)
	m.Engine().Put(storage.Record{Key: "ctr", Amount: 0})
	var wg sync.WaitGroup
	const workers, each = 8, 25
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				for {
					tx := m.Begin()
					ctx, cancel := context.WithTimeout(bg(), 2*time.Second)
					_, err := tx.ApplyDelta(ctx, "ctr", 1)
					cancel()
					if err != nil {
						tx.Abort()
						continue // lock timeout under contention: retry
					}
					if tx.Commit() == nil {
						break
					}
				}
			}
		}()
	}
	wg.Wait()
	if n, _ := m.Engine().Amount("ctr"); n != workers*each {
		t.Fatalf("counter = %d, want %d", n, workers*each)
	}
}

func BenchmarkTxnDeltaCommit(b *testing.B) {
	eng, _ := storage.Open(storage.Options{})
	defer eng.Close()
	m := NewManager(eng, lockmgr.Options{})
	eng.Put(storage.Record{Key: "k", Amount: 0})
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := m.Begin()
		if _, err := tx.ApplyDelta(ctx, "k", 1); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}
