package txn

import (
	"context"
	"errors"
	"fmt"
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
	tx := m.Begin()
	if err := tx.Put(bg(), storage.Record{Key: "p", Amount: 100}); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.ApplyDelta(bg(), "p", -40); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if n, _ := m.Engine().Amount("p"); n != 60 {
		t.Fatalf("amount = %d, want 60", n)
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
	if _, err := tx.ApplyDelta(bg(), "p", 5); err != nil {
		t.Fatal(err)
	}
	rec, err := tx.Get(bg(), "p")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Amount != 15 {
		t.Fatalf("txn sees %d, want 15 (own delta)", rec.Amount)
	}
	// Other state unaffected until commit.
	if n, _ := m.Engine().Amount("p"); n != 10 {
		t.Fatalf("uncommitted delta visible: %d", n)
	}
}

func TestPutThenDeltaThenGet(t *testing.T) {
	m := newMgr(t)
	tx := m.Begin()
	defer tx.Abort()
	tx.Put(bg(), storage.Record{Key: "new", Amount: 50, Name: "N"})
	n, err := tx.ApplyDelta(bg(), "new", 25)
	if err != nil {
		t.Fatal(err)
	}
	if n != 75 {
		t.Fatalf("projected = %d, want 75", n)
	}
	rec, _ := tx.Get(bg(), "new")
	if rec.Amount != 75 || rec.Name != "N" {
		t.Fatalf("rec = %+v", rec)
	}
}

func TestDeleteVisibleInTxn(t *testing.T) {
	m := newMgr(t)
	m.Engine().Put(storage.Record{Key: "p", Amount: 1})
	tx := m.Begin()
	defer tx.Abort()
	tx.Delete(bg(), "p")
	if _, err := tx.Get(bg(), "p"); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("deleted key visible: %v", err)
	}
	if _, err := tx.ApplyDelta(bg(), "p", 1); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("delta to deleted key: %v", err)
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

func TestReadersShareLock(t *testing.T) {
	m := newMgr(t)
	m.Engine().Put(storage.Record{Key: "p", Amount: 10})
	tx1 := m.Begin()
	defer tx1.Abort()
	tx2 := m.Begin()
	defer tx2.Abort()
	if _, err := tx1.Get(bg(), "p"); err != nil {
		t.Fatal(err)
	}
	if _, err := tx2.Get(bg(), "p"); err != nil {
		t.Fatalf("second reader blocked: %v", err)
	}
}

func TestFinishedTxnRejectsOps(t *testing.T) {
	m := newMgr(t)
	tx := m.Begin()
	tx.Commit()
	if err := tx.Put(bg(), storage.Record{Key: "x"}); !errors.Is(err, ErrDone) {
		t.Fatalf("Put after commit: %v", err)
	}
	if _, err := tx.Get(bg(), "x"); !errors.Is(err, ErrDone) {
		t.Fatalf("Get after commit: %v", err)
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

func TestDeadlockVictimCanRetry(t *testing.T) {
	m := newMgr(t)
	m.Engine().Put(storage.Record{Key: "a", Amount: 0})
	m.Engine().Put(storage.Record{Key: "b", Amount: 0})
	tx1 := m.Begin()
	tx2 := m.Begin()
	if _, err := tx1.ApplyDelta(bg(), "a", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := tx2.ApplyDelta(bg(), "b", 1); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := tx1.ApplyDelta(bg(), "b", 1)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	_, err := tx2.ApplyDelta(bg(), "a", 1)
	if !errors.Is(err, lockmgr.ErrDeadlock) {
		t.Fatalf("err = %v, want deadlock", err)
	}
	tx2.Abort()
	if err := <-done; err != nil {
		t.Fatalf("survivor errored: %v", err)
	}
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
	if na, _ := m.Engine().Amount("a"); na != 1 {
		t.Fatalf("a = %d", na)
	}
	if nb, _ := m.Engine().Amount("b"); nb != 1 {
		t.Fatalf("b = %d", nb)
	}
}

func TestManyKeysOneTxn(t *testing.T) {
	m := newMgr(t)
	tx := m.Begin()
	for i := 0; i < 50; i++ {
		if err := tx.Put(bg(), storage.Record{Key: fmt.Sprintf("k%02d", i), Amount: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if m.Engine().Len() != 50 {
		t.Fatalf("Len = %d", m.Engine().Len())
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
