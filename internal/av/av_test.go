package av

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"

	"avdb/internal/rng"
)

func TestDefineAndCheck(t *testing.T) {
	tbl := NewTable()
	if tbl.Defined("p") {
		t.Fatal("undefined key reported defined")
	}
	if err := tbl.Define("p", 100); err != nil {
		t.Fatal(err)
	}
	if !tbl.Defined("p") {
		t.Fatal("defined key reported undefined")
	}
	if tbl.Avail("p") != 100 || tbl.Held("p") != 0 || tbl.Total("p") != 100 {
		t.Fatalf("avail=%d held=%d total=%d", tbl.Avail("p"), tbl.Held("p"), tbl.Total("p"))
	}
	// Re-define adds.
	tbl.Define("p", 50)
	if tbl.Avail("p") != 150 {
		t.Fatalf("avail after re-define = %d", tbl.Avail("p"))
	}
	if err := tbl.Define("q", -1); !errors.Is(err, ErrNegative) {
		t.Fatalf("negative define: %v", err)
	}
}

func TestUndefinedKeyOps(t *testing.T) {
	tbl := NewTable()
	if _, err := tbl.AcquireUpTo("x", 10); !errors.Is(err, ErrUndefined) {
		t.Fatalf("AcquireUpTo: %v", err)
	}
	if _, err := tbl.Acquire("x", 10); !errors.Is(err, ErrUndefined) {
		t.Fatalf("Acquire: %v", err)
	}
	if err := tbl.Fund("x", 10); !errors.Is(err, ErrUndefined) {
		t.Fatalf("Fund: %v", err)
	}
	if _, err := tbl.Debit("x", 10); !errors.Is(err, ErrUndefined) {
		t.Fatalf("Debit: %v", err)
	}
	if tbl.Avail("x") != 0 || tbl.Total("x") != 0 {
		t.Fatal("undefined key has nonzero volume")
	}
}

func TestAcquireUpTo(t *testing.T) {
	tbl := NewTable()
	tbl.Define("p", 30)
	got, err := tbl.AcquireUpTo("p", 20)
	if err != nil || got != 20 {
		t.Fatalf("got %d, %v", got, err)
	}
	if tbl.Avail("p") != 10 || tbl.Held("p") != 20 {
		t.Fatalf("avail=%d held=%d", tbl.Avail("p"), tbl.Held("p"))
	}
	// Shortfall: takes what's there.
	got, _ = tbl.AcquireUpTo("p", 50)
	if got != 10 {
		t.Fatalf("partial acquire got %d, want 10", got)
	}
	if tbl.Avail("p") != 0 || tbl.Held("p") != 30 {
		t.Fatalf("avail=%d held=%d", tbl.Avail("p"), tbl.Held("p"))
	}
}

func TestAcquireAllOrNothing(t *testing.T) {
	tbl := NewTable()
	tbl.Define("p", 30)
	ok, err := tbl.Acquire("p", 31)
	if err != nil || ok {
		t.Fatalf("over-acquire: ok=%v err=%v", ok, err)
	}
	if tbl.Avail("p") != 30 {
		t.Fatal("failed acquire mutated table")
	}
	ok, _ = tbl.Acquire("p", 30)
	if !ok || tbl.Held("p") != 30 {
		t.Fatalf("exact acquire failed: held=%d", tbl.Held("p"))
	}
}

func TestHoldLifecycle(t *testing.T) {
	tbl := NewTable()
	tbl.Define("p", 100)
	tbl.AcquireUpTo("p", 60)
	// The paper's Fig.1 scenario: site needs 30 more, receives a grant.
	if err := tbl.CreditHeld("p", 30); err != nil {
		t.Fatal(err)
	}
	if tbl.Held("p") != 90 {
		t.Fatalf("held = %d", tbl.Held("p"))
	}
	// Update commits spending 70; surplus 20 returns to the table.
	if err := tbl.Spend("p", 70); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Release("p", 20); err != nil {
		t.Fatal(err)
	}
	if tbl.Avail("p") != 60 || tbl.Held("p") != 0 {
		t.Fatalf("avail=%d held=%d, want 60/0", tbl.Avail("p"), tbl.Held("p"))
	}
}

func TestAbortCompensation(t *testing.T) {
	tbl := NewTable()
	tbl.Define("p", 50)
	tbl.AcquireUpTo("p", 50)
	// Rollback: everything held goes back.
	if err := tbl.Release("p", 50); err != nil {
		t.Fatal(err)
	}
	if tbl.Avail("p") != 50 || tbl.Held("p") != 0 {
		t.Fatal("abort did not restore the table")
	}
}

func TestOverspendRejected(t *testing.T) {
	tbl := NewTable()
	tbl.Define("p", 10)
	tbl.AcquireUpTo("p", 10)
	if err := tbl.Spend("p", 11); !errors.Is(err, ErrOverspend) {
		t.Fatalf("over-consume: %v", err)
	}
	if err := tbl.Release("p", 11); !errors.Is(err, ErrOverspend) {
		t.Fatalf("over-release: %v", err)
	}
	if tbl.Held("p") != 10 {
		t.Fatal("failed ops mutated holds")
	}
}

func TestDebitCaps(t *testing.T) {
	tbl := NewTable()
	tbl.Define("p", 40)
	got, err := tbl.Debit("p", 100)
	if err != nil || got != 40 {
		t.Fatalf("debit got %d, %v", got, err)
	}
	if tbl.Avail("p") != 0 {
		t.Fatalf("avail = %d", tbl.Avail("p"))
	}
	got, _ = tbl.Debit("p", 10)
	if got != 0 {
		t.Fatalf("debit from empty got %d", got)
	}
}

func TestNegativeAmountsRejectedEverywhere(t *testing.T) {
	tbl := NewTable()
	tbl.Define("p", 10)
	if _, err := tbl.AcquireUpTo("p", -1); !errors.Is(err, ErrNegative) {
		t.Fatal("AcquireUpTo")
	}
	if _, err := tbl.Acquire("p", -1); !errors.Is(err, ErrNegative) {
		t.Fatal("Acquire")
	}
	if err := tbl.Fund("p", -1); !errors.Is(err, ErrNegative) {
		t.Fatal("Fund")
	}
	if err := tbl.CreditHeld("p", -1); !errors.Is(err, ErrNegative) {
		t.Fatal("CreditHeld")
	}
	if err := tbl.Release("p", -1); !errors.Is(err, ErrNegative) {
		t.Fatal("Release")
	}
	if err := tbl.Spend("p", -1); !errors.Is(err, ErrNegative) {
		t.Fatal("Spend")
	}
	if _, err := tbl.Debit("p", -1); !errors.Is(err, ErrNegative) {
		t.Fatal("Debit")
	}
}

func TestSnapshotAndKeys(t *testing.T) {
	tbl := NewTable()
	tbl.Define("a", 1)
	tbl.Define("b", 2)
	tbl.AcquireUpTo("b", 1)
	snap := tbl.Snapshot()
	if snap["a"] != 1 || snap["b"] != 1 {
		t.Fatalf("snapshot = %v", snap)
	}
	if len(tbl.Keys()) != 2 {
		t.Fatalf("keys = %v", tbl.Keys())
	}
}

// TestTransferConservation simulates random transfers between N tables
// and checks that the system-wide total volume for the key is invariant:
// transfers move AV, never create or destroy it.
func TestTransferConservation(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		const n = 4
		tables := make([]*Table, n)
		var total int64
		for i := range tables {
			tables[i] = NewTable()
			init := r.Range(0, 500)
			tables[i].Define("k", init)
			total += init
		}
		for step := 0; step < 300; step++ {
			from := tables[r.Intn(n)]
			to := tables[r.Intn(n)]
			want := r.Range(0, 200)
			granted, err := from.Debit("k", want)
			if err != nil {
				return false
			}
			if err := to.Fund("k", granted); err != nil {
				return false
			}
			// Random holds and releases interleave with transfers.
			if r.Bool(0.5) {
				tb := tables[r.Intn(n)]
				got, _ := tb.AcquireUpTo("k", r.Range(0, 100))
				if r.Bool(0.5) {
					tb.Release("k", got)
				} else {
					// Leave the hold in place; it still counts in Total.
					_ = got
				}
			}
		}
		var sum int64
		for _, tb := range tables {
			if tb.Avail("k") < 0 || tb.Held("k") < 0 {
				return false
			}
			sum += tb.Total("k")
		}
		return sum == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentHoldsNeverOverdraw runs concurrent acquire/consume and
// verifies total consumption never exceeds the defined volume.
func TestConcurrentHoldsNeverOverdraw(t *testing.T) {
	tbl := NewTable()
	const budget = 10000
	tbl.Define("k", budget)
	var consumed sync.Map
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		id := g
		go func() {
			defer wg.Done()
			r := rng.New(uint64(id + 1))
			var mine int64
			for i := 0; i < 500; i++ {
				n := r.Range(1, 10)
				ok, err := tbl.Acquire("k", n)
				if err != nil {
					t.Error(err)
					return
				}
				if !ok {
					continue
				}
				if r.Bool(0.8) {
					if err := tbl.Spend("k", n); err != nil {
						t.Error(err)
						return
					}
					mine += n
				} else {
					if err := tbl.Release("k", n); err != nil {
						t.Error(err)
						return
					}
				}
			}
			consumed.Store(id, mine)
		}()
	}
	wg.Wait()
	var totalConsumed int64
	consumed.Range(func(_, v any) bool { totalConsumed += v.(int64); return true })
	if totalConsumed > budget {
		t.Fatalf("consumed %d exceeds budget %d", totalConsumed, budget)
	}
	if tbl.Avail("k")+tbl.Held("k")+totalConsumed != budget {
		t.Fatalf("accounting broken: avail=%d held=%d consumed=%d budget=%d",
			tbl.Avail("k"), tbl.Held("k"), totalConsumed, budget)
	}
}

func BenchmarkAcquireConsume(b *testing.B) {
	tbl := NewTable()
	tbl.Define("k", 1<<62)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if ok, _ := tbl.Acquire("k", 1); ok {
			tbl.Spend("k", 1)
		}
	}
}

func BenchmarkAcquireUpToContended(b *testing.B) {
	tbl := NewTable()
	tbl.Define("k", 1<<62)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			got, _ := tbl.AcquireUpTo("k", 5)
			tbl.Release("k", got)
		}
	})
}
