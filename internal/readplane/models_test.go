package readplane

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"

	"avdb/internal/storage"
)

// referenceTop is the full-sort definition of the hot view the
// incremental top-K must equal.
func referenceTop(counts map[string]HotKey, k int) []HotKey {
	all := make([]HotKey, 0, len(counts))
	for _, h := range counts {
		all = append(all, h)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Updates != all[j].Updates {
			return all[i].Updates > all[j].Updates
		}
		if all[i].Volume != all[j].Volume {
			return all[i].Volume > all[j].Volume
		}
		return all[i].Key < all[j].Key
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// The incremental top-K equals the full sort after every step of random
// update sequences. Few keys and deltas from {0, ±1, ±2} keep ties on
// both update count and volume frequent; K runs from 1 to beyond the
// number of distinct keys. Every engine op is applied and published
// before it returns, so each step's snapshot is inspected.
func TestHotTopKMatchesFullSort(t *testing.T) {
	for _, tc := range []struct{ keys, k, steps int }{
		{keys: 6, k: 1, steps: 400},
		{keys: 12, k: 3, steps: 1500},
		{keys: 40, k: 10, steps: 3000},
		{keys: 5, k: 8, steps: 400}, // K > distinct keys
	} {
		t.Run(fmt.Sprintf("keys=%d,k=%d", tc.keys, tc.k), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(tc.keys*100 + tc.k)))
			s := newHarness(t, 1, storage.Options{}, Config{TopK: tc.k})
			want := make(map[string]HotKey)
			bump := func(key string, delta int64) {
				h := want[key]
				h.Key = key
				h.Updates++
				if delta < 0 {
					delta = -delta
				}
				h.Volume += delta
				want[key] = h
			}
			for step := 0; step < tc.steps; step++ {
				key := fmt.Sprintf("k%02d", rng.Intn(tc.keys))
				_, err := s.eng.Get(key)
				switch {
				case err != nil || rng.Intn(20) == 0:
					if err := s.eng.Put(storage.Record{Key: key, Amount: 1000}); err != nil {
						t.Fatal(err)
					}
					bump(key, 0)
				case rng.Intn(25) == 0:
					// A delete bumps nothing; the key's counters stay.
					if err := s.eng.Delete(key); err != nil {
						t.Fatal(err)
					}
				default:
					delta := int64(rng.Intn(5) - 2)
					if _, err := s.eng.ApplyDelta(key, delta); err != nil {
						t.Fatal(err)
					}
					bump(key, delta)
				}
				got := s.plane.Hot()
				if ref := referenceTop(want, tc.k); !reflect.DeepEqual(got.Top, ref) {
					t.Fatalf("step %d: top-%d\n got %+v\nwant %+v", step, tc.k, got.Top, ref)
				}
				if got.AppliedLSN != s.eng.LastLSN() {
					t.Fatalf("step %d: hot watermark %d, engine %d", step, got.AppliedLSN, s.eng.LastLSN())
				}
			}
		})
	}
}

// stockFingerprint reads everything a snapshot exposes.
type stockFingerprint struct {
	n    int
	keys []string
	vals []int64
}

func fingerprint(s *StockSnapshot, probe []string) stockFingerprint {
	fp := stockFingerprint{n: s.Len()}
	s.Each(func(k string, v int64) bool {
		fp.keys = append(fp.keys, k)
		fp.vals = append(fp.vals, v)
		return true
	})
	// Amount goes down the segment path Each does not: also for keys
	// the snapshot does not hold.
	for _, k := range probe {
		v, ok := s.Amount(k)
		fp.keys = append(fp.keys, fmt.Sprintf("%s/%t", k, ok))
		fp.vals = append(fp.vals, v)
	}
	return fp
}

// sameSegmentKeys returns n distinct keys that all fall in one segment,
// so the test mutates a segment a held snapshot shares.
func sameSegmentKeys(n int) []string {
	bySlot := make(map[stockSlot][]string)
	for i := 0; ; i++ {
		k := fmt.Sprintf("collide-%d", i)
		slot := slotOf(k)
		bySlot[slot] = append(bySlot[slot], k)
		if len(bySlot[slot]) == n {
			return bySlot[slot]
		}
	}
}

// A snapshot a reader holds never changes — Amount, Len, Each order —
// while the applier keeps mutating keys in the same segment, in other
// segments of the same page and in other pages, across many publishes,
// with puts and deletes changing the key set. Run with -race: a write to
// anything a published snapshot reaches is also a data race.
func TestHeldStockSnapshotIsImmutable(t *testing.T) {
	h := newHarness(t, 1, storage.Options{}, Config{})
	keys := sameSegmentKeys(3)
	for i := 0; i < 300; i++ {
		keys = append(keys, fmt.Sprintf("product-%04d", i))
	}
	for _, k := range keys {
		if err := h.eng.Put(storage.Record{Key: k, Amount: 1000}); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.plane.WaitCaughtUp(waitCtx(t)); err != nil {
		t.Fatal(err)
	}
	probe := append([]string{"never-present"}, keys[:8]...)

	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				snap := h.plane.Stock()
				before := fingerprint(snap, probe)
				if !sort.StringsAreSorted(before.keys[:before.n]) {
					t.Errorf("Each out of order at LSN %d", snap.AppliedLSN)
					return
				}
				// Hold it across several publishes (or until the writer
				// is done), then read it all again.
				stopped := false
				for !stopped && h.plane.Stock().AppliedLSN < snap.AppliedLSN+20 {
					select {
					case <-done:
						stopped = true
					default:
						runtime.Gosched()
					}
				}
				if after := fingerprint(snap, probe); !reflect.DeepEqual(before, after) {
					t.Errorf("snapshot at LSN %d changed while held", snap.AppliedLSN)
					return
				}
				if stopped {
					return
				}
			}
		}()
	}

	rng := rand.New(rand.NewSource(7))
	present := make(map[string]bool, len(keys))
	for _, k := range keys {
		present[k] = true
	}
	for i := 0; i < 4000; i++ {
		k := keys[rng.Intn(len(keys))]
		if i%3 == 0 {
			k = keys[rng.Intn(3)] // the shared segment
		}
		var err error
		switch {
		case !present[k]:
			err = h.eng.Put(storage.Record{Key: k, Amount: int64(i)})
			present[k] = true
		case rng.Intn(10) == 0:
			err = h.eng.Delete(k)
			present[k] = false
		default:
			_, err = h.eng.ApplyDelta(k, -1)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()

	// And the live view still equals the engine.
	if err := h.plane.WaitCaughtUp(waitCtx(t)); err != nil {
		t.Fatal(err)
	}
	amounts, _, err := h.eng.SnapshotAmounts()
	if err != nil {
		t.Fatal(err)
	}
	final := h.plane.Stock()
	if final.Len() != len(amounts) {
		t.Fatalf("view holds %d keys, engine %d", final.Len(), len(amounts))
	}
	for k, want := range amounts {
		if got, ok := final.Amount(k); !ok || got != want {
			t.Fatalf("%s = %d %v, engine %d", k, got, ok, want)
		}
	}
}

// seededHarness is a plane bootstrapped over a catalog of n keys.
func seededHarness(tb testing.TB, n int) (*harness, []string) {
	tb.Helper()
	eng, err := storage.Open(storage.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { eng.Close() })
	keys := seedKeys(tb, eng, n, 1<<30)
	plane := attach(tb, eng, Config{Site: 1})
	tb.Cleanup(plane.Close)
	return &harness{eng: eng, plane: plane}, keys
}

// applyOne hands the plane one single-key delta batch, which it applies
// and publishes before returning: what every update of a serving node
// costs its committing goroutine.
func (h *harness) applyOne(key string) {
	h.plane.Apply(h.plane.stock.Load().AppliedLSN+1, []storage.Op{storage.DeltaOp(key, -1)})
}

// BenchmarkPublishPerUpdate is one single-key batch, applied and
// published, over catalogs of growing size: the cost must not follow
// the catalog.
func BenchmarkPublishPerUpdate(b *testing.B) {
	for _, n := range []int{2000, 20000, 200000} {
		b.Run(fmt.Sprintf("keys=%d", n), func(b *testing.B) {
			s, keys := seededHarness(b, n)
			rng := rand.New(rand.NewSource(1))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.applyOne(keys[rng.Intn(n)])
			}
		})
	}
}

// Bytes allocated per applied single-key event do not follow the
// catalog: a 200 000-key catalog stays within 2x of a 2 000-key one.
// (With one map cloned per publish the ratio was ~100.)
func TestPublishAllocationIndependentOfCatalog(t *testing.T) {
	perEvent := func(n int) float64 {
		s, keys := seededHarness(t, n)
		rng := rand.New(rand.NewSource(1))
		const events = 2000
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < events; i++ {
			s.applyOne(keys[rng.Intn(n)])
		}
		runtime.ReadMemStats(&after)
		if got := s.plane.Stats().EventsApplied; got != events {
			t.Fatalf("%d of %d events applied", got, events)
		}
		return float64(after.TotalAlloc-before.TotalAlloc) / events
	}
	small, large := perEvent(2000), perEvent(200000)
	t.Logf("bytes per event: %.0f at 2 000 keys, %.0f at 200 000 keys", small, large)
	if large >= 2*small {
		t.Fatalf("bytes per event grow with the catalog: %.0f at 200 000 keys vs %.0f at 2 000", large, small)
	}
}
