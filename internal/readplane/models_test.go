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

// referenceTop is the full-sort definition of the hot view.
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

// The hot view's top K equals the full sort of independently kept
// counts after every step of random update sequences. Few keys and
// deltas from {0, ±1, ±2} keep ties on both update count and volume
// frequent; K runs from 1 to beyond the number of distinct keys.
func TestHotTopKMatchesFullSort(t *testing.T) {
	for _, tc := range []struct{ keys, k, steps int }{
		{keys: 6, k: 1, steps: 400},
		{keys: 12, k: 3, steps: 1500},
		{keys: 40, k: 10, steps: 3000},
		{keys: 5, k: 8, steps: 400}, // K > distinct keys
	} {
		t.Run(fmt.Sprintf("keys=%d,k=%d", tc.keys, tc.k), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(tc.keys*100 + tc.k)))
			s := newHarness(t, 1, storage.Options{}, Config{})
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
				got := s.plane.Hot(tc.k)
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
	for k := range s.Amounts {
		fp.keys = append(fp.keys, k)
	}
	sort.Strings(fp.keys)
	for _, k := range fp.keys {
		fp.vals = append(fp.vals, s.Amounts[k])
	}
	// Also through Amount, for keys the snapshot does not hold too.
	for _, k := range probe {
		v, ok := s.Amount(k)
		fp.keys = append(fp.keys, fmt.Sprintf("%s/%t", k, ok))
		fp.vals = append(fp.vals, v)
	}
	return fp
}

// A catalog snapshot a reader holds never changes — Amount, Len, the key
// set — while writers keep mutating keys across many commits, with puts
// and deletes changing the key set. Run with -race: a write to anything
// a returned snapshot reaches is also a data race.
func TestHeldStockSnapshotIsImmutable(t *testing.T) {
	h := newHarness(t, 1, storage.Options{}, Config{})
	var keys []string
	for i := 0; i < 300; i++ {
		keys = append(keys, fmt.Sprintf("product-%04d", i))
	}
	for _, k := range keys {
		if err := h.eng.Put(storage.Record{Key: k, Amount: 1000}); err != nil {
			t.Fatal(err)
		}
	}
	probe := append([]string{"never-present"}, keys[:8]...)

	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				snap, err := h.plane.Stock()
				if err != nil {
					t.Error(err)
					return
				}
				before := fingerprint(snap, probe)
				// Hold it across several commits (or until the writer
				// is done), then read it all again.
				stopped := false
				for !stopped && h.eng.LastLSN() < snap.AppliedLSN+20 {
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
}
