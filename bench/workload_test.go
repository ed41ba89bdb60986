package main

import "testing"

// The generators are the benchmark's inputs: the same seed must give the
// same ops on every machine and after every edit, or baselines stop
// being comparable. A deliberate change to a generator re-pins its hash
// and says so in CHANGES.md.
func TestGeneratorsArePinned(t *testing.T) {
	pinned := map[string]uint64{
		"pos-durable":     0x9f805fcac422f61b,
		"pos-cpu":         0x9f805fcac422f61b, // byte-identical to pos-durable by design
		"scm-mixed":       0x28e46f15d54faf1d,
		"sharded-readmix": 0x6590fb3b7a7a2794,
	}
	for _, w := range workloads {
		got := streamHash(w, 1, 10000)
		if got != pinned[w.name] {
			t.Errorf("%s: first 10k ops of seed 1 hash to %#x, pinned %#x", w.name, got, pinned[w.name])
		}
		if again := streamHash(w, 1, 10000); again != got {
			t.Errorf("%s: seed 1 gave %#x, then %#x", w.name, got, again)
		}
		if other := streamHash(w, 2, 10000); other == got {
			t.Errorf("%s: seeds 1 and 2 give the same ops", w.name)
		}
	}
}

// scm-mixed promises that no decrement can run short of stock as long as
// the maker is at most scmLagGroups groups late, whatever the seed.
func TestSCMStockNeverRunsOut(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		a, b := scmStreams(seed)
		stock := make([]int64, scmKeys)
		for i := range stock {
			stock[i] = scmInitial
		}
		var pendingA []op
		for i := 0; i < 50_000; i++ {
			// B's op i is funded once A has acknowledged scmFunded(i) ops;
			// apply exactly those and no more: the worst case.
			for len(pendingA) < scmFunded(i) {
				pendingA = append(pendingA, a())
				o := pendingA[len(pendingA)-1]
				stock[o.key] += o.delta
				if stock[o.key] < 0 {
					t.Fatalf("seed %d: maker op %d takes %s below zero", seed, len(pendingA), keyName(o.key))
				}
			}
			o := b()
			if o.key < scmNonRegular || o.delta >= 0 {
				t.Fatalf("seed %d: retailer op %d is %+v, want a decrement of a regular key", seed, i, o)
			}
			if stock[o.key] += o.delta; stock[o.key] < scmInitial-scmPreludeCap {
				t.Fatalf("seed %d: retailer op %d leaves %s at %d, below the floor %d", seed, i, keyName(o.key), stock[o.key], scmInitial-scmPreludeCap)
			}
		}
	}
}

func TestZipfStaysInRangeAndIsSkewed(t *testing.T) {
	z := newZipf(readmixKeys, readmixTheta)
	r := newRNG(1, 1)
	counts := make([]int, readmixKeys)
	const n = 100_000
	for i := 0; i < n; i++ {
		k := z.key(r.float())
		if k < 0 || k >= readmixKeys {
			t.Fatalf("key %d out of range", k)
		}
		counts[k]++
	}
	// Rank 0 maps to key 0; at θ = 0.99 over 4000 keys it draws about
	// 11 % of the accesses, a uniform key 0.025 %.
	if share := float64(counts[0]) / n; share < 0.08 || share > 0.14 {
		t.Errorf("hottest key drew %.3f of the accesses, want about 0.11", share)
	}
}
