package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"
)

const (
	minBound = 0.10 // no bound on a timing or a rate is tighter than this
	maxBound = 0.25 // the contract's ceiling
	// unsteady is the spread beyond which a metric is not gated at all:
	// the driver measures the spread again and rejects the benchmark if it
	// exceeds the bound, and a spread seen at 0.20 can come out above 0.25.
	unsteady = 0.20
)

// repeat runs the end-to-end pass of every workload n times, each time
// with another seed as the driver does, prints median and quartiles per
// (workload, metric), and derives each metric's bound as three times its
// worst IQR/median over the workloads, kept within [10 %, 25 %] (1 % at
// the bottom for a ratio such as ok_frac). A metric whose spread exceeds
// 20 % is moved to the per-layer list. The table is kept under
// bench/baseline/ and the bounds are written into BENCHMARK.json.
func (b *bench) repeat(seed uint64, n int) error {
	start := time.Now()
	values := map[string]map[string][]float64{}
	for _, w := range workloads {
		values[w.name] = map[string][]float64{}
	}
	for i := 0; i < n; i++ {
		for _, w := range workloads {
			p, err := b.endToEnd(w, seed+uint64(i))
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, seed+uint64(i), err)
			}
			for _, d := range b.man.EndToEnd {
				values[w.name][d.Name] = append(values[w.name][d.Name], p.m[d.Name].value)
			}
		}
	}

	dir := filepath.Join(b.env.root, "bench", "baseline")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("repeat-%d-seed%d.txt", n, seed)))
	if err != nil {
		return err
	}
	defer f.Close()
	out := io.MultiWriter(os.Stdout, f)
	fmt.Fprintf(out, "# go run ./bench -repeat %d -seed %d -seconds %d, %.0f s in all\n", n, seed, b.seconds, time.Since(start).Seconds())
	fmt.Fprintf(out, "%-16s %-24s %14s %14s %14s %9s\n", "workload", "metric", "q1", "median", "q3", "iqr/med")

	var kept []manifestE2E
	for _, d := range b.man.EndToEnd {
		worst := 0.0
		for _, w := range workloads {
			q1, q2, q3 := quartiles(values[w.name][d.Name])
			spread := 0.0
			if q2 != 0 {
				spread = (q3 - q1) / math.Abs(q2)
			}
			worst = math.Max(worst, spread)
			fmt.Fprintf(out, "%-16s %-24s %14.4f %14.4f %14.4f %9.4f\n", w.name, d.Name, q1, q2, q3, spread)
		}
		floor := minBound
		if d.Unit == "ratio" {
			floor = 0.01
		}
		switch {
		case d.Name == "setup_s":
			// Its spread is exempt; it takes the largest bound there is.
			d.Bound = maxBound
		case worst > unsteady:
			fmt.Fprintf(out, "# %s: worst iqr/median %.4f: demoted to per_layer, too unsteady to gate on\n", d.Name, worst)
			b.man.PerLayer = append(b.man.PerLayer, d.manifestDecl)
			continue
		default:
			d.Bound = math.Min(maxBound, math.Max(floor, math.Ceil(3*worst*100)/100))
		}
		fmt.Fprintf(out, "# %s: worst iqr/median %.4f, bound %.2f\n", d.Name, worst, d.Bound)
		kept = append(kept, d)
	}
	b.man.EndToEnd = kept
	raw, err := json.MarshalIndent(b.man, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(manifestPath(b.env.root), append(raw, '\n'), 0o644)
}
