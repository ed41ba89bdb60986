// Benchmark harness: one benchmark per evaluation artifact (Fig. 6 and
// Table 1 of the paper) plus the ablation studies DESIGN.md schedules
// (A1–A7). Throughput and latency of the served system are measured by
// bench/ (see bench/README.md), not here.
//
// The paper's metric is message traffic, not wall-clock time, so each
// experiment benchmark reports correspondences-per-update (and related
// shape metrics) through b.ReportMetric; wall-clock ns/op additionally
// measures the simulation cost itself. Absolute counts for the default
// configuration are recorded in EXPERIMENTS.md; `go test -bench .`
// regenerates them.
package avdb

import (
	"context"
	"fmt"
	"testing"

	"avdb/internal/cluster"
	"avdb/internal/experiment"
	"avdb/internal/strategy"
	"avdb/internal/trace"
)

// benchCfg is a Fig.6-shaped configuration sized so one iteration is a
// full (but quick) experiment run.
func benchCfg() experiment.Config {
	return experiment.Config{
		Sites:         3,
		Items:         100,
		InitialAmount: 1000,
		Updates:       5000,
		Checkpoint:    1000,
		Seed:          1,
	}
}

// BenchmarkFig6Proposed regenerates the proposed curve of Fig. 6.
func BenchmarkFig6Proposed(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunProposed(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Total.Last())/float64(cfg.Updates), "corr/update")
		b.ReportMetric(res.LocalFraction*100, "%local")
	}
}

// BenchmarkFig6Conventional regenerates the conventional curve of Fig. 6.
func BenchmarkFig6Conventional(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunConventional(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Total.Last())/float64(cfg.Updates), "corr/update")
	}
}

// BenchmarkFig6Reduction runs both systems and reports the headline
// number the paper quotes (~75% fewer correspondences).
func BenchmarkFig6Reduction(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunFig6(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.ReductionPct, "%reduction")
	}
}

// BenchmarkTable1PerSite regenerates Table 1 and reports the retailer
// fairness ratio (paper: "almost same between site 1 and site 2").
func BenchmarkTable1PerSite(b *testing.B) {
	cfg := benchCfg()
	cfg.Checkpoint = 1000
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunTable1(cfg)
		if err != nil {
			b.Fatal(err)
		}
		s1 := float64(res.PerSite[1].Last())
		s2 := float64(res.PerSite[2].Last())
		if s2 > 0 {
			b.ReportMetric(s1/s2, "site1/site2")
		}
		b.ReportMetric(s1/float64(cfg.Updates), "site1-corr/update")
	}
}

// BenchmarkAblationDeciding (A1) compares donor policies.
func BenchmarkAblationDeciding(b *testing.B) {
	for _, d := range []strategy.Decider{
		strategy.GrantHalf{}, strategy.GrantExact{}, strategy.GrantAll{}, strategy.GrantGenerous{},
	} {
		b.Run(d.Name(), func(b *testing.B) {
			cfg := benchCfg()
			cfg.Updates = 3000
			cfg.Policy = strategy.Policy{Selector: strategy.MaxKnown{}, Decider: d}
			for i := 0; i < b.N; i++ {
				res, err := experiment.RunProposed(cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Total.Last())/float64(cfg.Updates), "corr/update")
				b.ReportMetric(float64(res.Failures), "failures")
			}
		})
	}
}

// BenchmarkAblationSelecting (A2) compares target-selection policies.
func BenchmarkAblationSelecting(b *testing.B) {
	selectors := []func() strategy.Selector{
		func() strategy.Selector { return strategy.MaxKnown{} },
		func() strategy.Selector { return strategy.RandomSelect{} },
		func() strategy.Selector { return &strategy.RoundRobin{} },
	}
	for _, mk := range selectors {
		b.Run(mk().Name(), func(b *testing.B) {
			cfg := benchCfg()
			cfg.Updates = 3000
			for i := 0; i < b.N; i++ {
				cfg.Policy = strategy.Policy{Selector: mk(), Decider: strategy.GrantHalf{}}
				res, err := experiment.RunProposed(cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Total.Last())/float64(cfg.Updates), "corr/update")
			}
		})
	}
}

// BenchmarkAblationGossip (A7) measures what the piggybacked AV view
// buys the max-known selector: "off" asks peers by site ID, ignoring it.
func BenchmarkAblationGossip(b *testing.B) {
	for _, c := range []struct {
		name   string
		policy strategy.Policy
	}{
		{"on", strategy.SODA99()},
		{"off", strategy.Policy{Selector: strategy.ByID{}, Decider: strategy.GrantHalf{}}},
	} {
		b.Run("gossip="+c.name, func(b *testing.B) {
			cfg := benchCfg()
			cfg.Updates = 3000
			cfg.Policy = c.policy
			for i := 0; i < b.N; i++ {
				res, err := experiment.RunProposed(cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Total.Last())/float64(cfg.Updates), "corr/update")
			}
		})
	}
}

// BenchmarkScalingSites (A3) holds per-site load constant while the
// system grows.
func BenchmarkScalingSites(b *testing.B) {
	for _, sites := range []int{3, 5, 9} {
		b.Run(fmt.Sprintf("sites=%d", sites), func(b *testing.B) {
			cfg := benchCfg()
			cfg.Sites = sites
			cfg.Updates = 1000 * sites
			cfg.Checkpoint = cfg.Updates / 5
			for i := 0; i < b.N; i++ {
				res, err := experiment.RunProposed(cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Total.Last())/float64(cfg.Updates), "corr/update")
			}
		})
	}
}

// BenchmarkImmediateMix (A5) sweeps the non-regular share.
func BenchmarkImmediateMix(b *testing.B) {
	for _, frac := range []float64{0, 0.5, 1} {
		b.Run(fmt.Sprintf("nonregular=%.1f", frac), func(b *testing.B) {
			cfg := benchCfg()
			cfg.Updates = 2000
			cfg.NonRegularFraction = frac
			for i := 0; i < b.N; i++ {
				res, err := experiment.RunProposed(cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Total.Last())/float64(cfg.Updates), "corr/update")
			}
		})
	}
}

// BenchmarkFaultToleranceDelay (A4) measures availability at an
// isolated retailer.
func BenchmarkFaultToleranceDelay(b *testing.B) {
	cfg := benchCfg()
	cfg.Updates = 1000
	cfg.InitialAmount = 5000
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunFault(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*float64(res.DelayOK)/float64(res.DelayTotal), "%delay-avail")
		b.ReportMetric(100*float64(res.ImmediateOK)/float64(res.ImmediateTotal), "%immediate-avail")
	}
}

// BenchmarkLatencyStudy (A6) measures update latency distributions
// under injected network delay and reports the p50s.
func BenchmarkLatencyStudy(b *testing.B) {
	cfg := experiment.LatencyConfig{
		Config: experiment.Config{Updates: 500, Items: 20, Checkpoint: 100,
			InitialAmount: 1000, NonRegularFraction: 0.2, Seed: 1},
		OneWay: 2 * 1000 * 1000, // 2ms in ns
	}
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunLatency(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.DelayLocal.Percentile(50).Microseconds()), "local-p50-us")
		b.ReportMetric(float64(res.Conventional.Percentile(50).Microseconds()), "conv-p50-us")
	}
}

// BenchmarkTraceOverhead compares the Delay-Update fast path (local AV
// spend, zero communication) with tracing absent, present-but-disabled,
// and enabled. The "untraced" and "disabled" numbers should be within
// noise of each other: a disabled tracer costs one atomic load per
// would-be span.
func BenchmarkTraceOverhead(b *testing.B) {
	run := func(b *testing.B, tr *trace.Tracer) {
		c, err := cluster.New(cluster.Config{
			Sites: 3, Items: 1, InitialAmount: 1 << 50, Tracer: tr,
		})
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		key := c.RegularKeys[0]
		ctx := context.Background()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.Update(ctx, 1, key, -1); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("untraced", func(b *testing.B) { run(b, nil) })
	b.Run("disabled", func(b *testing.B) {
		tr := trace.New(trace.DefaultCapacity)
		tr.SetEnabled(false)
		run(b, tr)
	})
	b.Run("enabled", func(b *testing.B) { run(b, trace.New(trace.DefaultCapacity)) })
}

// BenchmarkSyncConvergence measures lazy propagation of a batch of
// deltas to two peers.
func BenchmarkSyncConvergence(b *testing.B) {
	c, err := New(Config{Sites: 3})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	if err := c.AddProduct(Product{Key: "k", Amount: 1 << 50, Class: Regular}); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j := 0; j < 64; j++ {
			if _, err := c.Update(ctx, 1, "k", -1); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		if err := c.Sync(ctx); err != nil {
			b.Fatal(err)
		}
	}
}
