package experiment

import (
	"fmt"
	"time"

	"avdb/internal/cluster"
	"avdb/internal/core"
	"avdb/internal/metrics"
	"avdb/internal/wire"
	"avdb/internal/workload"
)

// LatencyConfig parameterizes the real-time-property study (A6): the
// same workload as Fig. 6, but with injected one-way network latency,
// measuring each update's wall-clock completion time by discipline.
type LatencyConfig struct {
	Config
	// OneWay is the injected one-way message latency (default 2ms).
	OneWay time.Duration
}

// LatencyResult holds per-discipline latency distributions.
type LatencyResult struct {
	DelayLocal    *metrics.Histogram // proposed, completed locally
	DelayTransfer *metrics.Histogram // proposed, needed AV transfers
	Immediate     *metrics.Histogram // proposed, 2PC path
	Conventional  *metrics.Histogram // conventional, remote updates only
	OneWay        time.Duration
}

// RunLatency measures update latency under network delay. The paper's
// real-time claim is that a retailer's update completes at local speed;
// with d one-way latency the conventional system cannot beat 2d.
func RunLatency(cfg LatencyConfig) (*LatencyResult, error) {
	cfg.Config = cfg.Config.withDefaults()
	if cfg.OneWay <= 0 {
		cfg.OneWay = 2 * time.Millisecond
	}
	if cfg.Updates == 10000 {
		cfg.Updates = 2000 // default horizon would take minutes of real sleep
	}
	if cfg.NonRegularFraction == 0 {
		cfg.NonRegularFraction = 0.1 // represent the Immediate path too
	}
	res := &LatencyResult{
		DelayLocal:    metrics.NewHistogram(),
		DelayTransfer: metrics.NewHistogram(),
		Immediate:     metrics.NewHistogram(),
		Conventional:  metrics.NewHistogram(),
		OneWay:        cfg.OneWay,
	}
	err := timeUpdates(cfg, cfg.proposed(), func(_ workload.Op, r core.Result, elapsed time.Duration) {
		switch r.Path {
		case core.PathDelayLocal:
			res.DelayLocal.Observe(elapsed)
		case core.PathDelayTransfer:
			res.DelayTransfer.Observe(elapsed)
		case core.PathImmediate:
			res.Immediate.Observe(elapsed)
		}
	})
	if err != nil {
		return nil, err
	}
	// Only remote updates are measured: the base's own are local in the
	// conventional system too.
	cc, err := cfg.conventional()
	if err != nil {
		return nil, err
	}
	err = timeUpdates(cfg, cc, func(op workload.Op, _ core.Result, elapsed time.Duration) {
		if op.Site != 0 {
			res.Conventional.Observe(elapsed)
		}
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// timeUpdates drives cfg's workload through a cluster built from cc
// with cfg.OneWay on every message, handing each accepted update's wall
// time to observe.
func timeUpdates(cfg LatencyConfig, cc cluster.Config,
	observe func(op workload.Op, r core.Result, elapsed time.Duration)) error {
	cc.Latency = func(from, to wire.SiteID) time.Duration { return cfg.OneWay }
	cc.CallTimeout = 10 * time.Second
	c, err := cluster.New(cc)
	if err != nil {
		return err
	}
	defer c.Close()
	_, err = drive(c, cfg.Config, "", observe)
	return err
}

// LatencyTable renders the distribution comparison.
func LatencyTable(res *LatencyResult) *metrics.Table {
	t := &metrics.Table{
		Title:   fmt.Sprintf("A6 — update latency with %v one-way network delay", res.OneWay),
		Columns: []string{"path", "count", "p50", "p95", "p99", "max"},
	}
	row := func(name string, h *metrics.Histogram) {
		t.AddRow(name,
			fmt.Sprint(h.Count()),
			h.Percentile(50).Round(10*time.Microsecond).String(),
			h.Percentile(95).Round(10*time.Microsecond).String(),
			h.Percentile(99).Round(10*time.Microsecond).String(),
			h.Max().Round(10*time.Microsecond).String())
	}
	row("proposed delay-local", res.DelayLocal)
	row("proposed delay-transfer", res.DelayTransfer)
	row("proposed immediate", res.Immediate)
	row("conventional remote", res.Conventional)
	return t
}
