package experiment

import (
	"context"
	"errors"
	"fmt"
	"time"

	"avdb/internal/cluster"
	"avdb/internal/core"
	"avdb/internal/metrics"
	"avdb/internal/strategy"
	"avdb/internal/twopc"
	"avdb/internal/workload"
)

// AblationRow is one configuration's outcome in a comparison study.
type AblationRow struct {
	Name            string
	Correspondences int64
	PerUpdate       float64
	LocalFraction   float64
	Failures        int
	TransferRounds  int64
}

// runOnePolicy executes the proposed system once under the given policy
// and summarizes it.
func runOnePolicy(cfg Config, name string, policy strategy.Policy) (AblationRow, error) {
	cfg.Policy = policy
	res, err := RunProposed(cfg)
	if err != nil {
		return AblationRow{}, err
	}
	cfg = cfg.withDefaults()
	return AblationRow{
		Name:            name,
		Correspondences: res.Total.Last(),
		PerUpdate:       float64(res.Total.Last()) / float64(cfg.Updates),
		LocalFraction:   res.LocalFraction,
		Failures:        res.Failures,
		TransferRounds:  res.TransferRounds,
	}, nil
}

// RunDecidingAblation compares deciding policies (A1): how much should a
// donor grant? The paper/SODA'99 answer is "half".
func RunDecidingAblation(cfg Config) ([]AblationRow, error) {
	deciders := []strategy.Decider{
		strategy.GrantHalf{},
		strategy.GrantExact{},
		strategy.GrantAll{},
		strategy.GrantGenerous{},
	}
	var rows []AblationRow
	for _, d := range deciders {
		row, err := runOnePolicy(cfg, "decide="+d.Name(),
			strategy.Policy{Selector: strategy.MaxKnown{}, Decider: d})
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RunGossipAblation (A7) isolates the value of the paper's piggybacked
// AV view: the max-known selector, which reads the view, against a
// selector that ignores it and asks peers in ascending site ID — the
// fixed order max-known degenerates to when no view is gossiped.
func RunGossipAblation(cfg Config) ([]AblationRow, error) {
	on, err := runOnePolicy(cfg, "gossip=on", strategy.SODA99())
	if err != nil {
		return nil, err
	}
	off, err := runOnePolicy(cfg, "gossip=off",
		strategy.Policy{Selector: strategy.ByID{}, Decider: strategy.GrantHalf{}})
	if err != nil {
		return nil, err
	}
	return []AblationRow{on, off}, nil
}

// RunSelectingAblation compares selecting policies (A2): whom to ask?
func RunSelectingAblation(cfg Config) ([]AblationRow, error) {
	selectors := []strategy.Selector{
		strategy.MaxKnown{},
		strategy.RandomSelect{},
		&strategy.RoundRobin{},
	}
	var rows []AblationRow
	for _, s := range selectors {
		row, err := runOnePolicy(cfg, "select="+s.Name(),
			strategy.Policy{Selector: s, Decider: strategy.GrantHalf{}})
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RunScaling measures correspondences per update as the system grows
// (A3). Per-site load is held constant: Updates scales with Sites.
func RunScaling(cfg Config, siteCounts []int) ([]AblationRow, error) {
	cfg = cfg.withDefaults()
	baseUpdates := cfg.Updates
	var rows []AblationRow
	for _, n := range siteCounts {
		c := cfg
		c.Sites = n
		c.Updates = baseUpdates / 3 * n
		c.Checkpoint = c.Updates / 10
		row, err := runOnePolicy(c, fmt.Sprintf("sites=%d", n), cfg.Policy)
		if err != nil {
			return nil, err
		}
		row.PerUpdate = float64(row.Correspondences) / float64(c.Updates)
		rows = append(rows, row)
	}
	return rows, nil
}

// RunMix measures the cost of heterogeneity (A5): as the share of
// non-regular (Immediate Update) products grows, correspondences rise —
// the quantitative version of the paper's motivation for giving regular
// products the Delay discipline.
func RunMix(cfg Config, fractions []float64) ([]AblationRow, error) {
	var rows []AblationRow
	for _, f := range fractions {
		c := cfg
		c.NonRegularFraction = f
		row, err := runOnePolicy(c, fmt.Sprintf("nonregular=%.2f", f), c.Policy)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FaultResult summarizes the fault-tolerance experiment (A4): a retailer
// is partitioned from the rest of the system and keeps taking updates.
type FaultResult struct {
	// DelayOK / DelayTotal: Delay Updates attempted at the isolated site.
	DelayOK, DelayTotal int
	// ImmediateOK / ImmediateTotal: Immediate Updates attempted there.
	ImmediateOK, ImmediateTotal int
	// ConvergedAfterHeal reports whether replicas agreed after healing.
	ConvergedAfterHeal bool
}

// RunFault isolates site (Sites-1), drives updates at it during the
// partition, heals, and verifies convergence. Delay Updates within the
// site's AV must survive; Immediate Updates must abort — the paper's
// fault-tolerance argument made measurable.
func RunFault(cfg Config) (*FaultResult, error) {
	cfg = cfg.withDefaults()
	cfg.NonRegularFraction = 0.5
	reg := metrics.NewRegistry()
	c, err := cluster.New(cluster.Config{
		Sites:              cfg.Sites,
		Items:              cfg.Items,
		InitialAmount:      cfg.InitialAmount,
		NonRegularFraction: cfg.NonRegularFraction,
		Policy:             cfg.Policy,
		Seed:               cfg.Seed,
		Registry:           reg,
		CallTimeout:        200 * time.Millisecond,
		PrepareTimeout:     200 * time.Millisecond,
		RequestTimeout:     200 * time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	defer c.Close()

	ctx := context.Background()
	victim := cfg.Sites - 1
	gen, err := workload.NewSCM(workload.SCMConfig{
		Sites:         cfg.Sites,
		Keys:          c.RegularKeys,
		InitialAmount: cfg.InitialAmount,
		Seed:          cfg.Seed,
	})
	if err != nil {
		return nil, err
	}

	// Warm-up traffic so AV has circulated.
	for i := 0; i < cfg.Updates/10; i++ {
		op := gen.Next()
		_, _ = c.Update(ctx, op.Site, op.Key, op.Delta)
	}

	c.Net.Isolate(c.Sites[victim].ID())
	res := &FaultResult{}
	for i := 0; i < cfg.Updates/10; i++ {
		regularKey := c.RegularKeys[i%len(c.RegularKeys)]
		nonRegKey := c.NonRegularKeys[i%len(c.NonRegularKeys)]
		res.DelayTotal++
		if _, err := c.Update(ctx, victim, regularKey, -1); err == nil {
			res.DelayOK++
		} else if !errors.Is(err, core.ErrInsufficientAV) {
			return nil, fmt.Errorf("experiment: unexpected delay failure: %w", err)
		}
		res.ImmediateTotal++
		if _, err := c.Update(ctx, victim, nonRegKey, -1); err == nil {
			res.ImmediateOK++
		} else if !errors.Is(err, twopc.ErrAborted) && !errors.Is(err, twopc.ErrCompletionUnknown) {
			return nil, fmt.Errorf("experiment: unexpected immediate failure: %w", err)
		}
	}
	c.Net.Heal()
	if err := c.FlushAll(ctx); err != nil {
		return nil, err
	}
	res.ConvergedAfterHeal = c.CheckInvariants() == nil
	return res, nil
}

// AblationTable renders comparison rows.
func AblationTable(title string, rows []AblationRow) *metrics.Table {
	t := &metrics.Table{
		Title:   title,
		Columns: []string{"config", "correspondences", "corr/update", "local-frac", "failures", "transfer-rounds"},
	}
	for _, r := range rows {
		t.AddRow(r.Name,
			fmt.Sprint(r.Correspondences),
			fmt.Sprintf("%.4f", r.PerUpdate),
			fmt.Sprintf("%.3f", r.LocalFraction),
			fmt.Sprint(r.Failures),
			fmt.Sprint(r.TransferRounds))
	}
	return t
}

// FaultTable renders the fault study.
func FaultTable(res *FaultResult) *metrics.Table {
	t := &metrics.Table{
		Title:   "A4 — availability at an isolated retailer during a partition",
		Columns: []string{"discipline", "succeeded", "attempted", "availability"},
	}
	t.AddRow("delay (AV)", fmt.Sprint(res.DelayOK), fmt.Sprint(res.DelayTotal),
		fmt.Sprintf("%.1f%%", 100*float64(res.DelayOK)/float64(res.DelayTotal)))
	t.AddRow("immediate (2PC)", fmt.Sprint(res.ImmediateOK), fmt.Sprint(res.ImmediateTotal),
		fmt.Sprintf("%.1f%%", 100*float64(res.ImmediateOK)/float64(res.ImmediateTotal)))
	t.AddRow("converged after heal", fmt.Sprint(res.ConvergedAfterHeal), "-", "-")
	return t
}
