// Package experiment reproduces the paper's evaluation (§4): Fig. 6
// (updates vs correspondences, proposed vs conventional) and Table 1
// (per-site correspondence counts), plus the ablation and extension
// studies listed in DESIGN.md. Each Run* function builds the system
// fresh, drives the deterministic workload, and returns series/tables
// that cmd/avsim renders and bench_test.go measures.
//
// Counting follows the paper: 2 messages = 1 correspondence, and the
// metric is "correspondences for update" — AV management, Immediate
// Update, and the conventional system's routed updates. Background replica convergence
// (delta.sync) and read traffic are measured separately, not mixed into
// the Fig. 6 curves (see DESIGN.md §2 for the rationale).
package experiment

import (
	"context"
	"fmt"
	"time"

	"avdb/internal/cluster"
	"avdb/internal/core"
	"avdb/internal/metrics"
	"avdb/internal/partition"
	"avdb/internal/strategy"
	"avdb/internal/workload"
)

// Config parameterizes the paper-reproduction experiments. Zero fields
// take the paper's (or DESIGN.md's documented) defaults.
type Config struct {
	Sites         int   // default 3 (one maker + two retailers)
	Items         int   // default 100 products
	InitialAmount int64 // default 1000 units per product
	Updates       int   // default 10000
	Checkpoint    int   // default 1000 (Table 1 uses 2000)
	Seed          uint64
	Policy        strategy.Policy // default SODA99
	Passes        int
	AVAllAtBase   bool
	// FlushEvery > 0 runs replica anti-entropy every N updates; 0 only
	// flushes at the end.
	FlushEvery int
	// NonRegularFraction routes that share of items through Immediate
	// Update (0 reproduces §4, which simulates the Delay Update).
	NonRegularFraction float64
	// MakerIncreaseFrac / RetailerDecreaseFrac override the paper's
	// 20% / 10% workload bounds.
	MakerIncreaseFrac    float64
	RetailerDecreaseFrac float64
	// Replay, when non-empty, drives this recorded operation sequence
	// instead of the synthetic SCM generator (see workload.ReadTrace);
	// Updates is capped at its length.
	Replay []workload.Op
}

// generator builds the op source for a run: the replay when present,
// otherwise the paper's SCM generator over keys.
func (c Config) generator(keys []string) (workload.Generator, int, error) {
	if len(c.Replay) > 0 {
		updates := c.Updates
		if updates > len(c.Replay) {
			updates = len(c.Replay)
		}
		return workload.NewReplay(c.Replay), updates, nil
	}
	gen, err := workload.NewSCM(workload.SCMConfig{
		Sites:                c.Sites,
		Keys:                 keys,
		InitialAmount:        c.InitialAmount,
		MakerIncreaseFrac:    c.MakerIncreaseFrac,
		RetailerDecreaseFrac: c.RetailerDecreaseFrac,
		Seed:                 c.Seed,
	})
	if err != nil {
		return nil, 0, err
	}
	return gen, c.Updates, nil
}

func (c Config) withDefaults() Config {
	if c.Sites == 0 {
		c.Sites = 3
	}
	if c.Items == 0 {
		c.Items = 100
	}
	if c.InitialAmount == 0 {
		c.InitialAmount = 1000
	}
	if c.Updates == 0 {
		c.Updates = 10000
	}
	if c.Checkpoint == 0 {
		c.Checkpoint = 1000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Policy.Selector == nil || c.Policy.Decider == nil {
		c.Policy = strategy.SODA99()
	}
	return c
}

// updateKinds are the message kinds charged as "correspondences for
// update" in the paper's metric.
var updateKinds = map[string]bool{
	"av.request":   true,
	"av.reply":     true,
	"iu.prepare":   true,
	"iu.vote":      true,
	"iu.decision":  true,
	"iu.ack":       true,
	"route.update": true,
	"route.reply":  true,
}

// updateMessages sums the registry's update-traffic messages.
func updateMessages(reg *metrics.Registry) int64 {
	var total int64
	for kind, n := range reg.MessagesByKind() {
		if updateKinds[kind] {
			total += n
		}
	}
	return total
}

// updateMessagesBySite sums update-traffic messages per initiating site.
func updateMessagesBySite(reg *metrics.Registry) map[int]int64 {
	out := make(map[int]int64)
	for _, s := range reg.Snapshot() {
		if updateKinds[s.Kind] {
			out[s.Site] += s.Count
		}
	}
	return out
}

// Curves are one system's update traffic over a run.
type Curves struct {
	// Total is cumulative update correspondences at each checkpoint.
	Total *metrics.Series
	// PerSite is the same, split by initiating site (Table 1).
	PerSite []*metrics.Series
	// Failures counts refused updates: insufficient AV, an aborted
	// Immediate Update, an overdraft at the base. Their traffic counts.
	Failures int
}

// ProposedResult is one run of the proposed (AV/accelerator) system.
type ProposedResult struct {
	Curves
	// SyncMessages counts the background delta.sync traffic separately.
	SyncMessages int64
	// LocalFraction is the share of delay updates completed with zero
	// communication ("most of the update is completed within the local
	// site").
	LocalFraction float64
	// TransferRounds is the total number of AV request round trips.
	TransferRounds int64
}

// proposed is the paper's system: every key replicated on every site,
// NonRegularFraction of them without AV.
func (c Config) proposed() cluster.Config {
	return cluster.Config{
		Sites:              c.Sites,
		Items:              c.Items,
		InitialAmount:      c.InitialAmount,
		NonRegularFraction: c.NonRegularFraction,
		AVAllAtBase:        c.AVAllAtBase,
		Policy:             c.Policy,
		Passes:             c.Passes,
		Seed:               c.Seed,
		CallTimeout:        5 * time.Second,
	}
}

// conventional is the centralized way on the same stack: the base holds
// the only copy of every key and no key has AV, so an update elsewhere
// is routed to the base (route.update/route.reply) and committed there.
func (c Config) conventional() (cluster.Config, error) {
	pm, err := partition.Central(0, cluster.SiteIDs(c.Sites))
	return cluster.Config{
		Sites:              c.Sites,
		Items:              c.Items,
		InitialAmount:      c.InitialAmount,
		NonRegularFraction: 1,
		Map:                pm,
		CallTimeout:        5 * time.Second,
	}, err
}

// drive runs cfg's workload through c: every accepted update's result
// and wall time go to observe (when non-nil), replica anti-entropy runs
// every cfg.FlushEvery updates and once at the end, and the update
// correspondences are sampled at every checkpoint into curves named
// name. The cluster must then hold its invariants.
func drive(c *cluster.Cluster, cfg Config, name string,
	observe func(op workload.Op, r core.Result, elapsed time.Duration)) (Curves, error) {
	gen, updates, err := cfg.generator(append(append([]string{}, c.RegularKeys...), c.NonRegularKeys...))
	if err != nil {
		return Curves{}, err
	}
	cur := Curves{Total: &metrics.Series{Name: name}}
	for i := 0; i < cfg.Sites; i++ {
		cur.PerSite = append(cur.PerSite, &metrics.Series{Name: fmt.Sprintf("site%d", i)})
	}
	ctx := context.Background()
	for i := 1; i <= updates; i++ {
		op := gen.Next()
		start := time.Now()
		r, err := c.Update(ctx, op.Site, op.Key, op.Delta)
		if err != nil {
			// A refusal is a workload outcome, not a harness error; its
			// traffic counts.
			cur.Failures++
		} else if observe != nil {
			observe(op, r, time.Since(start))
		}
		if cfg.FlushEvery > 0 && i%cfg.FlushEvery == 0 {
			if err := c.FlushAll(ctx); err != nil {
				return Curves{}, err
			}
		}
		if i%cfg.Checkpoint == 0 {
			cur.Total.Append(int64(i), metrics.Correspondences(updateMessages(c.Registry)))
			bySite := updateMessagesBySite(c.Registry)
			for s, series := range cur.PerSite {
				series.Append(int64(i), metrics.Correspondences(bySite[s]))
			}
		}
	}
	if err := c.FlushAll(ctx); err != nil {
		return Curves{}, err
	}
	if err := c.CheckInvariants(); err != nil {
		return Curves{}, fmt.Errorf("experiment: post-run invariant violation: %w", err)
	}
	return cur, nil
}

// RunProposed drives the paper's workload through the AV system.
func RunProposed(cfg Config) (*ProposedResult, error) {
	cfg = cfg.withDefaults()
	c, err := cluster.New(cfg.proposed())
	if err != nil {
		return nil, err
	}
	defer c.Close()
	cur, err := drive(c, cfg, "proposed", nil)
	if err != nil {
		return nil, err
	}
	res := &ProposedResult{Curves: cur}
	for kind, n := range c.Registry.MessagesByKind() {
		if kind == "delta.sync" || kind == "delta.ack" {
			res.SyncMessages += n
		}
	}
	var local, transfer int64
	for _, s := range c.Sites {
		st := s.Accelerator().Stats()
		local += st.DelayLocal.Load()
		transfer += st.DelayTransfer.Load()
		res.TransferRounds += st.TransferRounds.Load()
	}
	if local+transfer > 0 {
		res.LocalFraction = float64(local) / float64(local+transfer)
	}
	return res, nil
}

// RunConventional drives the identical workload through the
// conventional centralized shape of the same system.
func RunConventional(cfg Config) (*Curves, error) {
	cfg = cfg.withDefaults()
	cc, err := cfg.conventional()
	if err != nil {
		return nil, err
	}
	c, err := cluster.New(cc)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	cur, err := drive(c, cfg, "conventional", nil)
	if err != nil {
		return nil, err
	}
	return &cur, nil
}

// Fig6Result pairs the two curves of Fig. 6.
type Fig6Result struct {
	Proposed     *ProposedResult
	Conventional *Curves
	// ReductionPct is 100 * (1 - proposed/conventional) at the horizon —
	// the paper reports "decreases the correspondences by 75%".
	ReductionPct float64
}

// RunFig6 runs both systems on the identical workload.
func RunFig6(cfg Config) (*Fig6Result, error) {
	prop, err := RunProposed(cfg)
	if err != nil {
		return nil, err
	}
	conv, err := RunConventional(cfg)
	if err != nil {
		return nil, err
	}
	res := &Fig6Result{Proposed: prop, Conventional: conv}
	if last := conv.Total.Last(); last > 0 {
		res.ReductionPct = 100 * (1 - float64(prop.Total.Last())/float64(last))
	}
	return res, nil
}

// Fig6Table renders the two curves as the series table cmd/avsim prints.
func Fig6Table(res *Fig6Result) (*metrics.Table, error) {
	return metrics.SeriesTable(
		"Fig. 6 — number of updates vs number of correspondences for update",
		"updates", res.Proposed.Total, res.Conventional.Total)
}

// Fairness computes Jain's fairness index over the retailers' final
// correspondence counts: (Σx)² / (n·Σx²), which is 1.0 for perfect
// equality and 1/n for total concentration. It quantifies the paper's
// *assurance* claim that "the real-time property is fairly achieved at
// the retailer sites". The maker (site 0) is excluded — its increments
// legitimately never communicate.
func Fairness(res *ProposedResult) float64 {
	var sum, sumSq float64
	n := 0
	for i, s := range res.PerSite {
		if i == 0 {
			continue
		}
		x := float64(s.Last())
		sum += x
		sumSq += x * x
		n++
	}
	if n == 0 || sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(n) * sumSq)
}

// RunTable1 reproduces Table 1: per-site correspondences at checkpoints
// of 2000 updates (overridable via cfg.Checkpoint).
func RunTable1(cfg Config) (*ProposedResult, error) {
	cfg = cfg.withDefaults()
	if cfg.Checkpoint == 1000 {
		cfg.Checkpoint = 2000
	}
	return RunProposed(cfg)
}

// Table1Table renders per-site counts with one row per site and one
// column per checkpoint, the paper's layout.
func Table1Table(res *ProposedResult) *metrics.Table {
	t := &metrics.Table{
		Title:   "Table 1 — number of correspondences for update in each site (proposed)",
		Columns: []string{"site"},
	}
	if len(res.PerSite) == 0 {
		return t
	}
	for _, x := range res.PerSite[0].X {
		t.Columns = append(t.Columns, fmt.Sprint(x))
	}
	for i, s := range res.PerSite {
		row := []string{fmt.Sprintf("site %d", i)}
		for _, y := range s.Y {
			row = append(row, fmt.Sprint(y))
		}
		t.AddRow(row...)
	}
	return t
}
