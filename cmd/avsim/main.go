// Command avsim reproduces the paper's evaluation and the repository's
// extension studies. Each experiment prints the same rows the paper
// reports (Fig. 6's two series, Table 1's per-site counts) as an
// aligned text table, optionally duplicated as CSV.
//
// Usage:
//
//	avsim -experiment fig6
//	avsim -experiment table1
//	avsim -experiment ablation-decide|ablation-select|scaling|mix|fault|all
//	avsim -experiment sweep-sites|sweep-items|sweep-initial|sweep-decrease|sweep-passes
//	avsim -updates 10000 -items 100 -initial 1000 -seed 1 -csv out.csv
//
// The deterministic whole-cluster simulation (see internal/sim) is also
// reachable here, so a failing sweep seed can be replayed outside the
// test harness:
//
//	avsim -experiment sim -sim-seed 17            # replay one seed
//	avsim -experiment sim -sim-seed 0 -sim-seeds 100  # sweep 100 seeds
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"avdb/internal/experiment"
	"avdb/internal/metrics"
	"avdb/internal/sim"
	"avdb/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "avsim:", err)
		os.Exit(1)
	}
}

// run is avsim with its command line and its output as arguments.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("avsim", flag.ContinueOnError)
	var (
		exp     = fs.String("experiment", "fig6", "fig6 | table1 | ablation-decide | ablation-select | ablation-gossip | scaling | mix | fault | latency | all | sweep-sites | sweep-items | sweep-initial | sweep-decrease | sweep-passes | trace | sim")
		sites   = fs.Int("sites", 3, "number of sites (site 0 is the maker/base)")
		items   = fs.Int("items", 100, "products in each local DB")
		initial = fs.Int64("initial", 1000, "initial stock per product")
		updates = fs.Int("updates", 10000, "total updates to drive")
		chkpt   = fs.Int("checkpoint", 1000, "checkpoint interval for series")
		seed    = fs.Uint64("seed", 1, "workload seed")
		passes  = fs.Int("passes", 0, "AV gathering passes (0 = default 3)")
		atBase  = fs.Bool("av-at-base", false, "concentrate initial AV at site 0")
		flushEv = fs.Int("flush-every", 0, "anti-entropy every N updates (0 = end only)")
		csvPath = fs.String("csv", "", "also write the primary table as CSV to this file")
		traceIn = fs.String("trace-in", "", "replay a recorded op trace instead of the synthetic workload")

		simSeed  = fs.Uint64("sim-seed", 0, "sim: seed to run (reproduces a sweep failure exactly)")
		simSeeds = fs.Int("sim-seeds", 0, "sim: sweep this many consecutive seeds starting at -sim-seed")
		simTicks = fs.Int("sim-ticks", 0, "sim: workload operations per run (0 = default)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *exp == "sim" {
		return runSim(w, *simSeed, *simSeeds, *simTicks)
	}
	cfg := experiment.Config{
		Sites:         *sites,
		Items:         *items,
		InitialAmount: *initial,
		Updates:       *updates,
		Checkpoint:    *chkpt,
		Seed:          *seed,
		Passes:        *passes,
		AVAllAtBase:   *atBase,
		FlushEvery:    *flushEv,
	}
	if *traceIn != "" {
		f, err := os.Open(*traceIn)
		if err != nil {
			return err
		}
		ops, err := workload.ReadTrace(f)
		f.Close()
		if err != nil {
			return err
		}
		cfg.Replay = ops
	}
	return runExperiment(w, *exp, cfg, *csvPath)
}

// scalingTitle heads the A3 table.
const scalingTitle = "A3 — scaling the number of sites (constant per-site load)"

func runExperiment(w io.Writer, exp string, cfg experiment.Config, csvPath string) error {
	if axis, ok := strings.CutPrefix(exp, "sweep-"); ok {
		return runSweep(w, axis, cfg, csvPath)
	}
	switch exp {
	case "fig6":
		return runFig6(w, cfg, csvPath)
	case "table1":
		return runTable1(w, cfg, csvPath)
	case "ablation-decide":
		rows, err := experiment.RunDecidingAblation(cfg)
		if err != nil {
			return err
		}
		return emit(w, experiment.AblationTable("A1 — deciding-policy ablation (how much should a donor grant?)", rows), csvPath)
	case "ablation-select":
		rows, err := experiment.RunSelectingAblation(cfg)
		if err != nil {
			return err
		}
		return emit(w, experiment.AblationTable("A2 — selecting-policy ablation (whom to ask for AV?)", rows), csvPath)
	case "scaling":
		rows, err := experiment.RunScaling(cfg, []int{3, 5, 9, 17})
		if err != nil {
			return err
		}
		return emit(w, experiment.AblationTable(scalingTitle, rows), csvPath)
	case "mix":
		rows, err := experiment.RunMix(cfg, []float64{0, 0.25, 0.5, 0.75, 1})
		if err != nil {
			return err
		}
		return emit(w, experiment.AblationTable("A5 — cost of the non-regular (Immediate Update) share", rows), csvPath)
	case "fault":
		res, err := experiment.RunFault(cfg)
		if err != nil {
			return err
		}
		return emit(w, experiment.FaultTable(res), csvPath)
	case "latency":
		res, err := experiment.RunLatency(experiment.LatencyConfig{Config: cfg})
		if err != nil {
			return err
		}
		return emit(w, experiment.LatencyTable(res), csvPath)
	case "trace":
		// Emit the synthetic workload the other experiments would drive,
		// for editing or replaying with -trace-in.
		gen, err := workload.NewSCM(workload.SCMConfig{
			Sites:         cfg.Sites,
			Keys:          workload.Keys(cfg.Items),
			InitialAmount: cfg.InitialAmount,
			Seed:          cfg.Seed,
		})
		if err != nil {
			return err
		}
		ops := make([]workload.Op, cfg.Updates)
		for i := range ops {
			ops[i] = gen.Next()
		}
		return workload.WriteTrace(w, ops)
	case "ablation-gossip":
		rows, err := experiment.RunGossipAblation(cfg)
		if err != nil {
			return err
		}
		return emit(w, experiment.AblationTable("A7 — value of the piggybacked AV view (gossip)", rows), csvPath)
	case "all":
		for _, e := range []string{"fig6", "table1", "ablation-decide", "ablation-select", "ablation-gossip", "scaling", "mix", "fault", "latency"} {
			if err := runExperiment(w, e, cfg, ""); err != nil {
				return fmt.Errorf("%s: %w", e, err)
			}
			fmt.Fprintln(w)
		}
		return nil
	default:
		return fmt.Errorf("unknown experiment %q", exp)
	}
}

func runFig6(w io.Writer, cfg experiment.Config, csvPath string) error {
	res, err := experiment.RunFig6(cfg)
	if err != nil {
		return err
	}
	tab, err := experiment.Fig6Table(res)
	if err != nil {
		return err
	}
	if err := emit(w, tab, csvPath); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nreduction vs conventional: %.1f%% (paper reports ~75%%)\n", res.ReductionPct)
	fmt.Fprintf(w, "delay updates completed locally: %.1f%%\n", 100*res.Proposed.LocalFraction)
	fmt.Fprintf(w, "AV transfer round trips: %d; failures (insufficient AV): %d\n",
		res.Proposed.TransferRounds, res.Proposed.Failures)
	fmt.Fprintf(w, "background sync messages (not in the curves): %d\n", res.Proposed.SyncMessages)
	return nil
}

func runTable1(w io.Writer, cfg experiment.Config, csvPath string) error {
	res, err := experiment.RunTable1(cfg)
	if err != nil {
		return err
	}
	tab := experiment.Table1Table(res)
	if err := emit(w, tab, csvPath); err != nil {
		return err
	}
	if len(res.PerSite) >= 3 {
		s1, s2 := res.PerSite[1].Last(), res.PerSite[2].Last()
		fmt.Fprintf(w, "\nretailer fairness (site1 vs site2 at horizon): %d vs %d\n", s1, s2)
		fmt.Fprintf(w, "Jain fairness index over retailers: %.4f (1.0 = perfectly fair)\n",
			experiment.Fairness(res))
	}
	return nil
}

// runSweep varies one parameter of cfg over a fixed set of values and
// prints, per value, both systems' correspondences at the horizon: one
// row per configuration, for plotting beyond the paper's single setting.
func runSweep(w io.Writer, axis string, cfg experiment.Config, csvPath string) error {
	type point struct {
		label string
		cfg   experiment.Config
	}
	var points []point
	switch axis {
	case "sites":
		for _, n := range []int{3, 5, 9, 17, 33} {
			c := cfg
			c.Sites = n
			points = append(points, point{fmt.Sprint(n), c})
		}
	case "items":
		for _, n := range []int{10, 50, 100, 500, 1000} {
			c := cfg
			c.Items = n
			points = append(points, point{fmt.Sprint(n), c})
		}
	case "initial":
		for _, n := range []int64{100, 300, 1000, 3000, 10000} {
			c := cfg
			c.InitialAmount = n
			points = append(points, point{fmt.Sprint(n), c})
		}
	case "decrease":
		for _, f := range []float64{0.02, 0.05, 0.10, 0.20, 0.40} {
			c := cfg
			c.RetailerDecreaseFrac = f
			points = append(points, point{fmt.Sprintf("%.2f", f), c})
		}
	case "passes":
		for _, p := range []int{1, 2, 3, 5} {
			c := cfg
			c.Passes = p
			points = append(points, point{fmt.Sprint(p), c})
		}
	default:
		return fmt.Errorf("unknown sweep axis %q", axis)
	}

	tab := &metrics.Table{Columns: []string{axis, "proposed_corr", "conventional_corr",
		"reduction_pct", "local_frac", "failures", "transfer_rounds"}}
	for _, pt := range points {
		// Only the horizon is read, so sample the series exactly there.
		pt.cfg.Checkpoint = pt.cfg.Updates
		res, err := experiment.RunFig6(pt.cfg)
		if err != nil {
			return fmt.Errorf("%s=%s: %w", axis, pt.label, err)
		}
		p := res.Proposed
		tab.AddRow(pt.label, fmt.Sprint(p.Total.Last()), fmt.Sprint(res.Conventional.Total.Last()),
			fmt.Sprintf("%.1f", res.ReductionPct), fmt.Sprintf("%.3f", p.LocalFraction),
			fmt.Sprint(p.Failures), fmt.Sprint(p.TransferRounds))
	}
	return emit(w, tab, csvPath)
}

func emit(w io.Writer, tab *metrics.Table, csvPath string) error {
	if err := tab.WriteText(w); err != nil {
		return err
	}
	if csvPath == "" {
		return nil
	}
	f, err := os.Create(csvPath)
	if err != nil {
		return err
	}
	defer f.Close()
	return tab.WriteCSV(f)
}

// runSim drives the deterministic whole-cluster simulation: a single
// seed reproduction (the command a sweep failure report prints), or a
// sweep of consecutive seeds with automatic schedule minimization.
func runSim(w io.Writer, seed uint64, seeds, ticks int) error {
	cfg := sim.Config{Seed: seed, Ticks: ticks}
	if seeds > 0 {
		failures, err := sim.Sweep(cfg, seed, seeds, w)
		if err != nil {
			return err
		}
		if len(failures) > 0 {
			return fmt.Errorf("sim: %d of %d seeds violated an invariant", len(failures), seeds)
		}
		fmt.Fprintf(w, "sim: %d seeds clean starting at %d\n", seeds, seed)
		return nil
	}
	res, err := sim.Run(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "sim: seed %d: %d ops (%d commit / %d abort / %d unknown / %d rejected), %d fault steps, trace hash %016x\n",
		res.Seed, res.Ops, res.Commits, res.Aborts, res.Unknown, res.Rejected, len(res.Script), res.TraceHash)
	if res.Violation == nil {
		return nil
	}
	minimized, mres, merr := sim.Minimize(cfg)
	if merr != nil {
		minimized, mres = res.Script, res
	}
	fmt.Fprint(w, sim.FormatFailure(seed, mres, minimized, len(res.Script)))
	return fmt.Errorf("sim: seed %d violated an invariant", seed)
}
