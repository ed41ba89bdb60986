package sim

import (
	"os"
	"strconv"
	"strings"
	"testing"

	"avdb/internal/chaos"
)

// TestSimHealthy runs a few seeds fault-free and with faults and
// expects every oracle to pass.
func TestSimHealthy(t *testing.T) {
	res, err := Run(Config{Seed: 1, Ticks: 60, Script: []chaos.Step{}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		t.Fatalf("fault-free run violated an invariant: %v", res.Violation)
	}
	if res.Commits == 0 {
		t.Fatal("fault-free run committed nothing")
	}
}

// TestSimBitReproducible runs the same seed twice, independently, and
// requires the full observable schedule — every site's event log, every
// operation outcome, every 2PC apply — to hash identically.
func TestSimBitReproducible(t *testing.T) {
	seeds := []uint64{3, 7, 11}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		cfg := Config{Seed: seed, Ticks: 120}
		a, err := Run(cfg)
		if err != nil {
			t.Fatalf("seed %d first run: %v", seed, err)
		}
		b, err := Run(cfg)
		if err != nil {
			t.Fatalf("seed %d second run: %v", seed, err)
		}
		if a.TraceHash != b.TraceHash {
			t.Errorf("seed %d: trace hash diverged: %#x vs %#x (events %v vs %v, ops %d vs %d)",
				seed, a.TraceHash, b.TraceHash, a.SiteEvents, b.SiteEvents, a.Ops, b.Ops)
		}
		if a.Violation != nil {
			t.Errorf("seed %d: unexpected violation: %v", seed, a.Violation)
		}
	}
}

// TestSimTraceHashesPinned pins the trace hash of three schedules —
// full replication, epoch commit, and the sharded acceptance
// configuration — so a change that moves the observable schedule fails
// here, and re-baselining is an explicit edit of these values. Each
// schedule must also cross the AV transfer path, so the oracles it
// passes cover transfers.
func TestSimTraceHashesPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		want uint64
	}{
		{"seed 17", Config{Seed: 17}, 0x78fdb2ae30035c57},
		{"seed 17 epochs", Config{Seed: 17, Epochs: true}, 0x61bda59fa84c9afd},
		{"sharded seed 7", shardedCfg(7, 120), 0x8be46a6f3a58598f},
	} {
		res, err := Run(tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Violation != nil {
			t.Errorf("%s: unexpected violation: %v", tc.name, res.Violation)
		}
		if res.Transfers == 0 {
			t.Errorf("%s: no update needed an AV transfer", tc.name)
		}
		t.Logf("%s: %d commits, %d with a transfer", tc.name, res.Commits, res.Transfers)
		if res.TraceHash != tc.want {
			t.Errorf("%s: trace hash %#x, pinned %#x", tc.name, res.TraceHash, tc.want)
		}
	}
}

// TestSimMintBugCaught injects a deliberate AV-minting bug and requires
// the conservation oracle to catch it and the minimizer to shrink the
// fault script, producing a reproducible failure report.
func TestSimMintBugCaught(t *testing.T) {
	cfg := Config{Seed: 5, Ticks: 80, MintAt: 30, MintSite: 1, MintAmount: 50}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation == nil {
		t.Fatal("minted 50 units of AV from nothing and no oracle noticed")
	}
	if res.Violation.Oracle != "no-mint" {
		t.Fatalf("wrong oracle caught the mint: %v", res.Violation)
	}
	minimized, mres, err := Minimize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if mres.Violation == nil {
		t.Fatal("minimized run no longer fails")
	}
	// The mint does not depend on any injected fault, so the script must
	// shrink to nothing.
	if len(minimized) != 0 {
		t.Fatalf("expected the fault script to minimize away, kept %d steps:\n%s",
			len(minimized), chaos.FormatSteps(minimized))
	}
	report := FormatFailure(cfg.Seed, mres, minimized, len(res.Script))
	for _, want := range []string{"seed 5 FAILED", "no-mint", "minimized fault script", "reproduce:"} {
		if !strings.Contains(report, want) {
			t.Errorf("failure report missing %q:\n%s", want, report)
		}
	}
}

// TestSimEpochsHealthy forces epoch-based commit on and expects the
// same oracles (no-mint, atomicity, convergence, read-plane/RYW) to
// hold: epochs batch acknowledgements, not effects, so no invariant may
// move.
func TestSimEpochsHealthy(t *testing.T) {
	res, err := Run(Config{Seed: 1, Ticks: 60, Epochs: true, Script: []chaos.Step{}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		t.Fatalf("epoch-mode fault-free run violated an invariant: %v", res.Violation)
	}
	if res.Commits == 0 {
		t.Fatal("epoch-mode run committed nothing")
	}
}

// TestSimEpochsBitReproducible requires the virtual-clock epoch timers
// to schedule deterministically: same seed, same trace hash, with
// epochs on and faults injected.
func TestSimEpochsBitReproducible(t *testing.T) {
	cfg := Config{Seed: 7, Ticks: 120, Epochs: true}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.TraceHash != b.TraceHash {
		t.Errorf("epoch-mode trace hash diverged: %#x vs %#x", a.TraceHash, b.TraceHash)
	}
	if a.Violation != nil {
		t.Errorf("unexpected violation: %v", a.Violation)
	}
}

// TestSimEpochsSweepSmall sweeps a few seeds with epochs forced on.
func TestSimEpochsSweepSmall(t *testing.T) {
	n := 4
	if testing.Short() {
		n = 2
	}
	failures, err := Sweep(Config{Ticks: 60, Epochs: true}, 100, n, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range failures {
		t.Errorf("epoch mode seed %d: %v\n%s", f.Seed, f.Violation, f.Report)
	}
}

// TestSimSweepSmall sweeps a handful of seeds end to end.
func TestSimSweepSmall(t *testing.T) {
	n := 4
	if testing.Short() {
		n = 2
	}
	failures, err := Sweep(Config{Ticks: 60}, 100, n, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range failures {
		t.Errorf("seed %d: %v\n%s", f.Seed, f.Violation, f.Report)
	}
}

// TestSimSeedSweepNightly is the CI seed sweep: set AVDB_SIM_SWEEP_SEEDS
// (and optionally AVDB_SIM_SWEEP_START) to run it.
func TestSimSeedSweepNightly(t *testing.T) {
	nStr := os.Getenv("AVDB_SIM_SWEEP_SEEDS")
	if nStr == "" {
		t.Skip("set AVDB_SIM_SWEEP_SEEDS to run the nightly seed sweep")
	}
	n, err := strconv.Atoi(nStr)
	if err != nil || n <= 0 {
		t.Fatalf("bad AVDB_SIM_SWEEP_SEEDS %q", nStr)
	}
	start := uint64(1)
	if s := os.Getenv("AVDB_SIM_SWEEP_START"); s != "" {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			t.Fatalf("bad AVDB_SIM_SWEEP_START %q", s)
		}
		start = v
	}
	// Sweep both commit pipelines plus the sharded configuration under
	// the same seeds and oracles.
	for _, mode := range []struct {
		name string
		cfg  Config
	}{
		{"group-commit", Config{}},
		{"epochs", Config{Epochs: true}},
		{"sharded", Config{Sites: 6, Items: 12, Partitions: 16, RF: 2}},
	} {
		failures, err := Sweep(mode.cfg, start, n, os.Stderr)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range failures {
			t.Errorf("[%s] %s", mode.name, f.Report)
		}
	}
}
