package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"avdb/internal/experiment"
)

func tinyCfg() experiment.Config {
	return experiment.Config{Sites: 3, Items: 10, InitialAmount: 1000, Updates: 300, Checkpoint: 100, Seed: 1}
}

// runCSV runs one experiment and returns the CSV it wrote.
func runCSV(t *testing.T, exp string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "out.csv")
	if err := runExperiment(io.Discard, exp, tinyCfg(), path); err != nil {
		t.Fatalf("run(%q): %v", exp, err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestSweepPassesRows(t *testing.T) {
	lines := strings.Split(strings.TrimSpace(runCSV(t, "sweep-passes")), "\n")
	const header = "passes,proposed_corr,conventional_corr,reduction_pct,local_frac,failures,transfer_rounds"
	if lines[0] != header {
		t.Fatalf("header = %q, want %q", lines[0], header)
	}
	if len(lines) != 5 {
		t.Fatalf("%d rows, want 4: %q", len(lines)-1, lines)
	}
	for i, want := range []string{"1", "2", "3", "5"} {
		cells := strings.Split(lines[i+1], ",")
		if len(cells) != 7 || cells[0] != want {
			t.Fatalf("row %d = %q, want passes=%s and 7 cells", i, lines[i+1], want)
		}
		red, err := strconv.ParseFloat(cells[3], 64)
		if err != nil || red <= 0 || red > 100 {
			t.Fatalf("row %d reduction_pct = %q, want in (0, 100]", i, cells[3])
		}
	}
}

func TestUnknownExperimentAndAxis(t *testing.T) {
	for _, exp := range []string{"nope", "sweep-nope"} {
		err := runExperiment(io.Discard, exp, tinyCfg(), "")
		if err == nil || !strings.HasPrefix(err.Error(), "unknown ") {
			t.Errorf("run(%q) = %v, want an unknown-… error", exp, err)
		}
	}
}

func TestTable1IsDeterministic(t *testing.T) {
	first := runCSV(t, "table1")
	if second := runCSV(t, "table1"); first != second || !strings.HasPrefix(first, "site,") {
		t.Fatalf("same seed, different (or empty) Table 1:\n%s\nvs\n%s", first, second)
	}
}

// TestPaperOutputsMatchGolden is the reproduction check: Fig. 6,
// Table 1 and every deterministic study EXPERIMENTS.md quotes, as avsim
// prints them at the size quoted there, must match their golden file in
// testdata byte for byte. Regenerate a golden on purpose with the
// case's command line, e.g. `go run ./cmd/avsim -experiment mix
// -updates 3000 > cmd/avsim/testdata/mix.golden`, and say why.
//
// A3 at 17 sites takes ~15 s, so its case runs only when
// AVDB_NIGHTLY_GOLDENS is set (the nightly job sets it); tier-1 checks
// the first three site counts through experiment.RunScaling instead.
func TestPaperOutputsMatchGolden(t *testing.T) {
	cases := []struct {
		golden  string
		args    []string                // avsim's command line
		out     func(*testing.T) []byte // output no command line prints
		nightly bool
	}{
		{golden: "fig6", args: []string{"-experiment", "fig6"}},
		{golden: "table1", args: []string{"-experiment", "table1"}},
		{golden: "ablation-decide", args: []string{"-experiment", "ablation-decide", "-updates", "5000"}},
		{golden: "ablation-select", args: []string{"-experiment", "ablation-select", "-updates", "5000"}},
		{golden: "ablation-gossip", args: []string{"-experiment", "ablation-gossip", "-updates", "5000"}},
		{golden: "ablation-gossip-9sites", args: []string{"-experiment", "ablation-gossip", "-updates", "5000", "-sites", "9"}},
		{golden: "mix", args: []string{"-experiment", "mix", "-updates", "3000"}},
		{golden: "sweep-decrease", args: []string{"-experiment", "sweep-decrease", "-updates", "5000"}},
		{golden: "scaling-3-5-9", out: func(t *testing.T) []byte {
			rows, err := experiment.RunScaling(experiment.Config{Updates: 3000}, []int{3, 5, 9})
			if err != nil {
				t.Fatal(err)
			}
			var b bytes.Buffer
			if err := experiment.AblationTable(scalingTitle, rows).WriteText(&b); err != nil {
				t.Fatal(err)
			}
			return b.Bytes()
		}},
		{golden: "scaling", args: []string{"-experiment", "scaling", "-updates", "3000"}, nightly: true},
	}
	for _, c := range cases {
		t.Run(c.golden, func(t *testing.T) {
			t.Parallel()
			if c.nightly && os.Getenv("AVDB_NIGHTLY_GOLDENS") == "" {
				t.Skip("set AVDB_NIGHTLY_GOLDENS to check this golden")
			}
			want, err := os.ReadFile(filepath.Join("testdata", c.golden+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			var got []byte
			if c.out != nil {
				got = c.out(t)
			} else {
				var b bytes.Buffer
				if err := run(c.args, &b); err != nil {
					t.Fatal(err)
				}
				got = b.Bytes()
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s differs from testdata/%s.golden:\n got:\n%s\nwant:\n%s", c.args, c.golden, got, want)
			}
		})
	}
}
