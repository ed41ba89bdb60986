package main

import (
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
	if err := run(exp, tinyCfg(), path); err != nil {
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
		err := run(exp, tinyCfg(), "")
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
