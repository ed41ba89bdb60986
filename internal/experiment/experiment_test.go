package experiment

import (
	"strings"
	"testing"

	"avdb/internal/metrics"
	"avdb/internal/workload"
)

// small returns a config fast enough for unit tests while keeping the
// paper's structure (3 sites, maker/retailer workload).
func small() Config {
	return Config{Updates: 1500, Items: 20, Checkpoint: 300, InitialAmount: 1000, Seed: 1}
}

func TestFig6ShapeHolds(t *testing.T) {
	res, err := RunFig6(small())
	if err != nil {
		t.Fatal(err)
	}
	prop, conv := res.Proposed.Total, res.Conventional.Total
	if prop.Len() != 5 || conv.Len() != 5 {
		t.Fatalf("series lengths %d/%d", prop.Len(), conv.Len())
	}
	// The headline claim: proposed massively under-communicates the
	// conventional system (paper: ~75% fewer correspondences).
	if res.ReductionPct < 50 {
		t.Fatalf("reduction = %.1f%%, want > 50%%", res.ReductionPct)
	}
	// Both curves are nondecreasing; conventional is ~linear.
	for i := 1; i < prop.Len(); i++ {
		if prop.Y[i] < prop.Y[i-1] || conv.Y[i] < conv.Y[i-1] {
			t.Fatal("cumulative series decreased")
		}
	}
	// Most updates complete within the local site.
	if res.Proposed.LocalFraction < 0.6 {
		t.Fatalf("local fraction = %.3f", res.Proposed.LocalFraction)
	}
	// Conventional pays ~1 correspondence per non-central update
	// (2/3 of updates originate at retailers).
	perUpdate := float64(conv.Last()) / 1500
	if perUpdate < 0.55 || perUpdate > 0.75 {
		t.Fatalf("conventional corr/update = %.3f, want ~0.67", perUpdate)
	}
}

func TestTable1Fairness(t *testing.T) {
	cfg := small()
	res, err := RunTable1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerSite) != 3 {
		t.Fatalf("per-site series = %d", len(res.PerSite))
	}
	s1, s2 := res.PerSite[1].Last(), res.PerSite[2].Last()
	if s1 == 0 || s2 == 0 {
		t.Fatalf("retailer counts zero: %d/%d", s1, s2)
	}
	// The paper's assurance claim: the retailers' counts are "almost
	// same". Allow 40% asymmetry on this small run.
	ratio := float64(s1) / float64(s2)
	if ratio < 0.6 || ratio > 1.67 {
		t.Fatalf("retailer asymmetry: site1=%d site2=%d", s1, s2)
	}
	// The maker originates increments only, which never need transfers:
	// its correspondence count stays 0.
	if res.PerSite[0].Last() != 0 {
		t.Fatalf("maker correspondences = %d, want 0", res.PerSite[0].Last())
	}
}

func TestFig6TableRendering(t *testing.T) {
	res, err := RunFig6(Config{Updates: 400, Items: 5, Checkpoint: 100, InitialAmount: 500})
	if err != nil {
		t.Fatal(err)
	}
	tab, err := Fig6Table(res)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := tab.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"updates", "proposed", "conventional", "400"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestTable1Rendering(t *testing.T) {
	res, err := RunTable1(Config{Updates: 400, Items: 5, Checkpoint: 200, InitialAmount: 500})
	if err != nil {
		t.Fatal(err)
	}
	tab := Table1Table(res)
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if len(tab.Columns) != 3 { // site + 2 checkpoints
		t.Fatalf("columns = %v", tab.Columns)
	}
}

func TestDeterministicReruns(t *testing.T) {
	a, err := RunProposed(Config{Updates: 600, Items: 10, Checkpoint: 200, InitialAmount: 800, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunProposed(Config{Updates: 600, Items: 10, Checkpoint: 200, InitialAmount: 800, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Total.Y {
		if a.Total.Y[i] != b.Total.Y[i] {
			t.Fatalf("rerun diverged at checkpoint %d: %d vs %d", i, a.Total.Y[i], b.Total.Y[i])
		}
	}
	if a.Failures != b.Failures {
		t.Fatalf("failures differ: %d vs %d", a.Failures, b.Failures)
	}
}

func TestFlushEveryKeepsShape(t *testing.T) {
	cfg := small()
	cfg.Updates = 600
	cfg.Checkpoint = 200
	cfg.FlushEvery = 50
	res, err := RunProposed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.SyncMessages == 0 {
		t.Fatal("periodic flushing produced no sync traffic")
	}
	// Sync traffic must not pollute the update-correspondence metric:
	// rerun without flushing and compare the curves.
	cfg.FlushEvery = 0
	res2, err := RunProposed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total.Last() != res2.Total.Last() {
		t.Fatalf("flush cadence changed the update metric: %d vs %d",
			res.Total.Last(), res2.Total.Last())
	}
}

func TestDecidingAblation(t *testing.T) {
	rows, err := RunDecidingAblation(Config{Updates: 900, Items: 10, Checkpoint: 300, InitialAmount: 900})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 { // half, exact, all, generous
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]AblationRow{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	// grant=exact must need at least as many transfer rounds as
	// grant=half: it never leaves the requester a cushion.
	if byName["decide=exact"].TransferRounds < byName["decide=half"].TransferRounds {
		t.Fatalf("exact (%d rounds) beat half (%d rounds); cushion effect missing",
			byName["decide=exact"].TransferRounds, byName["decide=half"].TransferRounds)
	}
}

func TestSelectingAblation(t *testing.T) {
	rows, err := RunSelectingAblation(Config{Updates: 900, Items: 10, Checkpoint: 300, InitialAmount: 900})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Correspondences == 0 {
			t.Fatalf("%s recorded no traffic", r.Name)
		}
	}
}

func TestScaling(t *testing.T) {
	rows, err := RunScaling(Config{Updates: 900, Items: 10, InitialAmount: 900}, []int{3, 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.PerUpdate <= 0 {
			t.Fatalf("%s per-update = %v", r.Name, r.PerUpdate)
		}
	}
}

func TestMixMonotonicity(t *testing.T) {
	rows, err := RunMix(Config{Updates: 600, Items: 10, Checkpoint: 200, InitialAmount: 900}, []float64{0, 0.5, 1})
	if err != nil {
		t.Fatal(err)
	}
	// More Immediate traffic must cost strictly more correspondences.
	if !(rows[0].Correspondences < rows[1].Correspondences &&
		rows[1].Correspondences < rows[2].Correspondences) {
		t.Fatalf("mix not monotone: %d, %d, %d",
			rows[0].Correspondences, rows[1].Correspondences, rows[2].Correspondences)
	}
}

func TestFaultStudy(t *testing.T) {
	res, err := RunFault(Config{Updates: 400, Items: 10, Checkpoint: 100, InitialAmount: 2000})
	if err != nil {
		t.Fatal(err)
	}
	// Every Delay Update at the isolated retailer is funded by its own
	// AV, so the partition must cost it none of them.
	if res.DelayOK != res.DelayTotal {
		t.Fatalf("%d of %d delay updates survived the partition, want all", res.DelayOK, res.DelayTotal)
	}
	if res.ImmediateOK != 0 {
		t.Fatalf("%d immediate updates 'succeeded' during the partition", res.ImmediateOK)
	}
	if !res.ConvergedAfterHeal {
		t.Fatal("system did not converge after healing")
	}
	tab := FaultTable(res)
	if len(tab.Rows) != 3 {
		t.Fatalf("fault table rows = %d", len(tab.Rows))
	}
}

func TestAblationTableRendering(t *testing.T) {
	tab := AblationTable("x", []AblationRow{{Name: "a", Correspondences: 5, PerUpdate: 0.1}})
	var b strings.Builder
	if err := tab.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "0.1000") {
		t.Fatalf("output:\n%s", b.String())
	}
}

func TestGossipAblation(t *testing.T) {
	rows, err := RunGossipAblation(Config{Updates: 900, Items: 10, Checkpoint: 300, InitialAmount: 900})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Name != "gossip=on" || rows[1].Name != "gossip=off" {
		t.Fatalf("rows = %+v", rows)
	}
	// Gossip can only help (or tie) the max-known selector.
	if rows[0].Correspondences > rows[1].Correspondences*3/2 {
		t.Fatalf("gossip=on (%d) much worse than off (%d)",
			rows[0].Correspondences, rows[1].Correspondences)
	}
}

func TestReplayReproducesSyntheticRun(t *testing.T) {
	cfg := Config{Updates: 500, Items: 10, Checkpoint: 100, InitialAmount: 900, Seed: 4}
	// Record the synthetic stream the run would use.
	gen, _ := workload.NewSCM(workload.SCMConfig{
		Sites: 3, Keys: workload.Keys(10), InitialAmount: 900, Seed: 4,
	})
	var ops []workload.Op
	for i := 0; i < 500; i++ {
		ops = append(ops, gen.Next())
	}
	direct, err := RunProposed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	replayCfg := cfg
	replayCfg.Replay = ops
	replayed, err := RunProposed(replayCfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range direct.Total.Y {
		if direct.Total.Y[i] != replayed.Total.Y[i] {
			t.Fatalf("checkpoint %d: direct %d != replayed %d",
				i, direct.Total.Y[i], replayed.Total.Y[i])
		}
	}
}

func TestReplayCapsUpdates(t *testing.T) {
	ops := []workload.Op{{Site: 1, Key: "product-0000", Delta: -5}}
	res, err := RunProposed(Config{Updates: 1000, Items: 2, Checkpoint: 1, InitialAmount: 100, Replay: ops})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total.Len() != 1 {
		t.Fatalf("checkpoints = %d, want capped at replay length", res.Total.Len())
	}
}

func TestFairnessIndex(t *testing.T) {
	mk := func(vals ...int64) *ProposedResult {
		res := &ProposedResult{}
		for _, v := range vals {
			s := &metrics.Series{}
			s.Append(1, v)
			res.PerSite = append(res.PerSite, s)
		}
		return res
	}
	if f := Fairness(mk(0, 100, 100)); f != 1 {
		t.Fatalf("equal retailers: %v", f)
	}
	if f := Fairness(mk(0, 100, 0)); f != 0.5 {
		t.Fatalf("fully skewed 2 retailers: %v, want 0.5", f)
	}
	if f := Fairness(mk(0)); f != 1 {
		t.Fatalf("no retailers: %v", f)
	}
	// The real run is nearly fair.
	res, err := RunTable1(small())
	if err != nil {
		t.Fatal(err)
	}
	if f := Fairness(res); f < 0.95 {
		t.Fatalf("paper run fairness = %v, want > 0.95", f)
	}
}
