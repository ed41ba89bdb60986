package workload

import (
	"testing"
)

func scmCfg() SCMConfig {
	return SCMConfig{
		Sites:         3,
		Keys:          Keys(10),
		InitialAmount: 1000,
		Seed:          1,
	}
}

func TestKeysNaming(t *testing.T) {
	ks := Keys(3)
	if len(ks) != 3 || ks[0] != "product-0000" || ks[2] != "product-0002" {
		t.Fatalf("keys = %v", ks)
	}
}

func TestSCMDeterminism(t *testing.T) {
	a, _ := NewSCM(scmCfg())
	b, _ := NewSCM(scmCfg())
	for i := 0; i < 1000; i++ {
		if a.Next() != b.Next() {
			t.Fatalf("streams diverged at op %d", i)
		}
	}
}

func TestSCMPaperBounds(t *testing.T) {
	g, err := NewSCM(scmCfg())
	if err != nil {
		t.Fatal(err)
	}
	sawMaker, sawRetail := false, false
	for i := 0; i < 20000; i++ {
		op := g.Next()
		if op.Site < 0 || op.Site >= 3 {
			t.Fatalf("site %d out of range", op.Site)
		}
		if op.Site == 0 {
			sawMaker = true
			if op.Delta < 1 || op.Delta > 200 { // 20% of 1000
				t.Fatalf("maker delta %d outside [1,200]", op.Delta)
			}
		} else {
			sawRetail = true
			if op.Delta > -1 || op.Delta < -100 { // 10% of 1000
				t.Fatalf("retailer delta %d outside [-100,-1]", op.Delta)
			}
		}
	}
	if !sawMaker || !sawRetail {
		t.Fatal("one site class never selected")
	}
}

func TestSCMSiteDistributionRoughlyUniform(t *testing.T) {
	g, _ := NewSCM(scmCfg())
	counts := make([]int, 3)
	const n = 30000
	for i := 0; i < n; i++ {
		counts[g.Next().Site]++
	}
	for s, c := range counts {
		if c < n/3-n/20 || c > n/3+n/20 {
			t.Fatalf("site %d got %d of %d ops", s, c, n)
		}
	}
}

func TestSCMRoundRobin(t *testing.T) {
	cfg := scmCfg()
	cfg.RoundRobinSites = true
	g, _ := NewSCM(cfg)
	for i := 0; i < 12; i++ {
		if op := g.Next(); op.Site != i%3 {
			t.Fatalf("op %d site = %d, want %d", i, op.Site, i%3)
		}
	}
}

func TestSCMCustomFractions(t *testing.T) {
	cfg := scmCfg()
	cfg.MakerIncreaseFrac = 0.5
	cfg.RetailerDecreaseFrac = 0.01
	g, _ := NewSCM(cfg)
	for i := 0; i < 5000; i++ {
		op := g.Next()
		if op.Site == 0 && op.Delta > 500 {
			t.Fatalf("maker delta %d > 500", op.Delta)
		}
		if op.Site != 0 && op.Delta < -10 {
			t.Fatalf("retailer delta %d < -10", op.Delta)
		}
	}
}

func TestSCMTinyInitialAmount(t *testing.T) {
	cfg := scmCfg()
	cfg.InitialAmount = 3 // fractions round to < 1; clamp to 1
	g, err := NewSCM(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		op := g.Next()
		if op.Delta == 0 {
			t.Fatal("zero delta generated")
		}
	}
}

func TestSCMConfigValidation(t *testing.T) {
	bad := scmCfg()
	bad.Sites = 0
	if _, err := NewSCM(bad); err == nil {
		t.Fatal("0 sites accepted")
	}
	bad = scmCfg()
	bad.Keys = nil
	if _, err := NewSCM(bad); err == nil {
		t.Fatal("no keys accepted")
	}
	bad = scmCfg()
	bad.InitialAmount = 0
	if _, err := NewSCM(bad); err == nil {
		t.Fatal("0 initial accepted")
	}
}

func TestSkewedConcentratesOps(t *testing.T) {
	g, err := NewSkewed(SkewedConfig{SCMConfig: scmCfg()})
	if err != nil {
		t.Fatal(err)
	}
	hot := map[string]bool{"product-0000": true, "product-0001": true} // 20% of 10
	hotOps := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if hot[g.Next().Key] {
			hotOps++
		}
	}
	frac := float64(hotOps) / n
	if frac < 0.75 || frac > 0.85 {
		t.Fatalf("hot fraction = %v, want ~0.8", frac)
	}
}

func TestSkewedSingleKey(t *testing.T) {
	cfg := scmCfg()
	cfg.Keys = Keys(1)
	g, err := NewSkewed(SkewedConfig{SCMConfig: cfg})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if op := g.Next(); op.Key != "product-0000" {
			t.Fatalf("key = %s", op.Key)
		}
	}
}
