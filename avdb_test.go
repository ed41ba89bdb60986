package avdb

import (
	"context"
	"errors"
	"testing"
)

func bg() context.Context { return context.Background() }

func newC(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	if cfg.Sites == 0 {
		cfg.Sites = 3
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestQuickstartFlow(t *testing.T) {
	c := newC(t, Config{})
	if err := c.AddProduct(Product{Key: "widget", Amount: 900, Class: Regular}); err != nil {
		t.Fatal(err)
	}
	res, err := c.Update(bg(), 1, "widget", -100)
	if err != nil {
		t.Fatal(err)
	}
	if res.Path != PathDelayLocal {
		t.Fatalf("path = %v", res.Path)
	}
	if c.Correspondences() != 0 {
		t.Fatalf("local update cost %d correspondences", c.Correspondences())
	}
	if err := c.Sync(bg()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < c.Sites(); i++ {
		if v, _ := c.Read(i, "widget"); v != 800 {
			t.Fatalf("site %d = %d", i, v)
		}
	}
}

func TestNonRegularImmediate(t *testing.T) {
	c := newC(t, Config{})
	if err := c.AddProduct(Product{Key: "custom", Amount: 10, Class: NonRegular}); err != nil {
		t.Fatal(err)
	}
	res, err := c.Update(bg(), 2, "custom", -3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Path != PathImmediate {
		t.Fatalf("path = %v", res.Path)
	}
	// No Sync needed: all sites current.
	for i := 0; i < 3; i++ {
		if v, _ := c.Read(i, "custom"); v != 7 {
			t.Fatalf("site %d = %d", i, v)
		}
	}
	if _, err := c.Update(bg(), 0, "custom", -100); !errors.Is(err, ErrAborted) {
		t.Fatalf("overdraft err = %v", err)
	}
}

func TestCustomAVAllocation(t *testing.T) {
	c := newC(t, Config{})
	err := c.AddProductAV(Product{Key: "k", Amount: 100, Class: Regular}, []int64{100, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if av, _ := c.AV(0, "k"); av != 100 {
		t.Fatalf("site 0 AV = %d", av)
	}
	// Site 2 has no AV: its decrement must transfer.
	res, err := c.Update(bg(), 2, "k", -10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Path != PathDelayTransfer {
		t.Fatalf("path = %v", res.Path)
	}
	if c.Correspondences() == 0 {
		t.Fatal("transfer cost no correspondences")
	}
}

func TestInsufficientAVError(t *testing.T) {
	c := newC(t, Config{})
	c.AddProduct(Product{Key: "k", Amount: 30, Class: Regular})
	if _, err := c.Update(bg(), 1, "k", -31); !errors.Is(err, ErrInsufficientAV) {
		t.Fatalf("err = %v", err)
	}
}

func TestIsolateAndHeal(t *testing.T) {
	c := newC(t, Config{})
	c.AddProduct(Product{Key: "k", Amount: 900, Class: Regular})
	if err := c.Isolate(2); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Update(bg(), 2, "k", -50); err != nil {
		t.Fatalf("isolated delay update: %v", err)
	}
	c.Heal()
	c.Sync(bg())
	for i := 0; i < 3; i++ {
		if v, _ := c.Read(i, "k"); v != 850 {
			t.Fatalf("site %d = %d after heal", i, v)
		}
	}
}

func TestStats(t *testing.T) {
	c := newC(t, Config{})
	c.AddProduct(Product{Key: "k", Amount: 900, Class: Regular})
	c.Update(bg(), 1, "k", -10)
	local, transfer, imm, err := c.Stats(1)
	if err != nil {
		t.Fatal(err)
	}
	if local != 1 || transfer != 0 || imm != 0 {
		t.Fatalf("stats = %d/%d/%d", local, transfer, imm)
	}
}

func TestValidationErrors(t *testing.T) {
	if _, err := New(Config{Sites: 0}); err == nil {
		t.Fatal("0 sites accepted")
	}
	if _, err := New(Config{Sites: 1, Selector: "psychic"}); err == nil {
		t.Fatal("bad selector accepted")
	}
	if _, err := New(Config{Sites: 1, Decider: "everything"}); err == nil {
		t.Fatal("bad decider accepted")
	}
	c := newC(t, Config{})
	if err := c.AddProduct(Product{Key: "", Amount: 1}); err == nil {
		t.Fatal("empty key accepted")
	}
	if err := c.AddProductAV(Product{Key: "k", Amount: 1, Class: Regular}, []int64{1}); err == nil {
		t.Fatal("short AV allocation accepted")
	}
	if err := c.AddProductAV(Product{Key: "k", Amount: 1, Class: NonRegular}, []int64{1, 1, 1}); err == nil {
		t.Fatal("AV for non-regular accepted")
	}
	if _, err := c.Read(99, "k"); err == nil {
		t.Fatal("out-of-range site accepted")
	}
	if _, err := c.Update(bg(), -1, "k", 1); err == nil {
		t.Fatal("negative site accepted")
	}
}

func TestDurableCluster(t *testing.T) {
	dir := t.TempDir()
	c, err := New(Config{Sites: 2, Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	c.AddProduct(Product{Key: "k", Amount: 100, Class: Regular})
	if _, err := c.Update(bg(), 0, "k", -25); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen: site 0's local state must survive via WAL replay.
	c2, err := New(Config{Sites: 2, Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if v, err := c2.Read(0, "k"); err != nil || v != 75 {
		t.Fatalf("recovered value = %d, %v", v, err)
	}
}

func TestDurableAVCluster(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Sites: 2, Dir: dir, NoSync: true}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.AddProduct(Product{Key: "k", Amount: 100, Class: Regular}) // AV 50/50
	if _, err := c.Update(bg(), 1, "k", -30); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	c2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	// Idempotent re-registration of the catalog.
	if err := c2.AddProduct(Product{Key: "k", Amount: 100, Class: Regular}); err != nil {
		t.Fatal(err)
	}
	if v, _ := c2.Read(1, "k"); v != 70 {
		t.Fatalf("stock = %d", v)
	}
	if av, _ := c2.AV(1, "k"); av != 20 {
		t.Fatalf("AV = %d, want 20 (50 - 30, not re-minted)", av)
	}
	if av, _ := c2.AV(0, "k"); av != 50 {
		t.Fatalf("site 0 AV = %d", av)
	}
}

// A durable site that spent AV and restarts must come back with the
// spent AV gone: re-registering the catalog may not define it afresh
// over stock that is already spent.
func TestRestartDoesNotReMintAV(t *testing.T) {
	cfg := Config{Sites: 2, Dir: t.TempDir(), NoSync: true}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddProduct(Product{Key: "k", Amount: 100, Class: Regular}); err != nil { // AV 50/50
		t.Fatal(err)
	}
	if _, err := c.Update(bg(), 0, "k", -30); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	c2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if err := c2.AddProduct(Product{Key: "k", Amount: 100, Class: Regular}); err != nil {
		t.Fatal(err)
	}
	if av, _ := c2.AV(0, "k"); av != 20 {
		t.Fatalf("site 0 AV = %d after restart, want 20 (50 - 30)", av)
	}
	var total int64
	for _, av := range c2.AVDistribution("k") {
		total += av
	}
	if total != 70 {
		t.Fatalf("cluster AV = %d, want the 70 units of stock left", total)
	}
}

func TestAlternativePolicies(t *testing.T) {
	for _, sel := range []string{"max-known", "random", "round-robin"} {
		for _, dec := range []string{"half", "exact", "all", "generous"} {
			c, err := New(Config{Sites: 3, Selector: sel, Decider: dec, Seed: 9})
			if err != nil {
				t.Fatalf("%s/%s: %v", sel, dec, err)
			}
			c.AddProductAV(Product{Key: "k", Amount: 300, Class: Regular}, []int64{300, 0, 0})
			if _, err := c.Update(bg(), 1, "k", -50); err != nil {
				t.Fatalf("%s/%s update: %v", sel, dec, err)
			}
			c.Close()
		}
	}
}

func TestProductsAndAVDistribution(t *testing.T) {
	c := newC(t, Config{})
	c.AddProduct(Product{Key: "b", Name: "B", Amount: 90, Class: Regular})
	c.AddProduct(Product{Key: "a", Name: "A", Amount: 10, Class: NonRegular})
	prods, err := c.Products(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(prods) != 2 || prods[0].Key != "a" || prods[1].Key != "b" {
		t.Fatalf("products = %+v", prods)
	}
	if prods[1].Name != "B" || prods[1].Amount != 90 || prods[1].Class != Regular {
		t.Fatalf("product b = %+v", prods[1])
	}
	dist := c.AVDistribution("b")
	if len(dist) != 3 || dist[0]+dist[1]+dist[2] != 90 {
		t.Fatalf("distribution = %v", dist)
	}
	// After a transfer the distribution shifts but conserves.
	if _, err := c.Update(bg(), 1, "b", -40); err != nil {
		t.Fatal(err)
	}
	dist = c.AVDistribution("b")
	if dist[0]+dist[1]+dist[2] != 50 {
		t.Fatalf("post-sale distribution = %v", dist)
	}
	if _, err := c.Products(99); err == nil {
		t.Fatal("out-of-range site accepted")
	}
}
