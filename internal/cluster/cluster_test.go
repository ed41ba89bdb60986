package cluster

import (
	"context"
	"errors"
	"testing"
	"time"

	"avdb/internal/core"
	"avdb/internal/transport"
	"avdb/internal/twopc"
	"avdb/internal/wire"
)

func bg() context.Context { return context.Background() }

func newCluster(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	if cfg.Sites == 0 {
		cfg.Sites = 3
	}
	if cfg.Items == 0 {
		cfg.Items = 4
	}
	if cfg.InitialAmount == 0 {
		cfg.InitialAmount = 900
	}
	if cfg.CallTimeout == 0 {
		cfg.CallTimeout = 2 * time.Second
	}
	if cfg.LockTimeout == 0 {
		cfg.LockTimeout = 500 * time.Millisecond
	}
	if cfg.PrepareTimeout == 0 {
		cfg.PrepareTimeout = 500 * time.Millisecond
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestSeededStateAndAVSplit(t *testing.T) {
	c := newCluster(t, Config{Sites: 3, Items: 4, InitialAmount: 900})
	key := c.RegularKeys[0]
	for i := 0; i < 3; i++ {
		if v, err := c.Read(i, key); err != nil || v != 900 {
			t.Fatalf("site %d: %d, %v", i, v, err)
		}
		if av := c.Sites[i].AV().Avail(key); av != 300 {
			t.Fatalf("site %d AV = %d, want 300", i, av)
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDelayLocalUpdateNoMessages(t *testing.T) {
	c := newCluster(t, Config{})
	key := c.RegularKeys[0]
	before := c.Registry.TotalMessages()
	res, err := c.Update(bg(), 1, key, -100) // within site 1's AV of 300
	if err != nil {
		t.Fatal(err)
	}
	if res.Path != core.PathDelayLocal || res.Rounds != 0 {
		t.Fatalf("result = %+v", res)
	}
	if got := c.Registry.TotalMessages(); got != before {
		t.Fatalf("local delay update sent %d messages", got-before)
	}
	if v, _ := c.Read(1, key); v != 800 {
		t.Fatalf("local value = %d", v)
	}
	// Other sites have not seen it yet (lazy).
	if v, _ := c.Read(0, key); v != 900 {
		t.Fatalf("remote value = %d before flush", v)
	}
	if err := c.FlushAll(bg()); err != nil {
		t.Fatal(err)
	}
	if v, _ := c.ConvergedValue(key); v != 800 {
		t.Fatalf("converged = %d", v)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDelayUpdateWithTransfer(t *testing.T) {
	c := newCluster(t, Config{})
	key := c.RegularKeys[0]
	// Site 1 holds 300; needs 500 -> must pull from peers.
	res, err := c.Update(bg(), 1, key, -500)
	if err != nil {
		t.Fatal(err)
	}
	if res.Path != core.PathDelayTransfer {
		t.Fatalf("path = %v", res.Path)
	}
	if res.Rounds == 0 || res.Transferred < 200 {
		t.Fatalf("res = %+v", res)
	}
	if v, _ := c.Read(1, key); v != 400 {
		t.Fatalf("value = %d", v)
	}
	c.FlushAll(bg())
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Messages flowed and were attributed to the initiator, site 1.
	bySite := c.Registry.MessagesBySite()
	if bySite[1] == 0 {
		t.Fatalf("no messages attributed to initiator: %v", bySite)
	}
}

func TestIncrementRefillsAV(t *testing.T) {
	c := newCluster(t, Config{})
	key := c.RegularKeys[0]
	res, err := c.Update(bg(), 0, key, 250) // the maker restocks
	if err != nil {
		t.Fatal(err)
	}
	if res.Path != core.PathDelayLocal {
		t.Fatalf("path = %v", res.Path)
	}
	if av := c.Sites[0].AV().Avail(key); av != 550 {
		t.Fatalf("maker AV = %d, want 300+250", av)
	}
	c.FlushAll(bg())
	if v, _ := c.ConvergedValue(key); v != 1150 {
		t.Fatalf("converged = %d", v)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestInsufficientAVFailsCleanly(t *testing.T) {
	c := newCluster(t, Config{Sites: 3, Items: 2, InitialAmount: 90})
	key := c.RegularKeys[0]
	// Global slack is 90; 200 can never be satisfied.
	_, err := c.Update(bg(), 2, key, -200)
	if !errors.Is(err, core.ErrInsufficientAV) {
		t.Fatalf("err = %v", err)
	}
	// Nothing changed, and the accumulated AV went back to the table
	// (possibly redistributed: the requester now holds what peers sent).
	c.FlushAll(bg())
	if v, _ := c.ConvergedValue(key); v != 90 {
		t.Fatalf("value mutated to %d", v)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// A satisfiable update still works afterwards.
	if _, err := c.Update(bg(), 2, key, -80); err != nil {
		t.Fatalf("follow-up update: %v", err)
	}
	c.FlushAll(bg())
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestImmediateUpdatePath(t *testing.T) {
	c := newCluster(t, Config{Sites: 3, Items: 4, NonRegularFraction: 0.5, InitialAmount: 100})
	if len(c.NonRegularKeys) != 2 || len(c.RegularKeys) != 2 {
		t.Fatalf("classification: %d/%d", len(c.NonRegularKeys), len(c.RegularKeys))
	}
	key := c.NonRegularKeys[0]
	res, err := c.Update(bg(), 2, key, -40)
	if err != nil {
		t.Fatal(err)
	}
	if res.Path != core.PathImmediate {
		t.Fatalf("path = %v", res.Path)
	}
	// Immediate: every site sees the new value at once, no flush needed.
	for i := 0; i < 3; i++ {
		if v, _ := c.Read(i, key); v != 60 {
			t.Fatalf("site %d = %d, want 60 immediately", i, v)
		}
	}
	// Validation failure propagates.
	if _, err := c.Update(bg(), 1, key, -100); !errors.Is(err, twopc.ErrAborted) {
		t.Fatalf("overdraft: %v", err)
	}
}

func TestPartitionDelayContinuesImmediateAborts(t *testing.T) {
	c := newCluster(t, Config{Sites: 3, Items: 4, NonRegularFraction: 0.25, InitialAmount: 900, CallTimeout: 300 * time.Millisecond})
	regular, nonRegular := c.RegularKeys[0], c.NonRegularKeys[0]
	c.Net.Isolate(2)

	// The isolated retailer keeps serving Delay Updates from its AV —
	// the paper's fault-tolerance claim.
	if _, err := c.Update(bg(), 2, regular, -200); err != nil {
		t.Fatalf("delay update during partition: %v", err)
	}
	// Immediate Updates need everyone: they abort.
	if _, err := c.Update(bg(), 2, nonRegular, -1); !errors.Is(err, twopc.ErrAborted) {
		t.Fatalf("immediate during partition: %v", err)
	}
	// And a Delay Update beyond local AV also fails (peers unreachable).
	if _, err := c.Update(bg(), 2, regular, -500); !errors.Is(err, core.ErrInsufficientAV) {
		t.Fatalf("transfer during partition: %v", err)
	}

	c.Net.Heal()
	if err := c.FlushAll(bg()); err != nil {
		t.Fatal(err)
	}
	if v, err := c.ConvergedValue(regular); err != nil || v != 700 {
		t.Fatalf("after heal: %d, %v", v, err)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestGossipInformsSelection(t *testing.T) {
	c := newCluster(t, Config{Sites: 3, Items: 1, InitialAmount: 900})
	key := c.RegularKeys[0]
	// First shortage forces site 1 to ask someone; replies teach it who
	// holds what.
	if _, err := c.Update(bg(), 1, key, -400); err != nil {
		t.Fatal(err)
	}
	v := c.Sites[1].Accelerator().View()
	known0, ok0 := v.Known(0, key)
	known2, ok2 := v.Known(2, key)
	if !ok0 && !ok2 {
		t.Fatal("view learned nothing from AV replies")
	}
	_ = known0
	_ = known2
}

func TestAVAllAtBase(t *testing.T) {
	c := newCluster(t, Config{Sites: 3, Items: 2, InitialAmount: 600, AVAllAtBase: true})
	key := c.RegularKeys[0]
	if av := c.Sites[0].AV().Avail(key); av != 600 {
		t.Fatalf("base AV = %d", av)
	}
	if av := c.Sites[1].AV().Avail(key); av != 0 {
		t.Fatalf("retailer AV = %d", av)
	}
	// A retailer's first decrement must fetch AV from the base.
	res, err := c.Update(bg(), 1, key, -50)
	if err != nil {
		t.Fatal(err)
	}
	if res.Path != core.PathDelayTransfer {
		t.Fatalf("path = %v", res.Path)
	}
	c.FlushAll(bg())
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// dropGrants drops every AV grant reply: the granter debits and the
// requester never credits.
type dropGrants struct{}

func (dropGrants) Intercept(from, to wire.SiteID, isReply bool, kind wire.Kind) transport.Fault {
	return transport.Fault{Drop: isReply && kind == wire.KindAVReply}
}

// TestLostGrantWithinSlackBound: a grant whose reply is lost leaves the
// AV sum short of the stock by exactly LostSlackBound, which
// CheckInvariants accepts; a unit missing beyond the bound it rejects.
func TestLostGrantWithinSlackBound(t *testing.T) {
	c := newCluster(t, Config{Sites: 2, Items: 1, InitialAmount: 600, AVAllAtBase: true,
		Interceptor: dropGrants{}, CallTimeout: 100 * time.Millisecond, RequestTimeout: 50 * time.Millisecond})
	key := c.RegularKeys[0]
	if _, err := c.Update(bg(), 1, key, -50); !errors.Is(err, core.ErrInsufficientAV) {
		t.Fatalf("err = %v, want ErrInsufficientAV", err)
	}
	// SODA99 grants half the base's 600.
	if lost := c.LostSlackBound(); lost != 300 {
		t.Fatalf("LostSlackBound = %d, want 300", lost)
	}
	if sum := c.Sites[0].AV().Total(key) + c.Sites[1].AV().Total(key); sum != 300 {
		t.Fatalf("AV sum = %d, want 300", sum)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// One more unit gone with no lost grant or crash to explain it.
	if ok, err := c.Sites[0].AV().Acquire(key, 1); !ok || err != nil {
		t.Fatalf("Acquire = %v, %v", ok, err)
	}
	if err := c.Sites[0].AV().Spend(key, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckInvariants(); err == nil {
		t.Fatal("slack lost beyond the bound passed CheckInvariants")
	}
}

func TestManyUpdatesInvariantHolds(t *testing.T) {
	c := newCluster(t, Config{Sites: 3, Items: 3, InitialAmount: 3000, Seed: 11})
	for i := 0; i < 300; i++ {
		siteIdx := i % 3
		key := c.RegularKeys[i%len(c.RegularKeys)]
		var delta int64
		if siteIdx == 0 {
			delta = int64(1 + i%40) // maker restocks
		} else {
			delta = -int64(1 + i%25) // retailers sell
		}
		if _, err := c.Update(bg(), siteIdx, key, delta); err != nil {
			if errors.Is(err, core.ErrInsufficientAV) {
				continue // legitimate under heavy draw-down
			}
			t.Fatalf("update %d: %v", i, err)
		}
	}
	if err := c.FlushAll(bg()); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBadConfigs(t *testing.T) {
	if _, err := New(Config{Sites: 0, Items: 1}); err == nil {
		t.Fatal("0 sites accepted")
	}
	if _, err := New(Config{Sites: 1, Items: 0}); err == nil {
		t.Fatal("0 items accepted")
	}
}

func TestSingleSiteCluster(t *testing.T) {
	c := newCluster(t, Config{Sites: 1, Items: 2, InitialAmount: 100})
	key := c.RegularKeys[0]
	if _, err := c.Update(bg(), 0, key, -100); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Update(bg(), 0, key, -1); !errors.Is(err, core.ErrInsufficientAV) {
		t.Fatalf("overdraft on single site: %v", err)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
