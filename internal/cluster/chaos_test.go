package cluster

import (
	"context"
	"errors"
	"testing"
	"testing/quick"
	"time"

	"avdb/internal/chaos"
	"avdb/internal/core"
	"avdb/internal/failure"
	"avdb/internal/rng"
	"avdb/internal/transport"
	"avdb/internal/twopc"
	"avdb/internal/wire"
)

// expectedChaosErr reports whether err is a legitimate outcome under
// fault injection (as opposed to a correctness bug).
func expectedChaosErr(err error) bool {
	return errors.Is(err, core.ErrInsufficientAV) ||
		errors.Is(err, twopc.ErrAborted) ||
		errors.Is(err, twopc.ErrCompletionUnknown) ||
		errors.Is(err, transport.ErrUnreachable) ||
		errors.Is(err, transport.ErrTimeout)
}

// chaosRun drives random updates while randomly partitioning, crashing
// and healing sites, then heals everything and checks that every
// invariant still holds: replicas converge and no allowable volume was
// minted or destroyed.
func chaosRun(t *testing.T, seed uint64, steps int) error {
	t.Helper()
	c, err := New(Config{
		Sites:              4,
		Items:              5,
		InitialAmount:      4000,
		NonRegularFraction: 0.2,
		Seed:               seed,
		CallTimeout:        150 * time.Millisecond,
		LockTimeout:        150 * time.Millisecond,
		PrepareTimeout:     150 * time.Millisecond,
		RequestTimeout:     150 * time.Millisecond,
	})
	if err != nil {
		return err
	}
	defer c.Close()

	r := rng.New(seed)
	ctx := context.Background()
	allKeys := append(append([]string{}, c.RegularKeys...), c.NonRegularKeys...)
	crashed := map[int]bool{}

	for i := 0; i < steps; i++ {
		switch r.Intn(12) {
		case 0: // partition a random pair
			a, b := r.Intn(4), r.Intn(4)
			if a != b {
				c.Net.Block(wire.SiteID(a), wire.SiteID(b))
			}
		case 1: // isolate a site
			c.Net.Isolate(wire.SiteID(r.Intn(4)))
		case 2: // heal everything
			c.Net.Heal()
		case 3: // crash a site (never all of them)
			if len(crashed) < 2 {
				v := r.Intn(4)
				c.Net.Crash(wire.SiteID(v))
				crashed[v] = true
			}
		case 4: // restart a crashed site
			for v := range crashed {
				c.Net.Restart(wire.SiteID(v))
				delete(crashed, v)
				break
			}
		case 5: // anti-entropy attempt (may be partially blocked: fine)
			_ = c.FlushAll(ctx)
		default: // an update from a random live site
			siteIdx := r.Intn(4)
			if crashed[siteIdx] {
				continue
			}
			key := allKeys[r.Intn(len(allKeys))]
			var delta int64
			if siteIdx == 0 {
				delta = r.Range(1, 100)
			} else {
				delta = -r.Range(1, 60)
			}
			if _, err := c.Update(ctx, siteIdx, key, delta); err != nil && !expectedChaosErr(err) {
				return err
			}
		}
	}

	// Quiesce: heal, restart, drain orphaned 2PC state, converge.
	c.Net.Heal()
	for v := range crashed {
		c.Net.Restart(wire.SiteID(v))
	}
	for _, s := range c.Sites {
		s.TwoPC().Sweep(time.Now().Add(time.Hour))
	}
	for round := 0; round < 3; round++ {
		if err := c.FlushAll(ctx); err != nil {
			return err
		}
	}
	// Regular keys: full conservation must hold.
	for _, key := range c.RegularKeys {
		v, err := c.ConvergedValue(key)
		if err != nil {
			return err
		}
		var avSum int64
		for _, s := range c.Sites {
			avSum += s.AV().Total(key)
		}
		if avSum != v {
			return errors.New("AV conservation violated after chaos")
		}
	}
	// Non-regular keys: replicas may legitimately diverge only if a
	// coordinator committed while a participant was crashed mid-decision
	// (ErrCompletionUnknown surfaced then). Verify each value is at
	// least sane (no panic, readable); strict convergence is asserted in
	// the partition-free tests.
	for _, key := range c.NonRegularKeys {
		for i := range c.Sites {
			if _, err := c.Read(i, key); err != nil {
				return err
			}
		}
	}
	return nil
}

func TestChaosInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run is slow")
	}
	f := func(seed uint64) bool {
		if err := chaosRun(t, seed, 250); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 6}); err != nil {
		t.Fatal(err)
	}
}

func TestChaosFixedSeedLong(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run is slow")
	}
	if err := chaosRun(t, 424242, 800); err != nil {
		t.Fatal(err)
	}
}

// TestChaosSoakScripted is the conservation soak for the full failure
// model: durable sites on a fault-injected network run a seeded
// workload through scripted 5% message loss, a symmetric partition, and
// a crash-restart-from-WAL of one site, with AV transfers,
// retransmission, per-peer flush backoff and failure detection all on.
// After the scenario heals and the cluster quiesces (sweeps,
// anti-entropy), every invariant must hold: replicas converge, sum(AV)
// never exceeds the surviving stock and falls short of it by no more
// than lost grants and the crash explain, and no hold is left behind —
// a lost reply or a crash may lose slack, never mint it.
func TestChaosSoakScripted(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak is slow")
	}
	inj := chaos.NewInjector(2026)
	c, err := New(Config{
		Sites:              4,
		Items:              3,
		InitialAmount:      120,
		NonRegularFraction: 0.34,
		Seed:               99,
		Dir:                t.TempDir(),
		Interceptor:        inj,
		RetransmitInterval: 25 * time.Millisecond,
		CallTimeout:        250 * time.Millisecond,
		LockTimeout:        250 * time.Millisecond,
		PrepareTimeout:     250 * time.Millisecond,
		RequestTimeout:     250 * time.Millisecond,
		FlushPeerTimeout:   200 * time.Millisecond,
		FlushBackoff:       failure.Policy{BaseDelay: 100 * time.Millisecond, MaxDelay: 800 * time.Millisecond},
		SuspectAfter:       500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	script, err := chaos.Parse(`
		# ambient loss for the whole run
		at 0 drop 0.05
		# split {0,1} | {2,3} for a while
		at 60 partition 0 1 | 2 3
		at 75 heal
		# kill site 2, bring it back from its WAL
		at 110 crash 2
		at 140 restart 2
		# clean network for the tail of the run
		at 180 drop 0
		at 180 heal
	`)
	if err != nil {
		t.Fatal(err)
	}
	env := c.ChaosEnv()
	ctx := context.Background()
	r := rng.New(7)
	allKeys := append(append([]string{}, c.RegularKeys...), c.NonRegularKeys...)

	const ticks = 200
	for tick := int64(0); tick < ticks; tick++ {
		if _, err := script.Advance(tick, inj, env); err != nil {
			t.Fatalf("tick %d: %v", tick, err)
		}
		idx := r.Intn(4)
		if c.SiteDown(idx) {
			continue
		}
		key := allKeys[r.Intn(len(allKeys))]
		delta := -r.Range(1, 5)
		if _, err := c.Update(ctx, idx, key, delta); err != nil && !expectedChaosErr(err) {
			t.Fatalf("tick %d site %d key %s: %v", tick, idx, key, err)
		}
		if tick%20 == 19 {
			_ = c.FlushAll(ctx) // partial failure is the point
		}
	}
	if !script.Done() {
		t.Fatal("scenario script did not run to completion")
	}

	// Quiesce: stop injecting, drain orphaned 2PC state, and let
	// anti-entropy outlast the flush backoff windows opened during the
	// faults.
	inj.SetDefault(chaos.LinkFaults{})
	inj.Heal()
	for round := 0; round < 6; round++ {
		hctx, cancel := context.WithTimeout(ctx, 2*time.Second)
		for i, s := range c.Sites {
			if c.SiteDown(i) {
				continue
			}
			s.TwoPC().Sweep(time.Now().Add(time.Hour))
			s.Heartbeat(hctx)
		}
		cancel()
		if err := c.FlushAll(ctx); err != nil {
			t.Fatalf("quiesce flush round %d: %v", round, err)
		}
		time.Sleep(200 * time.Millisecond)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
