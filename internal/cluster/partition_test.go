package cluster

import (
	"context"
	"errors"
	"testing"

	"avdb/internal/core"
	"avdb/internal/wire"
)

func shardedCluster(t *testing.T, sites, parts, rf int) *Cluster {
	t.Helper()
	c, err := New(Config{
		Sites:              sites,
		Items:              40,
		InitialAmount:      60,
		NonRegularFraction: 0.2,
		Partitions:         parts,
		RF:                 rf,
		Seed:               7,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// A sharded cluster serves updates issued at arbitrary sites by
// routing them to the owning replicas, and still satisfies every
// quiescent invariant: per-partition convergence, AV conservation,
// and store locality (no site holds a foreign key).
func TestShardedClusterEndToEnd(t *testing.T) {
	c := shardedCluster(t, 6, 16, 2)
	ctx := context.Background()

	for round := 0; round < 3; round++ {
		for i := 0; i < c.Cfg.Items; i++ {
			key := KeyName(i)
			origin := (i + round) % c.Cfg.Sites
			if _, err := c.Update(ctx, origin, key, -1); err != nil {
				t.Fatalf("update %s from site %d: %v", key, origin, err)
			}
		}
	}
	if err := c.FlushAll(ctx); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < c.Cfg.Items; i++ {
		v, err := c.ConvergedValue(KeyName(i))
		if err != nil {
			t.Fatal(err)
		}
		if v != 57 {
			t.Fatalf("%s = %d, want 57", KeyName(i), v)
		}
	}

	// With RF=2 of 6 sites, most origins cannot have hosted their key:
	// forwarding must actually have happened, and been served.
	var fwd, served uint64
	for _, s := range c.Sites {
		rs := s.RouteStats()
		fwd += rs.Forwarded
		served += rs.Served
		if rs.Misroutes != 0 {
			t.Fatalf("site %d counted %d misroutes in a healthy run", s.ID(), rs.Misroutes)
		}
	}
	if fwd == 0 || served != fwd {
		t.Fatalf("forwarded=%d served=%d, want equal and nonzero", fwd, served)
	}
}

// Per-partition stats surface exactly the hosted partitions.
func TestPartitionStatsCoverHostedPartitions(t *testing.T) {
	c := shardedCluster(t, 6, 16, 2)
	for _, s := range c.Sites {
		infos := s.PartitionStats()
		hosted := c.pm.Hosted(s.ID())
		if len(infos) != len(hosted) {
			t.Fatalf("site %d: %d stat entries, hosts %d partitions", s.ID(), len(infos), len(hosted))
		}
		for _, info := range infos {
			if !c.pm.IsReplica(info.Partition, s.ID()) {
				t.Fatalf("site %d reports stats for foreign partition %d", s.ID(), info.Partition)
			}
		}
	}
}

// A RouteUpdate that lands on a site not hosting the key's partition
// is rejected with RouteNotReplica and the current map attached — and
// the update is NOT applied anywhere.
func TestMisroutedUpdateRejectedNotApplied(t *testing.T) {
	c := shardedCluster(t, 6, 16, 2)
	pm := c.pm

	// Find a key and a site outside its replica set.
	key, wrong := "", -1
	for i := 0; i < c.Cfg.Items && wrong < 0; i++ {
		k := KeyName(i)
		hosts := map[int]bool{}
		for _, h := range c.HostSitesFor(k) {
			hosts[h] = true
		}
		for s := 0; s < c.Cfg.Sites; s++ {
			if !hosts[s] {
				key, wrong = k, s
				break
			}
		}
	}
	if wrong < 0 {
		t.Fatal("no non-replica site found")
	}
	before, err := c.ConvergedValue(key)
	if err != nil {
		t.Fatal(err)
	}

	// A rogue client node speaks RouteUpdate straight at the wrong site.
	node, err := c.Net.Open(wire.SiteID(99), func(ctx context.Context, from wire.SiteID, msg wire.Message) wire.Message {
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	reply, err := node.Call(context.Background(), wire.SiteID(wrong), &wire.RouteUpdate{
		MapVersion: pm.Version(), Key: key, Delta: -5,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, ok := reply.(*wire.RouteReply)
	if !ok {
		t.Fatalf("reply = %T", reply)
	}
	if rep.Status != wire.RouteNotReplica {
		t.Fatalf("status = %d, want RouteNotReplica", rep.Status)
	}
	if rep.MapVersion != pm.Version() || int(rep.Parts) != pm.Parts() {
		t.Fatalf("rejection must carry the receiver's map, got version=%d parts=%d", rep.MapVersion, rep.Parts)
	}
	if rs := c.Sites[wrong].RouteStats(); rs.Misroutes != 1 {
		t.Fatalf("misroutes = %d, want 1", rs.Misroutes)
	}
	// Not applied: the wrong site still has no copy, the replicas the
	// old value.
	if _, err := c.Sites[wrong].Read(key); err == nil {
		t.Fatalf("non-replica site %d has a copy of %q", wrong, key)
	}
	after, err := c.ConvergedValue(key)
	if err != nil {
		t.Fatal(err)
	}
	if after != before {
		t.Fatalf("misrouted update applied: %d -> %d", before, after)
	}
}

// A RouteUpdate to a site with partitioning disabled fails cleanly.
func TestRouteUpdateWithPartitioningDisabled(t *testing.T) {
	c, err := New(Config{Sites: 2, Items: 4, InitialAmount: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	node, err := c.Net.Open(wire.SiteID(99), func(ctx context.Context, from wire.SiteID, msg wire.Message) wire.Message {
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	reply, err := node.Call(context.Background(), 0, &wire.RouteUpdate{MapVersion: 1, Key: KeyName(0), Delta: -1})
	if err != nil {
		t.Fatal(err)
	}
	rep, ok := reply.(*wire.RouteReply)
	if !ok || rep.Status != wire.RouteErr {
		t.Fatalf("reply = %#v, want RouteErr", reply)
	}
	if v, _ := c.Read(0, KeyName(0)); v != 10 {
		t.Fatalf("value = %d, want 10 untouched", v)
	}
}

// Routed failures carry their class across the wire: an update that
// exhausts the partition's AV surfaces core.ErrInsufficientAV at the
// origin exactly as a local rejection would.
func TestRoutedErrorKeepsSentinel(t *testing.T) {
	c := shardedCluster(t, 6, 16, 2)
	ctx := context.Background()

	// Pick a regular key and an origin that does not host it.
	key, origin := "", -1
	for _, k := range c.RegularKeys {
		hosts := map[int]bool{}
		for _, h := range c.HostSitesFor(k) {
			hosts[h] = true
		}
		for s := 0; s < c.Cfg.Sites; s++ {
			if !hosts[s] {
				key, origin = k, s
				break
			}
		}
		if origin >= 0 {
			break
		}
	}
	if origin < 0 {
		t.Fatal("no non-replica origin found")
	}
	// Drain the partition-local AV (initial stock is 60) until the
	// routed update is rejected; the rejection must carry the same
	// sentinel a local one would.
	var err error
	drained := 0
	for i := 0; i < 8; i++ {
		if _, err = c.Update(ctx, origin, key, -10); err != nil {
			break
		}
		drained++
	}
	if err == nil {
		t.Fatal("over-drain succeeded")
	}
	if drained == 0 {
		t.Fatalf("first routed update already failed: %v", err)
	}
	if !errors.Is(err, core.ErrInsufficientAV) {
		t.Fatalf("err = %v, want core.ErrInsufficientAV", err)
	}
}
