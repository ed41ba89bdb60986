package site

import (
	"context"
	"strings"
	"testing"
	"time"

	"avdb/internal/clock"
	"avdb/internal/core"
	"avdb/internal/epoch"
	"avdb/internal/eventlog"
	"avdb/internal/metrics"
	"avdb/internal/storage"
	"avdb/internal/transport/memnet"
	"avdb/internal/wire"
)

func bg() context.Context { return context.Background() }

// openPair opens n sites on a fresh memnet with the shared catalog.
func openSites(t *testing.T, net *memnet.Net, n int, cfg Config) []*Site {
	t.Helper()
	sites := make([]*Site, n)
	for i := 0; i < n; i++ {
		c := cfg
		c.ID = wire.SiteID(i)
		c.Base = 0
		c.Peers = nil
		for p := 0; p < n; p++ {
			if p != i {
				c.Peers = append(c.Peers, wire.SiteID(p))
			}
		}
		s, err := Open(c, net)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		if err := s.Seed(
			storage.Record{Key: "reg", Amount: 600, Class: storage.Regular},
			storage.Record{Key: "non", Amount: 90, Class: storage.NonRegular},
		); err != nil {
			t.Fatal(err)
		}
		if err := s.DefineAV("reg", 200); err != nil {
			t.Fatal(err)
		}
		sites[i] = s
	}
	return sites
}

func TestDispatchAllMessageKinds(t *testing.T) {
	net := memnet.New(memnet.Options{})
	sites := openSites(t, net, 3, Config{})

	// AVRequest path: force a transfer.
	if res, err := sites[1].Update(bg(), "reg", -300); err != nil {
		t.Fatal(err)
	} else if res.Path != core.PathDelayTransfer {
		t.Fatalf("path = %v", res.Path)
	}
	// IUPrepare/IUDecision path.
	if res, err := sites[2].Update(bg(), "non", -10); err != nil {
		t.Fatal(err)
	} else if res.Path != core.PathImmediate {
		t.Fatalf("path = %v", res.Path)
	}
	// DeltaSync path.
	if err := sites[1].Flush(bg()); err != nil {
		t.Fatal(err)
	}
	if v, _ := sites[0].Read("reg"); v != 300 {
		t.Fatalf("site0 reg = %d", v)
	}
	// Read path.
	v, err := sites[0].ReadRemote(bg(), 2, "reg")
	if err != nil {
		t.Fatal(err)
	}
	if v != 300 {
		t.Fatalf("remote read = %d", v)
	}
	if _, err := sites[0].ReadRemote(bg(), 2, "ghost"); err == nil {
		t.Fatal("remote read of missing key succeeded")
	}
}

func TestBackgroundFlushLoop(t *testing.T) {
	net := memnet.New(memnet.Options{})
	sites := openSites(t, net, 2, Config{FlushInterval: 20 * time.Millisecond})
	if _, err := sites[1].Update(bg(), "reg", -50); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for {
		if v, _ := sites[0].Read("reg"); v == 550 {
			break
		}
		if time.Now().After(deadline) {
			v, _ := sites[0].Read("reg")
			t.Fatalf("background flush never converged: site0 = %d", v)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestBackgroundSweepLoop(t *testing.T) {
	net := memnet.New(memnet.Options{})
	sites := openSites(t, net, 2, Config{SweepInterval: 20 * time.Millisecond})
	// Plant an orphaned prepared transaction with an immediate deadline.
	iu := sites[1].TwoPC()
	vote := iu.HandlePrepare(context.Background(), 0, &wire.IUPrepare{TxnID: 42, Coord: 0, Key: "non", Delta: -1})
	if !vote.OK {
		t.Fatalf("prepare: %s", vote.Reason)
	}
	// The default TTL is long; verify the loop runs by sweeping manually
	// through the public hook and confirming the loop also doesn't crash.
	if n := sites[1].Sweep(); n != 0 {
		t.Fatalf("early sweep removed %d", n)
	}
	time.Sleep(60 * time.Millisecond) // let the loop tick a few times
	if iu.PreparedCount() != 1 {
		t.Fatal("sweep loop removed a non-expired prepared txn")
	}
	iu.HandleDecision(context.Background(), 0, &wire.IUDecision{TxnID: 42, Commit: false})
}

func TestDurableSiteRecovers(t *testing.T) {
	dir := t.TempDir()
	net := memnet.New(memnet.Options{})
	cfg := Config{ID: 0, StorageDir: dir, NoSync: true}
	s, err := Open(cfg, net)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Seed(storage.Record{Key: "k", Amount: 100, Class: storage.Regular}); err != nil {
		t.Fatal(err)
	}
	s.DefineAV("k", 100)
	if _, err := s.Update(bg(), "k", -40); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(cfg, memnet.New(memnet.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if v, _ := s2.Read("k"); v != 60 {
		t.Fatalf("recovered value = %d", v)
	}
}

func TestPersistentAVSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{ID: 0, StorageDir: dir, PersistAV: true, NoSync: true}
	s, err := Open(cfg, memnet.New(memnet.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Seed(storage.Record{Key: "k", Amount: 100, Class: storage.Regular}); err != nil {
		t.Fatal(err)
	}
	s.DefineAV("k", 100)
	if _, err := s.Update(bg(), "k", -40); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(cfg, memnet.New(memnet.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	// Stock AND AV both recovered; conservation preserved.
	if v, _ := s2.Read("k"); v != 60 {
		t.Fatalf("stock = %d", v)
	}
	if av := s2.AV().Avail("k"); av != 60 {
		t.Fatalf("AV = %d, want 60", av)
	}
	// Without PersistAV the table would be empty after restart and the
	// same key would fall through to the Immediate path.
	if !s2.AV().Defined("k") {
		t.Fatal("AV definition lost")
	}
	if _, err := s2.Update(bg(), "k", -60); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Update(bg(), "k", -1); err == nil {
		t.Fatal("overdraft allowed after recovery — AV minted somewhere")
	}
}

func TestPersistAVRequiresStorageDir(t *testing.T) {
	_, err := Open(Config{ID: 0, PersistAV: true}, memnet.New(memnet.Options{}))
	if err == nil {
		t.Fatal("PersistAV without StorageDir accepted")
	}
}

func TestUpdateUnknownKeyFails(t *testing.T) {
	net := memnet.New(memnet.Options{})
	sites := openSites(t, net, 2, Config{PrepareTimeout: 200 * time.Millisecond})
	// No AV defined and key missing: the immediate path aborts.
	if _, err := sites[0].Update(bg(), "ghost", -1); err == nil {
		t.Fatal("update of unknown key succeeded")
	}
}

func TestAccessors(t *testing.T) {
	net := memnet.New(memnet.Options{})
	sites := openSites(t, net, 2, Config{})
	s := sites[1]
	if s.ID() != 1 {
		t.Fatalf("ID = %d", s.ID())
	}
	if s.Engine() == nil || s.AV() == nil || s.Accelerator() == nil ||
		s.Replicator() == nil || s.TwoPC() == nil {
		t.Fatal("nil component accessor")
	}
	if !s.AV().Defined("reg") {
		t.Fatal("AV accessor detached")
	}
}

func TestSyncFailureReturnsCurrentAck(t *testing.T) {
	// When HandleSync errors (unknown key from a mis-seeded peer), the
	// site must still reply with its applied watermark, not drop the
	// request.
	net := memnet.New(memnet.Options{})
	sites := openSites(t, net, 2, Config{})
	reply := sites[0].handle(context.Background(), 1, &wire.DeltaSync{Origin: 1, FirstSeq: 1, Deltas: []wire.Delta{
		{Seq: 1, Key: "not-seeded", Amount: -1},
	}})
	ack, ok := reply.(*wire.DeltaAck)
	if !ok {
		t.Fatalf("reply = %T", reply)
	}
	if ack.UpTo != 0 {
		t.Fatalf("ack = %+v", ack)
	}
}

func TestUnknownMessageIgnored(t *testing.T) {
	net := memnet.New(memnet.Options{})
	sites := openSites(t, net, 1, Config{})
	if reply := sites[0].handle(context.Background(), 0, &wire.AVReply{Key: "x", Granted: 1}); reply != nil {
		t.Fatalf("a reply sent as a request was answered: %T", reply)
	}
}

func TestPullAndReadFresh(t *testing.T) {
	net := memnet.New(memnet.Options{})
	sites := openSites(t, net, 3, Config{})
	// Site 1 sells locally; nobody flushes.
	if _, err := sites[1].Update(bg(), "reg", -120); err != nil {
		t.Fatal(err)
	}
	if v, _ := sites[0].Read("reg"); v != 600 {
		t.Fatalf("stale read should still be 600, got %d", v)
	}
	// A fresh read at site 0 pulls the delta in.
	v, err := sites[0].ReadFresh(bg(), "reg")
	if err != nil {
		t.Fatal(err)
	}
	if v != 480 {
		t.Fatalf("fresh read = %d, want 480", v)
	}
	// And the pulled ack drained site 1's backlog for site 0.
	net.Quiesce()
	deadline := time.Now().Add(2 * time.Second)
	for sites[1].Replicator().Lag(0) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("lag = %d after pull ack", sites[1].Replicator().Lag(0))
		}
		time.Sleep(time.Millisecond)
	}
}

func TestReadFreshDuringPartitionDegrades(t *testing.T) {
	net := memnet.New(memnet.Options{CallTimeout: 200 * time.Millisecond})
	sites := openSites(t, net, 3, Config{})
	sites[1].Update(bg(), "reg", -100)
	net.Isolate(0)
	// Pull skips the unreachable peers; the read is the local view.
	v, err := sites[0].ReadFresh(bg(), "reg")
	if err != nil {
		t.Fatal(err)
	}
	if v != 600 {
		t.Fatalf("isolated fresh read = %d, want local 600", v)
	}
}

func TestDurableReplicationAcrossRestart(t *testing.T) {
	// A durable site commits local delay updates, "crashes" before
	// flushing, restarts, and must still propagate them; meanwhile a
	// peer's lost ack causes a retransmission that must not double-apply.
	dirA := t.TempDir()
	net1 := memnet.New(memnet.Options{})
	cfgA := Config{ID: 0, Peers: []wire.SiteID{1}, StorageDir: dirA, NoSync: true}
	a, err := Open(cfgA, net1)
	if err != nil {
		t.Fatal(err)
	}
	a.Seed(storage.Record{Key: "k", Amount: 500, Class: storage.Regular})
	a.DefineAV("k", 500)
	if _, err := a.Update(bg(), "k", -200); err != nil {
		t.Fatal(err)
	}
	// Crash before any flush: the outbound log must survive.
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	net2 := memnet.New(memnet.Options{})
	a2, err := Open(cfgA, net2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a2.Close() })
	cfgB := Config{ID: 1, Peers: []wire.SiteID{0}}
	b, err := Open(cfgB, net2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	b.Seed(storage.Record{Key: "k", Amount: 500, Class: storage.Regular})
	b.DefineAV("k", 0)

	if err := a2.Flush(bg()); err != nil {
		t.Fatal(err)
	}
	if v, _ := b.Read("k"); v != 300 {
		t.Fatalf("peer value = %d, want 300 (log lost in restart?)", v)
	}
	// Retransmission (e.g. after a lost ack) must be idempotent.
	if err := a2.Flush(bg()); err != nil {
		t.Fatal(err)
	}
	if v, _ := b.Read("k"); v != 300 {
		t.Fatalf("peer value = %d after reflush", v)
	}
}

func TestDurableReceiverRestartDedupesRetransmission(t *testing.T) {
	dirB := t.TempDir()
	net1 := memnet.New(memnet.Options{})
	a, err := Open(Config{ID: 0, Peers: []wire.SiteID{1}}, net1)
	if err != nil {
		t.Fatal(err)
	}
	a.Seed(storage.Record{Key: "k", Amount: 500, Class: storage.Regular})
	a.DefineAV("k", 500)
	cfgB := Config{ID: 1, Peers: []wire.SiteID{0}, StorageDir: dirB, NoSync: true}
	b, err := Open(cfgB, net1)
	if err != nil {
		t.Fatal(err)
	}
	b.Seed(storage.Record{Key: "k", Amount: 500, Class: storage.Regular})
	b.DefineAV("k", 0)

	if _, err := a.Update(bg(), "k", -100); err != nil {
		t.Fatal(err)
	}
	if err := a.Flush(bg()); err != nil {
		t.Fatal(err)
	}
	if v, _ := b.Read("k"); v != 400 {
		t.Fatalf("b = %d", v)
	}
	// Receiver restarts; sender "forgets" the ack (fresh volatile state)
	// and retransmits everything.
	b.Close()
	a.Close()
	net2 := memnet.New(memnet.Options{})
	a2, err := Open(Config{ID: 0, Peers: []wire.SiteID{1}}, net2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a2.Close() })
	a2.Seed(storage.Record{Key: "k", Amount: 500, Class: storage.Regular})
	a2.DefineAV("k", 400)
	if _, err := a2.Update(bg(), "k", -100); err != nil { // same seq 1 again
		t.Fatal(err)
	}
	b2, err := Open(cfgB, net2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b2.Close() })
	// b2's durable watermark says origin 0 is at seq 1 — but a2 is a
	// FRESH origin reusing seq 1 for a genuinely new delta. This is the
	// documented operational rule: volatile sites must not reuse an ID
	// against durable peers. Here we verify the watermark at least
	// prevents double-apply of the original delta.
	if v, _ := b2.Read("k"); v != 400 {
		t.Fatalf("b2 recovered = %d", v)
	}
	if got := b2.Replicator().AppliedFrom(0); got != 1 {
		t.Fatalf("durable watermark = %d", got)
	}
}

func TestEventLogCapturesProtocol(t *testing.T) {
	log := eventlog.New(256)
	net := memnet.New(memnet.Options{})
	sites := openSites(t, net, 2, Config{Events: log})
	// A transfer-producing update generates: update event at site 1,
	// recv.av.request at site 0.
	if _, err := sites[1].Update(bg(), "reg", -300); err != nil {
		t.Fatal(err)
	}
	var sawUpdate, sawRecv bool
	for _, e := range log.Snapshot() {
		if e.Type == "update.delay-transfer" && e.Site == 1 && e.Key == "reg" {
			sawUpdate = true
		}
		if e.Type == "recv.av.request" && e.Site == 0 && e.Key == "reg" {
			sawRecv = true
		}
	}
	if !sawUpdate || !sawRecv {
		var b strings.Builder
		log.Dump(&b)
		t.Fatalf("missing events (update=%v recv=%v):\n%s", sawUpdate, sawRecv, b.String())
	}
	// Failed updates are also recorded.
	sites[1].Update(bg(), "reg", -100000)
	found := false
	for _, e := range log.Snapshot() {
		if e.Type == "update.failed" {
			found = true
		}
	}
	if !found {
		t.Fatal("failed update not logged")
	}
}

func TestMaintainCompactsAndCheckpoints(t *testing.T) {
	dir := t.TempDir()
	net := memnet.New(memnet.Options{})
	cfgA := Config{ID: 0, Peers: []wire.SiteID{1}, StorageDir: dir, PersistAV: true, NoSync: true}
	a, err := Open(cfgA, net)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	b, err := Open(Config{ID: 1, Peers: []wire.SiteID{0}}, net)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	for _, s := range []*Site{a, b} {
		s.Seed(storage.Record{Key: "k", Amount: 1000, Class: storage.Regular})
	}
	a.DefineAV("k", 1000)
	b.DefineAV("k", 0)
	for i := 0; i < 20; i++ {
		if _, err := a.Update(bg(), "k", -5); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Flush(bg()); err != nil {
		t.Fatal(err)
	}
	if err := a.Maintain(); err != nil {
		t.Fatal(err)
	}
	if a.Replicator().LogLen() != 0 {
		t.Fatalf("log not compacted: %d entries", a.Replicator().LogLen())
	}
	// State is fully intact after maintenance + restart.
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	a2, err := Open(cfgA, memnet.New(memnet.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a2.Close() })
	if v, _ := a2.Read("k"); v != 900 {
		t.Fatalf("value after maintain+restart = %d", v)
	}
	if av := a2.AV().Avail("k"); av != 900 {
		t.Fatalf("AV after maintain+restart = %d", av)
	}
	if a2.Replicator().NextSeq() != 21 {
		t.Fatalf("NextSeq = %d, want 21", a2.Replicator().NextSeq())
	}
	// In-memory sites: Maintain is a harmless no-op.
	if err := b.Maintain(); err != nil {
		t.Fatal(err)
	}
}

func TestVirtualClockDrivesFlushLoop(t *testing.T) {
	vc := clock.NewVirtual(time.Unix(0, 0))
	net := memnet.New(memnet.Options{})
	sites := openSites(t, net, 2, Config{FlushInterval: time.Minute, Clock: vc})
	if _, err := sites[1].Update(bg(), "reg", -50); err != nil {
		t.Fatal(err)
	}
	// Real time passes, virtual time does not: nothing flushes.
	time.Sleep(30 * time.Millisecond)
	if v, _ := sites[0].Read("reg"); v != 600 {
		t.Fatalf("flush fired without virtual time advancing: %d", v)
	}
	// Step the virtual clock; the loop runs exactly then. Wait for both
	// sites to arm their timers first (2 flush loops).
	deadline := time.Now().Add(2 * time.Second)
	for vc.Pending() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("flush loops never armed their timers")
		}
		time.Sleep(time.Millisecond)
	}
	vc.Advance(time.Minute)
	deadline = time.Now().Add(2 * time.Second)
	for {
		if v, _ := sites[0].Read("reg"); v == 550 {
			break
		}
		if time.Now().After(deadline) {
			v, _ := sites[0].Read("reg")
			t.Fatalf("virtual tick did not trigger flush: site0 = %d", v)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestHeartbeatSuspectsDeadPeer(t *testing.T) {
	net := memnet.New(memnet.Options{CallTimeout: 50 * time.Millisecond})
	sites := openSites(t, net, 2, Config{})

	net.Block(0, 1)
	for i := 0; i < 3; i++ { // failure.FailureThreshold consecutive misses
		sites[0].Heartbeat(bg())
	}
	if !sites[0].Detector().Suspect(1) {
		t.Fatal("detector did not suspect unreachable peer after 3 missed heartbeats")
	}
	net.Unblock(0, 1)
	sites[0].Heartbeat(bg())
	if sites[0].Detector().Suspect(1) {
		t.Fatal("one successful heartbeat did not clear suspicion")
	}
}

func TestReopenConservesPlainGrant(t *testing.T) {
	// An AV transfer leaves a durable debit at the granter and a durable
	// credit, committed with the spend, at the requester. Both sites
	// restart; the global allowable volume must survive unchanged.
	dirA, dirB := t.TempDir(), t.TempDir()
	mk := func(id, peer wire.SiteID, dir string) Config {
		return Config{
			ID: id, Base: 0, Peers: []wire.SiteID{peer},
			StorageDir: dir, PersistAV: true, NoSync: true,
		}
	}
	net1 := memnet.New(memnet.Options{})
	a, err := Open(mk(0, 1, dirA), net1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(mk(1, 0, dirB), net1)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*Site{a, b} {
		if err := s.Seed(storage.Record{Key: "k", Amount: 500, Class: storage.Regular}); err != nil {
			t.Fatal(err)
		}
	}
	a.DefineAV("k", 400)
	b.DefineAV("k", 0)

	res, err := b.Update(bg(), "k", -100)
	if err != nil {
		t.Fatal(err)
	}
	if res.Transferred == 0 {
		t.Fatal("update took no grant")
	}
	totalA, totalB := a.AV().Total("k"), b.AV().Total("k")
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	net2 := memnet.New(memnet.Options{})
	a2, err := Reopen(mk(0, 1, dirA), net2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a2.Close() })
	b2, err := Reopen(mk(1, 0, dirB), net2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b2.Close() })

	if a2.AV().Total("k") != totalA || b2.AV().Total("k") != totalB {
		t.Fatalf("AV after restart = %d + %d, want %d + %d",
			a2.AV().Total("k"), b2.AV().Total("k"), totalA, totalB)
	}
	// The update itself consumed 100 of the initial 400; the grant must
	// neither mint nor lose anything beyond that.
	if sum := totalA + totalB; sum != 300 {
		t.Fatalf("global AV = %d, want 300 (the grant minted or lost volume)", sum)
	}
}

func TestReopenRequiresStorageDir(t *testing.T) {
	if _, err := Reopen(Config{ID: 0}, memnet.New(memnet.Options{})); err == nil {
		t.Fatal("Reopen without StorageDir succeeded")
	}
}

// TestEpochModeSiteEndToEnd runs a durable two-site cluster with
// epoch-based commit on everywhere: Delay Updates (a decrement's AV
// spend and stock batch ride the engine's epochs), an Immediate Update (2PC votes and acks carry
// epoch numbers), a read-your-writes token satisfied off an
// epoch-released commit, and a restart that must recover every
// acknowledged effect.
func TestEpochModeSiteEndToEnd(t *testing.T) {
	dirs := []string{t.TempDir(), t.TempDir()}
	st := &epoch.Stats{AckWait: metrics.NewHistogram()}
	net := memnet.New(memnet.Options{})
	open := func(id int, network *memnet.Net) *Site {
		c := Config{
			ID: wire.SiteID(id), Base: 0,
			StorageDir: dirs[id], PersistAV: true, NoSync: true,
			EpochInterval: 200 * time.Microsecond,
			EpochStats:    st,
			ReadPlane:     true,
		}
		for p := 0; p < 2; p++ {
			if p != id {
				c.Peers = append(c.Peers, wire.SiteID(p))
			}
		}
		s, err := Open(c, network)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	sites := []*Site{open(0, net), open(1, net)}
	for _, s := range sites {
		if err := s.Seed(
			storage.Record{Key: "reg", Amount: 600, Class: storage.Regular},
			storage.Record{Key: "non", Amount: 90, Class: storage.NonRegular},
		); err != nil {
			t.Fatal(err)
		}
		if err := s.DefineAV("reg", 200); err != nil {
			t.Fatal(err)
		}
	}

	// Delay Update: the zero-communication decrement's ack rode an epoch.
	res, err := sites[1].Update(bg(), "reg", -40)
	if err != nil {
		t.Fatal(err)
	}
	if st.Commits.Load() == 0 || st.Epochs.Load() == 0 {
		t.Fatalf("no epoch activity after a durable update: %d commits / %d epochs",
			st.Commits.Load(), st.Epochs.Load())
	}
	if sites[1].Epochs() == nil {
		t.Fatal("Epochs() accessor nil with epoch commit on")
	}
	if sites[1].Epochs().Durable() == 0 {
		t.Fatal("no epoch durable after an acknowledged update")
	}

	// RYW: a token minted from the epoch-released commit is satisfiable
	// (epoch commit keeps the LSN sequence dense).
	ctx, cancel := context.WithTimeout(bg(), 5*time.Second)
	defer cancel()
	if err := sites[1].ReadPlane().WaitFor(ctx, sites[1].Token(res)); err != nil {
		t.Fatalf("RYW token not satisfied under epoch commit: %v", err)
	}
	if snap, err := sites[1].ReadPlane().Stock(); err != nil {
		t.Fatal(err)
	} else if v, ok := snap.Amount("reg"); !ok || v != 560 {
		t.Fatalf("read plane stock = %d/%v, want 560", v, ok)
	}

	// Immediate Update: 2PC across epoch-mode sites; each side's commit
	// waits out its own epoch before the decision or ack escapes.
	if _, err := sites[1].Update(bg(), "non", -10); err != nil {
		t.Fatal(err)
	}
	for _, s := range sites {
		if v, _ := s.Read("non"); v != 80 {
			t.Fatalf("site %d: non = %d, want 80", s.ID(), v)
		}
	}

	if err := sites[0].Close(); err != nil {
		t.Fatal(err)
	}
	if err := sites[1].Close(); err != nil {
		t.Fatal(err)
	}

	// Restart site 1: every acknowledged effect must have survived.
	s2 := open(1, memnet.New(memnet.Options{}))
	defer s2.Close()
	if v, _ := s2.Read("reg"); v != 560 {
		t.Fatalf("recovered reg = %d, want 560", v)
	}
	if v, _ := s2.Read("non"); v != 80 {
		t.Fatalf("recovered non = %d, want 80", v)
	}
	if av := s2.AV().Avail("reg"); av != 160 {
		t.Fatalf("recovered AV = %d, want 160", av)
	}
}
