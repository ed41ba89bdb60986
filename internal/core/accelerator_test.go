package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"avdb/internal/av"
	"avdb/internal/failure"
	"avdb/internal/lockmgr"
	"avdb/internal/partition"
	"avdb/internal/replica"
	"avdb/internal/storage"
	"avdb/internal/strategy"
	"avdb/internal/transport"
	"avdb/internal/transport/memnet"
	"avdb/internal/twopc"
	"avdb/internal/txn"
	"avdb/internal/wire"
)

// testSite is a minimal site: accelerator + components + dispatch.
type testSite struct {
	acc  *Accelerator
	avt  *av.Table
	eng  *storage.Engine
	repl *replica.Replicator
	iu   *twopc.Engine
}

func buildSites(t *testing.T, n int, initial int64, avPer int64, policy strategy.Policy) []*testSite {
	t.Helper()
	return buildSitesNet(t, n, initial, avPer, policy, memnet.Options{CallTimeout: time.Second})
}

func buildSitesNet(t *testing.T, n int, initial int64, avPer int64, policy strategy.Policy, opts memnet.Options) []*testSite {
	t.Helper()
	net := memnet.New(opts)
	sites := make([]*testSite, n)
	ids := make([]wire.SiteID, n)
	for i := range ids {
		ids[i] = wire.SiteID(i)
	}
	pm, err := partition.Full(0, ids)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		eng, err := storage.Open(storage.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { eng.Close() })
		eng.Put(storage.Record{Key: "k", Amount: initial})
		avt := av.NewTable()
		avt.Define("k", avPer)
		tm := txn.NewManager(eng, lockmgr.Options{WaitTimeout: 300 * time.Millisecond})
		iu := twopc.New(twopc.Options{Site: wire.SiteID(i), PrepareTimeout: 300 * time.Millisecond}, tm)
		repl := replica.New(wire.SiteID(i), eng)
		acc := New(Config{Site: wire.SiteID(i), Partitions: pm, Policy: policy, Seed: 5}, avt, tm, iu, repl)
		ts := &testSite{acc: acc, avt: avt, eng: eng, repl: repl, iu: iu}
		node, err := net.Open(wire.SiteID(i), func(ts *testSite) transport.Handler {
			return func(ctx context.Context, from wire.SiteID, msg wire.Message) wire.Message {
				switch m := msg.(type) {
				case *wire.AVRequest:
					return ts.acc.HandleAVRequest(ctx, from, m)
				case *wire.IUPrepare:
					return ts.iu.HandlePrepare(ctx, from, m)
				case *wire.IUDecision:
					return ts.iu.HandleDecision(ctx, from, m)
				case *wire.DeltaSync:
					ack, _ := ts.repl.HandleSync(m)
					return ack
				}
				return nil
			}
		}(ts))
		if err != nil {
			t.Fatal(err)
		}
		acc.SetNode(node)
		iu.SetNode(node)
		sites[i] = ts
	}
	return sites
}

func TestDelayLocalWithinAV(t *testing.T) {
	sites := buildSites(t, 3, 100, 40, strategy.SODA99())
	res, err := sites[1].acc.Update(context.Background(), "k", -40)
	if err != nil {
		t.Fatal(err)
	}
	if res.Path != PathDelayLocal || res.Rounds != 0 || res.Transferred != 0 {
		t.Fatalf("res = %+v", res)
	}
	if v, _ := sites[1].acc.Read("k"); v != 60 {
		t.Fatalf("value = %d", v)
	}
	if sites[1].avt.Avail("k") != 0 || sites[1].avt.Held("k") != 0 {
		t.Fatalf("AV not fully consumed: avail=%d held=%d",
			sites[1].avt.Avail("k"), sites[1].avt.Held("k"))
	}
	st := sites[1].acc.Stats()
	if st.DelayLocal.Load() != 1 || st.DelayTransfer.Load() != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDelayTransferFig1Scenario(t *testing.T) {
	// Fig. 1: total stock 100, AVs 40/20/40. Site 1 updates -30: its 20
	// is short, it requests and receives 30 (our SODA99 grant = half of
	// 40 = 20, so it needs two rounds), ends with stock 70.
	net := memnet.New(memnet.Options{})
	_ = net
	sites := buildSites(t, 3, 100, 0, strategy.SODA99())
	sites[0].avt.Fund("k", 40)
	sites[1].avt.Fund("k", 20)
	sites[2].avt.Fund("k", 40)
	res, err := sites[1].acc.Update(context.Background(), "k", -30)
	if err != nil {
		t.Fatal(err)
	}
	if res.Path != PathDelayTransfer {
		t.Fatalf("path = %v", res.Path)
	}
	if v, _ := sites[1].acc.Read("k"); v != 70 {
		t.Fatalf("site1 value = %d, want 70", v)
	}
	// Conservation: total AV across sites fell by exactly 30.
	sum := sites[0].avt.Total("k") + sites[1].avt.Total("k") + sites[2].avt.Total("k")
	if sum != 70 {
		t.Fatalf("AV sum = %d, want 70", sum)
	}
}

func TestGrantHalfLeavesDonorHalf(t *testing.T) {
	sites := buildSites(t, 2, 1000, 0, strategy.SODA99())
	sites[0].avt.Fund("k", 400)
	// Site 1 asks for 100; SODA99 donor gives half its holding = 200.
	res, err := sites[1].acc.Update(context.Background(), "k", -100)
	if err != nil {
		t.Fatal(err)
	}
	if res.Transferred != 200 {
		t.Fatalf("transferred = %d, want 200 (half of 400)", res.Transferred)
	}
	if sites[0].avt.Avail("k") != 200 {
		t.Fatalf("donor left with %d", sites[0].avt.Avail("k"))
	}
	// Surplus beyond the need stays at the requester.
	if sites[1].avt.Avail("k") != 100 {
		t.Fatalf("requester surplus = %d, want 100", sites[1].avt.Avail("k"))
	}
}

func TestInsufficientReturnsAccumulated(t *testing.T) {
	sites := buildSites(t, 3, 50, 10, strategy.Policy{Selector: strategy.MaxKnown{}, Decider: strategy.GrantAll{}})
	// Total AV 30 < need 40: fails, but the requester keeps what it
	// gathered (its own 10 + peers' 20), nothing is lost.
	_, err := sites[2].acc.Update(context.Background(), "k", -40)
	if !errors.Is(err, ErrInsufficientAV) {
		t.Fatalf("err = %v", err)
	}
	if v, _ := sites[2].acc.Read("k"); v != 50 {
		t.Fatalf("value mutated: %d", v)
	}
	sum := sites[0].avt.Total("k") + sites[1].avt.Total("k") + sites[2].avt.Total("k")
	if sum != 30 {
		t.Fatalf("AV sum = %d, want 30 (conserved)", sum)
	}
	if sites[2].avt.Avail("k") != 30 {
		t.Fatalf("requester stored %d, want all 30 accumulated", sites[2].avt.Avail("k"))
	}
	if sites[2].acc.Stats().Insufficient.Load() != 1 {
		t.Fatal("Insufficient not counted")
	}
}

func TestPositiveDeltaCreditsAV(t *testing.T) {
	sites := buildSites(t, 2, 10, 5, strategy.SODA99())
	if _, err := sites[0].acc.Update(context.Background(), "k", 90); err != nil {
		t.Fatal(err)
	}
	if sites[0].avt.Avail("k") != 95 {
		t.Fatalf("AV = %d, want 5+90", sites[0].avt.Avail("k"))
	}
	if v, _ := sites[0].acc.Read("k"); v != 100 {
		t.Fatalf("value = %d", v)
	}
}

func TestImmediatePathForUndefinedAV(t *testing.T) {
	sites := buildSites(t, 3, 100, 50, strategy.SODA99())
	for _, s := range sites {
		s.eng.Put(storage.Record{Key: "nonreg", Amount: 100, Class: storage.NonRegular})
	}
	res, err := sites[1].acc.Update(context.Background(), "nonreg", -60)
	if err != nil {
		t.Fatal(err)
	}
	if res.Path != PathImmediate {
		t.Fatalf("path = %v", res.Path)
	}
	for i, s := range sites {
		if v, _ := s.eng.Amount("nonreg"); v != 40 {
			t.Fatalf("site %d = %d", i, v)
		}
	}
	if sites[1].acc.Stats().Immediate.Load() != 1 {
		t.Fatal("Immediate not counted")
	}
}

func TestHandleAVRequestGossip(t *testing.T) {
	sites := buildSites(t, 3, 100, 60, strategy.SODA99())
	// Teach site 0 something about site 2 first.
	sites[0].acc.View().Observe(2, "k", 33)
	reply := sites[0].acc.HandleAVRequest(context.Background(), 1, &wire.AVRequest{Key: "k", Amount: 10})
	if reply.Granted != 30 { // half of 60
		t.Fatalf("granted = %d", reply.Granted)
	}
	var sawSelf, sawPeer bool
	for _, info := range reply.View {
		if info.Site == 0 && info.Avail == 30 { // post-debit avail
			sawSelf = true
		}
		if info.Site == 2 && info.Avail == 33 {
			sawPeer = true
		}
	}
	if !sawSelf || !sawPeer {
		t.Fatalf("gossip view incomplete: %+v", reply.View)
	}
	// The donor noted that the requester is short.
	if n, ok := sites[0].acc.View().Known(1, "k"); !ok || n != 0 {
		t.Fatalf("requester not recorded as short: %d,%v", n, ok)
	}
}

func TestConcurrentDelayUpdatesShareAV(t *testing.T) {
	sites := buildSites(t, 2, 10000, 10000, strategy.SODA99())
	var wg sync.WaitGroup
	errs := make(chan error, 100)
	for g := 0; g < 10; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if _, err := sites[0].acc.Update(context.Background(), "k", -10); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if v, _ := sites[0].acc.Read("k"); v != 9000 {
		t.Fatalf("value = %d, want 9000", v)
	}
	if sites[0].avt.Avail("k") != 9000 || sites[0].avt.Held("k") != 0 {
		t.Fatalf("AV avail=%d held=%d", sites[0].avt.Avail("k"), sites[0].avt.Held("k"))
	}
}

func TestPathString(t *testing.T) {
	if PathDelayLocal.String() != "delay-local" ||
		PathDelayTransfer.String() != "delay-transfer" ||
		PathImmediate.String() != "immediate" {
		t.Fatal("Path.String broken")
	}
}

// replyDropper drops every AV reply, so the requester times out after
// the granter has already debited the grant.
type replyDropper struct{}

func (replyDropper) Intercept(from, to wire.SiteID, isReply bool, kind wire.Kind) transport.Fault {
	return transport.Fault{Drop: isReply && kind == wire.KindAVReply}
}

// TestLostGrantReplyLosesSlackOnly: a grant whose reply is lost leaves
// the granter's Total down by exactly the grant and the requester's
// unchanged — lost slack, never minted volume — and granted minus
// received counts the loss exactly.
func TestLostGrantReplyLosesSlackOnly(t *testing.T) {
	sites := buildSitesNet(t, 2, 1000, 0, strategy.SODA99(),
		memnet.Options{CallTimeout: 100 * time.Millisecond, Interceptor: replyDropper{}})
	sites[0].avt.Fund("k", 400)
	sites[1].acc.cfg.RequestTimeout = 50 * time.Millisecond

	if _, err := sites[1].acc.Update(context.Background(), "k", -100); !errors.Is(err, ErrInsufficientAV) {
		t.Fatalf("err = %v, want insufficient", err)
	}
	// SODA99 grants half the donor's avail: 200 of 400.
	const grant = 200
	if got := sites[0].avt.Total("k"); got != 400-grant {
		t.Fatalf("granter Total = %d, want %d", got, 400-grant)
	}
	if got := sites[1].avt.Total("k"); got != 0 {
		t.Fatalf("requester Total = %d, want 0", got)
	}
	granted, received := sites[0].acc.Stats().GrantedUnits.Load(), sites[1].acc.Stats().ReceivedUnits.Load()
	if granted != grant || received != 0 {
		t.Fatalf("granted %d received %d, want %d and 0", granted, received, grant)
	}
}

func TestFailoverSkipsSuspectPeer(t *testing.T) {
	sites := buildSites(t, 3, 1000, 0, strategy.Policy{Selector: strategy.MaxKnown{}, Decider: strategy.GrantAll{}})
	sites[0].avt.Fund("k", 1000)
	sites[2].avt.Fund("k", 300)
	// Site 1 believes site 0 is the best holder...
	sites[1].acc.View().Observe(0, "k", 1000)
	sites[1].acc.View().Observe(2, "k", 300)
	// ...but the failure detector suspects it.
	det := failure.NewDetector(0, nil)
	for i := 0; i < failure.FailureThreshold; i++ {
		det.ReportFailure(0)
	}
	if !det.Suspect(0) {
		t.Fatal("detector should suspect site 0")
	}
	sites[1].acc.cfg.Detector = det

	res, err := sites[1].acc.Update(context.Background(), "k", -100)
	if err != nil {
		t.Fatal(err)
	}
	if res.Path != PathDelayTransfer {
		t.Fatalf("path = %v", res.Path)
	}
	// The healthy next-best holder supplied the transfer; the suspect was
	// never touched.
	if got := sites[0].avt.Avail("k"); got != 1000 {
		t.Fatalf("suspect peer was debited: avail = %d", got)
	}
	if got := sites[2].avt.Avail("k"); got != 0 {
		t.Fatalf("healthy peer not used: avail = %d", got)
	}
	if sites[1].acc.Stats().Failovers.Load() == 0 {
		t.Fatal("Failovers not counted")
	}
}

func TestSuspectPeerStillUsedAsLastResort(t *testing.T) {
	// Failover demotes suspects, it does not blacklist them: when no
	// healthy peer can cover the need, the suspect is still asked.
	sites := buildSites(t, 2, 1000, 0, strategy.Policy{Selector: strategy.MaxKnown{}, Decider: strategy.GrantAll{}})
	sites[0].avt.Fund("k", 500)
	sites[1].acc.View().Observe(0, "k", 500)
	det := failure.NewDetector(0, nil)
	for i := 0; i < failure.FailureThreshold; i++ {
		det.ReportFailure(0)
	}
	sites[1].acc.cfg.Detector = det

	if _, err := sites[1].acc.Update(context.Background(), "k", -200); err != nil {
		t.Fatal(err)
	}
	// Success reports healed the suspicion.
	if det.Suspect(0) {
		t.Fatal("successful call should clear suspicion")
	}
}

// closingAV closes the engine right after the AV change is staged, so
// the commit that follows meets a closed log.
type closingAV struct {
	*av.Table
	eng *storage.Engine
}

func (c closingAV) Stage(tx *txn.Txn, key string, n int64) {
	c.Table.Stage(tx, key, n)
	c.eng.Close()
}

// TestDecrementOrderFailures pins the decrement's order: validate the
// stock row under its lock, spend the hold and stage its balance
// change, commit. A failure before the commit leaves AV and the hold as
// they were; a commit the log refuses acknowledges nothing and restores
// the hold, so no slack is lost either.
func TestDecrementOrderFailures(t *testing.T) {
	cases := []struct {
		name      string
		key       string
		setup     func(t *testing.T, s *testSite)
		wantErr   error
		wantAvail int64 // AV avail afterwards; the hold is always back to 0
		wantStock int64 // -1: no stock to read (no row, or a closed engine)
	}{
		{"missing key", "ghost", func(t *testing.T, s *testSite) {
			s.avt.Define("ghost", 50)
		}, storage.ErrNotFound, 50, -1},
		{"lock timeout", "k", func(t *testing.T, s *testSite) {
			tx := s.acc.tm.Begin()
			if _, err := tx.ApplyDelta(context.Background(), "k", 1); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(tx.Abort)
		}, lockmgr.ErrTimeout, 40, 100},
		{"closed log at commit", "k", func(t *testing.T, s *testSite) {
			s.acc.avt = closingAV{s.avt, s.eng}
		}, storage.ErrClosed, 40, -1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := buildSites(t, 1, 100, 40, strategy.SODA99())[0]
			commits := 0
			s.acc.cfg.OnCommit = func(string, int64) { commits++ }
			tc.setup(t, s)
			if _, err := s.acc.Update(context.Background(), tc.key, -10); !errors.Is(err, tc.wantErr) {
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}
			if commits != 0 || s.acc.Stats().DelayLocal.Load() != 0 {
				t.Fatalf("failed decrement acknowledged: %d commits, %d delay-local", commits, s.acc.Stats().DelayLocal.Load())
			}
			if got, held := s.avt.Avail(tc.key), s.avt.Held(tc.key); got != tc.wantAvail || held != 0 {
				t.Fatalf("AV avail=%d held=%d, want %d/0", got, held, tc.wantAvail)
			}
			if tc.wantStock >= 0 {
				if v, _ := s.acc.Read(tc.key); v != tc.wantStock {
					t.Fatalf("stock = %d, want %d", v, tc.wantStock)
				}
			}
		})
	}
}
