package twopc

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"avdb/internal/lockmgr"
	"avdb/internal/rng"
	"avdb/internal/storage"
	"avdb/internal/transport"
	"avdb/internal/transport/memnet"
	"avdb/internal/txn"
	"avdb/internal/wire"
)

// harness wires N twopc engines over a memnet.
type harness struct {
	net     *memnet.Net
	engines []*Engine
	stores  []*storage.Engine
	// replicas lists every site, base 0 first: each Update's replica set.
	replicas []wire.SiteID
}

func newHarness(t *testing.T, n int, initial int64) *harness {
	t.Helper()
	return newHarnessNet(t, n, initial, memnet.Options{CallTimeout: 2 * time.Second})
}

func newHarnessNet(t *testing.T, n int, initial int64, opts memnet.Options) *harness {
	t.Helper()
	h := &harness{net: memnet.New(opts)}
	for i := 0; i < n; i++ {
		eng, err := storage.Open(storage.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { eng.Close() })
		eng.Put(storage.Record{Key: "k", Amount: initial, Class: storage.NonRegular})
		tm := txn.NewManager(eng, lockmgr.Options{WaitTimeout: 300 * time.Millisecond})
		e := New(Options{Site: wire.SiteID(i), PrepareTimeout: 500 * time.Millisecond}, tm)
		node, err := h.net.Open(wire.SiteID(i), func(e *Engine) transport.Handler {
			return func(ctx context.Context, from wire.SiteID, msg wire.Message) wire.Message {
				switch m := msg.(type) {
				case *wire.IUPrepare:
					return e.HandlePrepare(ctx, from, m)
				case *wire.IUDecision:
					return e.HandleDecision(ctx, from, m)
				}
				return nil
			}
		}(e))
		if err != nil {
			t.Fatal(err)
		}
		e.SetNode(node)
		h.engines = append(h.engines, e)
		h.stores = append(h.stores, eng)
	}
	for i := 0; i < n; i++ {
		h.replicas = append(h.replicas, wire.SiteID(i))
	}
	return h
}

func (h *harness) amounts(t *testing.T) []int64 {
	t.Helper()
	out := make([]int64, len(h.stores))
	for i, s := range h.stores {
		n, err := s.Amount("k")
		if err != nil {
			t.Fatal(err)
		}
		out[i] = n
	}
	return out
}

func TestCommitAppliesEverywhere(t *testing.T) {
	h := newHarness(t, 3, 100)
	if err := h.engines[1].Update(context.Background(), h.replicas, "k", -40); err != nil {
		t.Fatal(err)
	}
	for i, n := range h.amounts(t) {
		if n != 60 {
			t.Fatalf("site %d amount = %d, want 60", i, n)
		}
	}
	for i, e := range h.engines {
		if e.PreparedCount() != 0 {
			t.Fatalf("site %d leaked %d prepared txns", i, e.PreparedCount())
		}
	}
}

func TestCoordinatorAtBase(t *testing.T) {
	h := newHarness(t, 3, 100)
	if err := h.engines[0].Update(context.Background(), h.replicas, "k", 25); err != nil {
		t.Fatal(err)
	}
	for _, n := range h.amounts(t) {
		if n != 125 {
			t.Fatalf("amounts = %v", h.amounts(t))
		}
	}
}

// TestDecisionFollowsDurableCommitUnderEpochs runs the coordinator on
// an epoch-committed durable store with a wide interval and checks, at
// the moment each COMMIT reaches the participant, that the
// coordinator's own commit is already durable: its epoch has closed.
// Update's local Commit waits out the epoch before the decision may
// escape, so a crash can never lose a commit a participant applied.
func TestDecisionFollowsDurableCommitUnderEpochs(t *testing.T) {
	coord, err := storage.Open(storage.Options{Dir: t.TempDir(), EpochInterval: 5 * time.Millisecond, EpochMaxCommits: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	part, err := storage.Open(storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { part.Close() })
	for _, s := range []*storage.Engine{coord, part} {
		if err := s.Put(storage.Record{Key: "k", Amount: 100, Class: storage.NonRegular}); err != nil {
			t.Fatal(err)
		}
	}
	// The coordinator store's only writes below are the commits, each
	// applied while no epoch is open, so the epoch Current names at apply
	// time is the one the commit rides.
	em := coord.Epochs()
	var commitEpoch atomic.Uint64
	coord.SetApplyObserver(func(uint64, []storage.Op) { commitEpoch.Store(em.Current()) })

	net := memnet.New(memnet.Options{CallTimeout: 2 * time.Second})
	var mu sync.Mutex
	var commits int
	var early []string
	var engines []*Engine
	for i, s := range []*storage.Engine{coord, part} {
		tm := txn.NewManager(s, lockmgr.Options{WaitTimeout: 300 * time.Millisecond})
		e := New(Options{Site: wire.SiteID(i), PrepareTimeout: 500 * time.Millisecond}, tm)
		node, err := net.Open(wire.SiteID(i), func(ctx context.Context, from wire.SiteID, msg wire.Message) wire.Message {
			switch m := msg.(type) {
			case *wire.IUPrepare:
				return e.HandlePrepare(ctx, from, m)
			case *wire.IUDecision:
				if m.Commit {
					mu.Lock()
					commits++
					if d, c := em.Durable(), commitEpoch.Load(); d < c {
						early = append(early, fmt.Sprintf("txn %d: COMMIT arrived with the coordinator's epoch %d open (durable %d)", m.TxnID, c, d))
					}
					mu.Unlock()
				}
				return e.HandleDecision(ctx, from, m)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		e.SetNode(node)
		engines = append(engines, e)
	}

	const rounds = 5
	for i := 0; i < rounds; i++ {
		if err := engines[0].Update(context.Background(), []wire.SiteID{0, 1}, "k", -1); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for _, msg := range early {
		t.Error(msg)
	}
	if commits != rounds {
		t.Fatalf("participant saw %d COMMITs, want %d", commits, rounds)
	}
	for i, s := range []*storage.Engine{coord, part} {
		if n, _ := s.Amount("k"); n != 100-rounds {
			t.Fatalf("site %d amount = %d, want %d", i, n, 100-rounds)
		}
	}
}

func TestValidationAbortsEverywhere(t *testing.T) {
	h := newHarness(t, 3, 10)
	err := h.engines[1].Update(context.Background(), h.replicas, "k", -50)
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("err = %v, want ErrAborted", err)
	}
	for i, n := range h.amounts(t) {
		if n != 10 {
			t.Fatalf("site %d mutated on abort: %d", i, n)
		}
	}
	// No locks leaked: a follow-up valid update succeeds.
	if err := h.engines[1].Update(context.Background(), h.replicas, "k", -5); err != nil {
		t.Fatal(err)
	}
}

func TestUnknownKeyAborts(t *testing.T) {
	h := newHarness(t, 2, 10)
	if err := h.engines[0].Update(context.Background(), h.replicas, "ghost", 1); !errors.Is(err, ErrAborted) {
		t.Fatalf("err = %v", err)
	}
}

func TestParticipantUnreachableAborts(t *testing.T) {
	h := newHarness(t, 3, 100)
	h.net.Crash(2)
	err := h.engines[1].Update(context.Background(), h.replicas, "k", -10)
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("err = %v, want ErrAborted", err)
	}
	if n, _ := h.stores[0].Amount("k"); n != 100 {
		t.Fatalf("site 0 mutated: %d", n)
	}
	if n, _ := h.stores[1].Amount("k"); n != 100 {
		t.Fatalf("coordinator mutated: %d", n)
	}
	// After the site returns, updates flow again.
	h.net.Restart(2)
	if err := h.engines[1].Update(context.Background(), h.replicas, "k", -10); err != nil {
		t.Fatal(err)
	}
	for _, n := range h.amounts(t) {
		if n != 90 {
			t.Fatalf("amounts = %v", h.amounts(t))
		}
	}
}

func TestConcurrentUpdatesSerialize(t *testing.T) {
	// Symmetric contention can abort every coordinator in a round (each
	// holds its local lock while waiting on the others), so clients retry
	// with backoff — as the paper's end users would. The invariant under
	// test: after all retries, every replica shows exactly the committed
	// total, i.e. aborts never leak partial effects.
	h := newHarness(t, 3, 1000)
	var wg sync.WaitGroup
	const updaters, perUpdate = 6, -10
	for g := 0; g < updaters; g++ {
		wg.Add(1)
		site := g % 3
		r := rng.New(uint64(g) + 99)
		go func() {
			defer wg.Done()
			for attempt := 0; attempt < 300; attempt++ {
				err := h.engines[site].Update(context.Background(), h.replicas, "k", perUpdate)
				if err == nil {
					return
				}
				if !errors.Is(err, ErrAborted) {
					t.Errorf("unexpected error: %v", err)
					return
				}
				// Randomized backoff: deterministic delays can re-align
				// the coordinators and livelock forever.
				time.Sleep(time.Duration(r.Range(1, 20*(int64(attempt)+1))) * time.Millisecond)
			}
			t.Error("update never committed after 300 attempts")
		}()
	}
	wg.Wait()
	want := int64(1000 + updaters*perUpdate)
	for i, n := range h.amounts(t) {
		if n != want {
			t.Fatalf("site %d = %d, want %d", i, n, want)
		}
	}
}

func TestSweepAbortsOrphanedPrepares(t *testing.T) {
	h := newHarness(t, 2, 100)
	// Prepare directly (simulating a coordinator that died before phase 2).
	vote := h.engines[1].HandlePrepare(context.Background(), 0, &wire.IUPrepare{TxnID: 999, Coord: 0, Key: "k", Delta: -10})
	if !vote.OK {
		t.Fatalf("prepare refused: %s", vote.Reason)
	}
	if h.engines[1].PreparedCount() != 1 {
		t.Fatal("prepared txn not held")
	}
	// Before the TTL nothing is swept.
	if n := h.engines[1].Sweep(time.Now()); n != 0 {
		t.Fatalf("early sweep removed %d", n)
	}
	if n := h.engines[1].Sweep(time.Now().Add(time.Minute)); n != 1 {
		t.Fatalf("sweep removed %d, want 1", n)
	}
	// The lock is free again and the data unchanged.
	if n, _ := h.stores[1].Amount("k"); n != 100 {
		t.Fatalf("swept txn mutated data: %d", n)
	}
	if err := h.engines[0].Update(context.Background(), h.replicas, "k", -1); err != nil {
		t.Fatalf("after sweep: %v", err)
	}
}

func TestDecisionForUnknownTxn(t *testing.T) {
	h := newHarness(t, 2, 100)
	ack := h.engines[1].HandleDecision(context.Background(), 0, &wire.IUDecision{TxnID: 12345, Commit: true})
	if ack.OK {
		t.Fatal("acked commit of unknown txn")
	}
	ack = h.engines[1].HandleDecision(context.Background(), 0, &wire.IUDecision{TxnID: 12345, Commit: false})
	if !ack.OK {
		t.Fatal("abort of unknown txn must be presumed fine")
	}
}

func TestBaseAckRequiredForCompletion(t *testing.T) {
	// Contract: when the base is unreachable for phase 2, Update returns
	// ErrCompletionUnknown while still committing at reachable sites. A
	// drop filter that eats only decision messages to the base makes the
	// scenario deterministic.
	dropDecisionsToBase := func(from, to wire.SiteID, msg wire.Message) bool {
		_, isDecision := msg.(*wire.IUDecision)
		return isDecision && to == 0
	}
	net := memnet.New(memnet.Options{Drop: dropDecisionsToBase, CallTimeout: 300 * time.Millisecond})
	var engines []*Engine
	var stores []*storage.Engine
	for i := 0; i < 3; i++ {
		eng, _ := storage.Open(storage.Options{})
		t.Cleanup(func() { eng.Close() })
		eng.Put(storage.Record{Key: "k", Amount: 100})
		tm := txn.NewManager(eng, lockmgr.Options{WaitTimeout: 300 * time.Millisecond})
		e := New(Options{Site: wire.SiteID(i), PrepareTimeout: 300 * time.Millisecond}, tm)
		node, err := net.Open(wire.SiteID(i), func(e *Engine) transport.Handler {
			return func(ctx context.Context, from wire.SiteID, msg wire.Message) wire.Message {
				switch m := msg.(type) {
				case *wire.IUPrepare:
					return e.HandlePrepare(ctx, from, m)
				case *wire.IUDecision:
					return e.HandleDecision(ctx, from, m)
				}
				return nil
			}
		}(e))
		if err != nil {
			t.Fatal(err)
		}
		e.SetNode(node)
		engines = append(engines, e)
		stores = append(stores, eng)
	}
	err := engines[1].Update(context.Background(), []wire.SiteID{0, 1, 2}, "k", -10)
	if !errors.Is(err, ErrCompletionUnknown) {
		t.Fatalf("err = %v, want ErrCompletionUnknown", err)
	}
	// Coordinator and site 2 committed; base still holds the prepared txn.
	if n, _ := stores[1].Amount("k"); n != 90 {
		t.Fatalf("coordinator = %d", n)
	}
	if n, _ := stores[2].Amount("k"); n != 90 {
		t.Fatalf("site 2 = %d", n)
	}
	if engines[0].PreparedCount() != 1 {
		t.Fatalf("base prepared count = %d", engines[0].PreparedCount())
	}
}

func BenchmarkImmediateUpdate3Sites(b *testing.B) {
	net := memnet.New(memnet.Options{})
	var engines []*Engine
	for i := 0; i < 3; i++ {
		eng, _ := storage.Open(storage.Options{})
		defer eng.Close()
		eng.Put(storage.Record{Key: "k", Amount: 1 << 40})
		tm := txn.NewManager(eng, lockmgr.Options{})
		e := New(Options{Site: wire.SiteID(i)}, tm)
		node, _ := net.Open(wire.SiteID(i), func(e *Engine) transport.Handler {
			return func(ctx context.Context, from wire.SiteID, msg wire.Message) wire.Message {
				switch m := msg.(type) {
				case *wire.IUPrepare:
					return e.HandlePrepare(ctx, from, m)
				case *wire.IUDecision:
					return e.HandleDecision(ctx, from, m)
				}
				return nil
			}
		}(e))
		e.SetNode(node)
		engines = append(engines, e)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := engines[1].Update(ctx, []wire.SiteID{0, 1, 2}, "k", -1); err != nil {
			b.Fatal(err)
		}
	}
}

func TestDuplicateCommitAcksConsistently(t *testing.T) {
	h := newHarness(t, 2, 100)
	e := h.engines[1]
	vote := e.HandlePrepare(context.Background(), 0, &wire.IUPrepare{TxnID: 7, Coord: 0, Key: "k", Delta: -10})
	if !vote.OK {
		t.Fatalf("prepare refused: %s", vote.Reason)
	}
	ack := e.HandleDecision(context.Background(), 0, &wire.IUDecision{TxnID: 7, Commit: true})
	if !ack.OK {
		t.Fatal("commit not acked")
	}
	// A retransmitted COMMIT for the committed txn must ack OK — the
	// decided-outcome cache distinguishes it from a never-prepared txn —
	// and must not re-apply the delta.
	ack = e.HandleDecision(context.Background(), 0, &wire.IUDecision{TxnID: 7, Commit: true})
	if !ack.OK {
		t.Fatal("duplicate commit reported as presumed abort")
	}
	if n, _ := h.stores[1].Amount("k"); n != 90 {
		t.Fatalf("duplicate commit re-applied: %d", n)
	}
	// But a conflicting decision (abort of a committed txn) must not ack.
	ack = e.HandleDecision(context.Background(), 0, &wire.IUDecision{TxnID: 7, Commit: false})
	if ack.OK {
		t.Fatal("acked an abort of a committed txn")
	}
}

func TestParticipantVotesAbortOnValidation(t *testing.T) {
	// One participant cannot satisfy the update (its replica would go
	// negative): it votes abort and the coordinator aborts everywhere,
	// releasing all prepared state.
	h := newHarness(t, 3, 100)
	h.stores[2].Put(storage.Record{Key: "k", Amount: 3, Class: storage.NonRegular})
	err := h.engines[0].Update(context.Background(), h.replicas, "k", -10)
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("err = %v, want abort", err)
	}
	if got := h.amounts(t); got[0] != 100 || got[1] != 100 || got[2] != 3 {
		t.Fatalf("amounts after abort = %v", got)
	}
	for i, e := range h.engines {
		if e.PreparedCount() != 0 {
			t.Fatalf("site %d still holds prepared txns", i)
		}
	}
	if h.engines[0].Stats().Aborts.Load() != 1 {
		t.Fatal("Aborts not counted")
	}
}

func TestCoordinatorDeathAfterPrepareFreesParticipant(t *testing.T) {
	// The coordinator prepares at a participant and then dies: no
	// decision ever arrives. The participant's update path is blocked
	// only until the TTL sweep presumes abort; afterwards new updates
	// proceed and the data is untouched.
	h := newHarness(t, 2, 100)
	e := h.engines[1]
	vote := e.HandlePrepare(context.Background(), 0, &wire.IUPrepare{TxnID: 42, Coord: 0, Key: "k", Delta: -50})
	if !vote.OK {
		t.Fatalf("prepare refused: %s", vote.Reason)
	}
	// The prepared txn holds the lock: a local immediate update times out.
	if err := h.engines[1].Update(context.Background(), h.replicas, "k", -1); !errors.Is(err, ErrAborted) {
		t.Fatalf("expected lock-blocked abort, got %v", err)
	}
	if n := e.Sweep(time.Now().Add(time.Minute)); n != 1 {
		t.Fatalf("sweep removed %d, want 1", n)
	}
	if e.Stats().Swept.Load() != 1 {
		t.Fatal("Swept not counted")
	}
	// A decision that straggles in after the sweep sees presumed abort.
	ack := e.HandleDecision(context.Background(), 0, &wire.IUDecision{TxnID: 42, Commit: true})
	if ack.OK {
		t.Fatal("acked commit of a swept (presumed-aborted) txn")
	}
	if err := h.engines[1].Update(context.Background(), h.replicas, "k", -1); err != nil {
		t.Fatalf("update after sweep: %v", err)
	}
	if got := h.amounts(t); got[0] != 99 || got[1] != 99 {
		t.Fatalf("amounts = %v", got)
	}
}

func TestDecisionRetriedThroughDrops(t *testing.T) {
	// Phase 1 goes through clean; the first delivery of every decision is
	// dropped. The retry loop re-sends and the participant's dedup-free
	// handler (each retry is a fresh call) still applies exactly once.
	drop := &decisionDropper{remaining: 1}
	h := newHarnessNet(t, 2, 100, memnet.Options{CallTimeout: 2 * time.Second, Interceptor: drop})
	if err := h.engines[0].Update(context.Background(), h.replicas, "k", -25); err != nil {
		t.Fatal(err)
	}
	if got := h.amounts(t); got[0] != 75 || got[1] != 75 {
		t.Fatalf("amounts = %v", got)
	}
	if h.engines[0].Stats().DecisionRetries.Load() == 0 {
		t.Fatal("DecisionRetries not counted")
	}
}

// decisionDropper drops the first `remaining` IUDecision requests.
type decisionDropper struct {
	mu        sync.Mutex
	remaining int
}

func (d *decisionDropper) Intercept(from, to wire.SiteID, isReply bool, kind wire.Kind) transport.Fault {
	if isReply || kind != wire.KindIUDecision {
		return transport.Fault{}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.remaining > 0 {
		d.remaining--
		return transport.Fault{Drop: true}
	}
	return transport.Fault{}
}

func TestAbortOvertakesPrepare(t *testing.T) {
	// A coordinator that gives up while the participant is still waiting
	// for the lock broadcasts ABORT before the prepare finishes. The
	// late prepare must see the recorded decision and release its lock
	// immediately — not register and pin the key until the TTL sweep
	// (which a quiet engine may not run for a long time).
	h := newHarness(t, 2, 100)
	ack := h.engines[1].HandleDecision(context.Background(), 0, &wire.IUDecision{TxnID: 777, Commit: false})
	if !ack.OK {
		t.Fatal("presumed abort not acked")
	}
	vote := h.engines[1].HandlePrepare(context.Background(), 0, &wire.IUPrepare{TxnID: 777, Coord: 0, Key: "k", Delta: -10})
	if vote.OK {
		t.Fatal("prepare succeeded after its txn was aborted")
	}
	if h.engines[1].PreparedCount() != 0 {
		t.Fatal("aborted txn left prepared state")
	}
	// The lock must be free: a fresh update goes straight through.
	if err := h.engines[0].Update(context.Background(), h.replicas, "k", -1); err != nil {
		t.Fatalf("key still locked after overtaken prepare: %v", err)
	}
	if n, _ := h.stores[1].Amount("k"); n != 99 {
		t.Fatalf("amount = %d, want 99", n)
	}
}
