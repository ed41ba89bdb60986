package replica

import (
	"context"
	"testing"
	"testing/quick"
	"time"

	"avdb/internal/clock"
	"avdb/internal/failure"
	"avdb/internal/rng"
	"avdb/internal/storage"
	"avdb/internal/transport"
	"avdb/internal/transport/memnet"
	"avdb/internal/wire"
)

func newEng(t *testing.T, amount int64) *storage.Engine {
	t.Helper()
	e, err := storage.Open(storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	e.Put(storage.Record{Key: "k", Amount: amount})
	return e
}

func TestRecordAssignsSeqs(t *testing.T) {
	r := New(1, newEng(t, 0))
	if s := r.Record("k", -5); s != 1 {
		t.Fatalf("seq = %d", s)
	}
	if s := r.Record("k", 3); s != 2 {
		t.Fatalf("seq = %d", s)
	}
	if r.NextSeq() != 3 {
		t.Fatalf("NextSeq = %d", r.NextSeq())
	}
}

func TestHandleSyncAppliesContiguous(t *testing.T) {
	eng := newEng(t, 100)
	r := New(2, eng)
	ack, err := r.HandleSync(&wire.DeltaSync{Origin: 1, Deltas: []wire.Delta{
		{Seq: 1, Key: "k", Amount: -10},
		{Seq: 2, Key: "k", Amount: 5},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if ack.UpTo != 2 || ack.Origin != 1 {
		t.Fatalf("ack = %+v", ack)
	}
	if n, _ := eng.Amount("k"); n != 95 {
		t.Fatalf("amount = %d, want 95", n)
	}
}

func TestHandleSyncDedupes(t *testing.T) {
	eng := newEng(t, 100)
	r := New(2, eng)
	batch := &wire.DeltaSync{Origin: 1, Deltas: []wire.Delta{{Seq: 1, Key: "k", Amount: -10}}}
	r.HandleSync(batch)
	ack, err := r.HandleSync(batch) // replay must be a no-op
	if err != nil {
		t.Fatal(err)
	}
	if ack.UpTo != 1 {
		t.Fatalf("ack = %+v", ack)
	}
	if n, _ := eng.Amount("k"); n != 90 {
		t.Fatalf("replay double-applied: %d", n)
	}
}

func TestHandleSyncStopsAtGap(t *testing.T) {
	eng := newEng(t, 100)
	r := New(2, eng)
	ack, err := r.HandleSync(&wire.DeltaSync{Origin: 1, Deltas: []wire.Delta{
		{Seq: 1, Key: "k", Amount: -1},
		{Seq: 3, Key: "k", Amount: -100}, // gap: seq 2 missing
	}})
	if err != nil {
		t.Fatal(err)
	}
	if ack.UpTo != 1 {
		t.Fatalf("ack = %+v, want UpTo 1", ack)
	}
	if n, _ := eng.Amount("k"); n != 99 {
		t.Fatalf("gap entry applied: %d", n)
	}
	// Retransmission with the gap filled applies the rest.
	ack, _ = r.HandleSync(&wire.DeltaSync{Origin: 1, Deltas: []wire.Delta{
		{Seq: 2, Key: "k", Amount: -2},
		{Seq: 3, Key: "k", Amount: -100},
	}})
	if ack.UpTo != 3 {
		t.Fatalf("ack = %+v", ack)
	}
	if n, _ := eng.Amount("k"); n != -3 {
		t.Fatalf("amount = %d, want -3", n)
	}
}

func TestHandleSyncUnknownKeyErrors(t *testing.T) {
	r := New(2, newEng(t, 0))
	_, err := r.HandleSync(&wire.DeltaSync{Origin: 1, Deltas: []wire.Delta{
		{Seq: 1, Key: "ghost", Amount: 1},
	}})
	if err == nil {
		t.Fatal("unknown key silently accepted")
	}
}

func TestPendingAndAck(t *testing.T) {
	r := New(1, newEng(t, 0))
	for i := 0; i < 5; i++ {
		r.Record("k", 1)
	}
	if got := r.PendingFor(2); len(got) != 5 {
		t.Fatalf("pending = %d", len(got))
	}
	r.HandleAck(2, 3)
	pend := r.PendingFor(2)
	if len(pend) != 2 || pend[0].Seq != 4 {
		t.Fatalf("pending after ack = %+v", pend)
	}
	r.HandleAck(2, 2) // stale ack must not regress
	if r.Lag(2) != 2 {
		t.Fatalf("lag = %d", r.Lag(2))
	}
}

func TestCompactRespectsSlowestPeer(t *testing.T) {
	r := New(1, newEng(t, 0))
	for i := 0; i < 10; i++ {
		r.Record("k", 1)
	}
	r.HandleAck(2, 10)
	r.HandleAck(3, 4)
	r.Compact([]wire.SiteID{2, 3})
	if r.LogLen() != 6 {
		t.Fatalf("log len = %d, want 6 (seqs 5..10 kept)", r.LogLen())
	}
	pend := r.PendingFor(3)
	if len(pend) != 6 || pend[0].Seq != 5 {
		t.Fatalf("pending for slow peer = %+v", pend)
	}
	if len(r.PendingFor(2)) != 0 {
		t.Fatal("fast peer has pending after full ack")
	}
}

func TestFlushOverNetwork(t *testing.T) {
	net := memnet.New(memnet.Options{})
	engA := newEng(t, 100)
	engB := newEng(t, 100)
	replA := New(1, engA)
	replB := New(2, engB)
	var nodeA transport.Node
	handler := func(r *Replicator) transport.Handler {
		return func(ctx context.Context, from wire.SiteID, msg wire.Message) wire.Message {
			if s, ok := msg.(*wire.DeltaSync); ok {
				ack, err := r.HandleSync(s)
				if err != nil {
					t.Error(err)
					return nil
				}
				return ack
			}
			return nil
		}
	}
	nodeA, err := net.Open(1, handler(replA))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Open(2, handler(replB)); err != nil {
		t.Fatal(err)
	}

	// A commits local deltas and flushes to B.
	engA.ApplyDelta("k", -30)
	replA.Record("k", -30)
	engA.ApplyDelta("k", +10)
	replA.Record("k", +10)
	if err := replA.Flush(context.Background(), nodeA, []wire.SiteID{2}); err != nil {
		t.Fatal(err)
	}
	if n, _ := engB.Amount("k"); n != 80 {
		t.Fatalf("B amount = %d, want 80", n)
	}
	if replA.Lag(2) != 0 {
		t.Fatalf("lag after flush = %d", replA.Lag(2))
	}
	// Flush with nothing pending sends nothing.
	if err := replA.Flush(context.Background(), nodeA, []wire.SiteID{2}); err != nil {
		t.Fatal(err)
	}
}

func TestFlushSurvivesPartition(t *testing.T) {
	net := memnet.New(memnet.Options{})
	engA := newEng(t, 100)
	engB := newEng(t, 100)
	replA := New(1, engA)
	replB := New(2, engB)
	nodeA, _ := net.Open(1, func(ctx context.Context, from wire.SiteID, msg wire.Message) wire.Message { return nil })
	net.Open(2, func(ctx context.Context, from wire.SiteID, msg wire.Message) wire.Message {
		ack, _ := replB.HandleSync(msg.(*wire.DeltaSync))
		return ack
	})
	engA.ApplyDelta("k", -50)
	replA.Record("k", -50)
	net.Block(1, 2)
	if err := replA.Flush(context.Background(), nodeA, []wire.SiteID{2}); err != nil {
		t.Fatalf("flush during partition must not error: %v", err)
	}
	if replA.Lag(2) != 1 {
		t.Fatal("backlog dropped during partition")
	}
	net.Unblock(1, 2)
	if err := replA.Flush(context.Background(), nodeA, []wire.SiteID{2}); err != nil {
		t.Fatal(err)
	}
	if n, _ := engB.Amount("k"); n != 50 {
		t.Fatalf("B amount = %d after heal, want 50", n)
	}
}

// TestQuickConvergence: three sites record random deltas; syncs are
// delivered in random interleavings with duplications; after full
// exchange all copies are equal to initial + sum of all deltas.
func TestQuickConvergence(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		const n = 3
		engs := make([]*storage.Engine, n)
		repls := make([]*Replicator, n)
		var total int64 = 1000
		for i := 0; i < n; i++ {
			e, _ := storage.Open(storage.Options{})
			defer e.Close()
			e.Put(storage.Record{Key: "k", Amount: total})
			engs[i] = e
			repls[i] = New(wire.SiteID(i), e)
		}
		var sum int64
		for step := 0; step < 100; step++ {
			i := r.Intn(n)
			d := r.Range(-20, 20)
			engs[i].ApplyDelta("k", d)
			repls[i].Record("k", d)
			sum += d
			// Random (possibly duplicated, possibly stale-prefix) sync.
			if r.Bool(0.5) {
				src, dst := r.Intn(n), r.Intn(n)
				if src != dst {
					pend := repls[src].PendingFor(wire.SiteID(dst))
					if len(pend) > 0 {
						cut := r.Intn(len(pend)) + 1
						ack, err := repls[dst].HandleSync(&wire.DeltaSync{Origin: wire.SiteID(src), Deltas: pend[:cut]})
						if err != nil {
							return false
						}
						if r.Bool(0.8) { // acks may be lost too
							repls[src].HandleAck(wire.SiteID(dst), ack.UpTo)
						}
					}
				}
			}
		}
		// Final anti-entropy until quiescent.
		for round := 0; round < 10; round++ {
			for src := 0; src < n; src++ {
				for dst := 0; dst < n; dst++ {
					if src == dst {
						continue
					}
					pend := repls[src].PendingFor(wire.SiteID(dst))
					if len(pend) == 0 {
						continue
					}
					ack, err := repls[dst].HandleSync(&wire.DeltaSync{Origin: wire.SiteID(src), Deltas: pend})
					if err != nil {
						return false
					}
					repls[src].HandleAck(wire.SiteID(dst), ack.UpTo)
				}
			}
		}
		for i := 0; i < n; i++ {
			if v, _ := engs[i].Amount("k"); v != total+sum {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPullFetchesPeerDeltas(t *testing.T) {
	net := memnet.New(memnet.Options{})
	engA := newEng(t, 100)
	engB := newEng(t, 100)
	replA := New(1, engA)
	replB := New(2, engB)
	// A answers pulls and receives acks; B initiates the pull.
	nodeA, _ := net.Open(1, func(ctx context.Context, from wire.SiteID, msg wire.Message) wire.Message {
		switch m := msg.(type) {
		case *wire.SyncPull:
			return &wire.DeltaSync{Origin: 1, Deltas: replA.PendingFor(from)}
		case *wire.DeltaAck:
			replA.HandleAck(from, m.UpTo)
		}
		return nil
	})
	_ = nodeA
	nodeB, _ := net.Open(2, func(ctx context.Context, from wire.SiteID, msg wire.Message) wire.Message { return nil })

	engA.ApplyDelta("k", -40)
	replA.Record("k", -40)
	if err := replB.Pull(context.Background(), nodeB, []wire.SiteID{1}); err != nil {
		t.Fatal(err)
	}
	if v, _ := engB.Amount("k"); v != 60 {
		t.Fatalf("B amount = %d after pull", v)
	}
	// The one-way ack reaches A so its push backlog drains.
	net.Quiesce()
	deadline := time.Now().Add(2 * time.Second)
	for replA.Lag(2) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("lag = %d after pulled ack", replA.Lag(2))
		}
		time.Sleep(time.Millisecond)
	}
}

func TestPullSkipsUnreachable(t *testing.T) {
	net := memnet.New(memnet.Options{})
	engB := newEng(t, 100)
	replB := New(2, engB)
	nodeB, _ := net.Open(2, func(ctx context.Context, from wire.SiteID, msg wire.Message) wire.Message { return nil })
	// Peer 9 does not exist: Pull must not error.
	if err := replB.Pull(context.Background(), nodeB, []wire.SiteID{9}); err != nil {
		t.Fatalf("pull from missing peer: %v", err)
	}
}

func TestFlushBacksOffFailingPeer(t *testing.T) {
	net := memnet.New(memnet.Options{CallTimeout: 100 * time.Millisecond})
	engA := newEng(t, 100)
	engB := newEng(t, 100)
	replA := New(1, engA)
	replB := New(2, engB)
	nodeA, _ := net.Open(1, func(ctx context.Context, from wire.SiteID, msg wire.Message) wire.Message { return nil })
	net.Open(2, func(ctx context.Context, from wire.SiteID, msg wire.Message) wire.Message {
		ack, _ := replB.HandleSync(msg.(*wire.DeltaSync))
		return ack
	})
	vc := clock.NewVirtual(time.Unix(100, 0))
	replA.SetFlushPolicy(50*time.Millisecond, failure.Policy{BaseDelay: time.Second, MaxDelay: 8 * time.Second}, vc)

	engA.ApplyDelta("k", -10)
	replA.Record("k", -10)
	net.Block(1, 2)
	// First flush fails and opens the backoff window.
	if err := replA.Flush(context.Background(), nodeA, []wire.SiteID{2}); err != nil {
		t.Fatal(err)
	}
	if replA.Lag(2) != 1 {
		t.Fatal("backlog lost")
	}
	// Within the window the peer is skipped even though the partition has
	// healed — no call is made (the backlog stays).
	net.Unblock(1, 2)
	if err := replA.Flush(context.Background(), nodeA, []wire.SiteID{2}); err != nil {
		t.Fatal(err)
	}
	if replA.Lag(2) != 1 {
		t.Fatal("flush inside backoff window contacted the peer")
	}
	// After the window the peer is retried and catches up.
	vc.Advance(2 * time.Second)
	if err := replA.Flush(context.Background(), nodeA, []wire.SiteID{2}); err != nil {
		t.Fatal(err)
	}
	if replA.Lag(2) != 0 {
		t.Fatalf("lag after backoff expiry = %d", replA.Lag(2))
	}
	if n, _ := engB.Amount("k"); n != 90 {
		t.Fatalf("B amount = %d, want 90", n)
	}
}

func TestFlushPerPeerDeadline(t *testing.T) {
	// A slow peer bounds only its own exchange: the flush returns within
	// the per-peer timeout, not the transport's (much longer) one.
	net := memnet.New(memnet.Options{CallTimeout: 5 * time.Second})
	engA := newEng(t, 100)
	replA := New(1, engA)
	nodeA, _ := net.Open(1, func(ctx context.Context, from wire.SiteID, msg wire.Message) wire.Message { return nil })
	net.Open(2, func(ctx context.Context, from wire.SiteID, msg wire.Message) wire.Message {
		<-ctx.Done() // never answers
		return nil
	})
	replA.SetFlushPolicy(80*time.Millisecond, failure.Policy{}, nil)
	engA.ApplyDelta("k", -10)
	replA.Record("k", -10)
	start := time.Now()
	if err := replA.Flush(context.Background(), nodeA, []wire.SiteID{2}); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("flush took %v, want ~80ms per-peer deadline", d)
	}
	if replA.Lag(2) != 1 {
		t.Fatal("backlog lost on timeout")
	}
}
