package memnet

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"avdb/internal/metrics"
	"avdb/internal/transport"
	"avdb/internal/wire"
)

// echoHandler replies to Read requests with the key length as value.
func echoHandler(ctx context.Context, from wire.SiteID, msg wire.Message) wire.Message {
	if r, ok := msg.(*wire.Read); ok {
		return &wire.ReadReply{OK: true, Value: int64(len(r.Key))}
	}
	return nil
}

func TestCallRoundTrip(t *testing.T) {
	net := New(Options{})
	a, err := net.Open(1, echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Open(2, echoHandler); err != nil {
		t.Fatal(err)
	}
	reply, err := a.Call(context.Background(), 2, &wire.Read{Key: "hello"})
	if err != nil {
		t.Fatal(err)
	}
	rr := reply.(*wire.ReadReply)
	if !rr.OK || rr.Value != 5 {
		t.Fatalf("reply = %+v", rr)
	}
}

func TestOpenDuplicateFails(t *testing.T) {
	net := New(Options{})
	if _, err := net.Open(1, echoHandler); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Open(1, echoHandler); err == nil {
		t.Fatal("duplicate Open succeeded")
	}
}

func TestCallUnknownDestination(t *testing.T) {
	net := New(Options{})
	a, _ := net.Open(1, echoHandler)
	_, err := a.Call(context.Background(), 9, &wire.Read{Key: "x"})
	if !errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("err = %v, want ErrUnreachable", err)
	}
}

func TestPartitionBlocksAndHeals(t *testing.T) {
	net := New(Options{})
	a, _ := net.Open(1, echoHandler)
	net.Open(2, echoHandler)
	net.Block(1, 2)
	if _, err := a.Call(context.Background(), 2, &wire.Read{Key: "x"}); !errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("blocked call err = %v", err)
	}
	net.Unblock(1, 2)
	if _, err := a.Call(context.Background(), 2, &wire.Read{Key: "x"}); err != nil {
		t.Fatalf("healed call err = %v", err)
	}
}

func TestIsolateAndHeal(t *testing.T) {
	net := New(Options{})
	a, _ := net.Open(1, echoHandler)
	net.Open(2, echoHandler)
	net.Open(3, echoHandler)
	net.Isolate(2)
	if _, err := a.Call(context.Background(), 2, &wire.Read{Key: "x"}); err == nil {
		t.Fatal("isolated site reachable")
	}
	if _, err := a.Call(context.Background(), 3, &wire.Read{Key: "x"}); err != nil {
		t.Fatalf("unrelated pair affected: %v", err)
	}
	net.Heal()
	if _, err := a.Call(context.Background(), 2, &wire.Read{Key: "x"}); err != nil {
		t.Fatalf("heal did not restore: %v", err)
	}
}

func TestCrashAndRestart(t *testing.T) {
	net := New(Options{})
	a, _ := net.Open(1, echoHandler)
	net.Open(2, echoHandler)
	net.Crash(2)
	if _, err := a.Call(context.Background(), 2, &wire.Read{Key: "x"}); !errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("crashed call err = %v", err)
	}
	net.Restart(2)
	if _, err := a.Call(context.Background(), 2, &wire.Read{Key: "x"}); err != nil {
		t.Fatalf("restart did not restore: %v", err)
	}
}

func TestDropCausesTimeout(t *testing.T) {
	dropAll := func(from, to wire.SiteID, msg wire.Message) bool { return true }
	net := New(Options{Drop: dropAll, CallTimeout: 50 * time.Millisecond})
	a, _ := net.Open(1, echoHandler)
	net.Open(2, echoHandler)
	start := time.Now()
	_, err := a.Call(context.Background(), 2, &wire.Read{Key: "x"})
	if !errors.Is(err, transport.ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("timeout took far too long")
	}
}

func TestContextCancelAbortsCall(t *testing.T) {
	dropAll := func(from, to wire.SiteID, msg wire.Message) bool { return true }
	net := New(Options{Drop: dropAll})
	a, _ := net.Open(1, echoHandler)
	net.Open(2, echoHandler)
	ctx, cancel := context.WithCancel(context.Background())
	go func() { time.Sleep(10 * time.Millisecond); cancel() }()
	_, err := a.Call(ctx, 2, &wire.Read{Key: "x"})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestLatencyDelaysDelivery(t *testing.T) {
	net := New(Options{Latency: func(from, to wire.SiteID) time.Duration { return 30 * time.Millisecond }})
	a, _ := net.Open(1, echoHandler)
	net.Open(2, echoHandler)
	start := time.Now()
	if _, err := a.Call(context.Background(), 2, &wire.Read{Key: "x"}); err != nil {
		t.Fatal(err)
	}
	if rtt := time.Since(start); rtt < 55*time.Millisecond {
		t.Fatalf("rtt = %v, want >= ~60ms (two one-way 30ms hops)", rtt)
	}
}

func TestCountingAttributesToInitiator(t *testing.T) {
	reg := metrics.NewRegistry()
	net := New(Options{Registry: reg})
	a, _ := net.Open(1, echoHandler)
	net.Open(2, echoHandler)
	for i := 0; i < 5; i++ {
		if _, err := a.Call(context.Background(), 2, &wire.Read{Key: "x"}); err != nil {
			t.Fatal(err)
		}
	}
	bySite := reg.MessagesBySite()
	if bySite[1] != 10 {
		t.Fatalf("initiator site 1 counted %d messages, want 10 (5 requests + 5 replies)", bySite[1])
	}
	if bySite[2] != 0 {
		t.Fatalf("responder site 2 counted %d messages, want 0", bySite[2])
	}
	if got := reg.TotalCorrespondences(); got != 5 {
		t.Fatalf("correspondences = %d, want 5", got)
	}
	byKind := reg.MessagesByKind()
	if byKind["read"] != 5 || byKind["read.reply"] != 5 {
		t.Fatalf("byKind = %v", byKind)
	}
}

func TestOneWaySend(t *testing.T) {
	var mu sync.Mutex
	var got []int64
	h := func(ctx context.Context, from wire.SiteID, msg wire.Message) wire.Message {
		if d, ok := msg.(*wire.DeltaAck); ok {
			mu.Lock()
			got = append(got, int64(d.UpTo))
			mu.Unlock()
		}
		return nil
	}
	net := New(Options{})
	a, _ := net.Open(1, h)
	net.Open(2, h)
	for i := 1; i <= 3; i++ {
		if err := a.Send(context.Background(), 2, &wire.DeltaAck{Origin: 1, UpTo: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	net.Quiesce()
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("received %d one-way messages, want 3", n)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestCloseRejectsFurtherUse(t *testing.T) {
	net := New(Options{})
	a, _ := net.Open(1, echoHandler)
	net.Open(2, echoHandler)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Call(context.Background(), 2, &wire.Read{Key: "x"}); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	if err := a.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
	// The ID can be reopened after close.
	if _, err := net.Open(1, echoHandler); err != nil {
		t.Fatalf("reopen after close: %v", err)
	}
}

func TestConcurrentCalls(t *testing.T) {
	net := New(Options{})
	a, _ := net.Open(1, echoHandler)
	net.Open(2, echoHandler)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				reply, err := a.Call(context.Background(), 2, &wire.Read{Key: "abc"})
				if err != nil {
					errs <- err
					return
				}
				if reply.(*wire.ReadReply).Value != 3 {
					errs <- errors.New("bad reply value")
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
}

func TestSelfCall(t *testing.T) {
	// A site may address itself; the message loops through the full
	// encode/decode path.
	net := New(Options{})
	a, _ := net.Open(1, echoHandler)
	reply, err := a.Call(context.Background(), 1, &wire.Read{Key: "selfcall"})
	if err != nil {
		t.Fatal(err)
	}
	if reply.(*wire.ReadReply).Value != 8 {
		t.Fatalf("self call reply = %+v", reply)
	}
}

func BenchmarkCallRTT(b *testing.B) {
	net := New(Options{})
	a, _ := net.Open(1, echoHandler)
	net.Open(2, echoHandler)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := a.Call(context.Background(), 2, &wire.Read{Key: "bench"}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestFixedLatencyModel(t *testing.T) {
	f := FixedLatency(7 * time.Millisecond)
	if f(0, 1) != 7*time.Millisecond || f(3, 2) != 7*time.Millisecond {
		t.Fatal("fixed latency not fixed")
	}
}

func TestJitteredLatencyModel(t *testing.T) {
	f := JitteredLatency(2*time.Millisecond, 3*time.Millisecond, 5)
	seen := map[time.Duration]bool{}
	for i := 0; i < 200; i++ {
		d := f(0, 1)
		if d < 2*time.Millisecond || d >= 5*time.Millisecond {
			t.Fatalf("latency %v out of [2ms,5ms)", d)
		}
		seen[d] = true
	}
	if len(seen) < 10 {
		t.Fatalf("jitter produced only %d distinct values", len(seen))
	}
	// Zero jitter degenerates to fixed.
	g := JitteredLatency(time.Millisecond, 0, 1)
	if g(0, 1) != time.Millisecond {
		t.Fatal("zero jitter broken")
	}
}

func TestPerLinkLatencyModel(t *testing.T) {
	f := PerLinkLatency(time.Millisecond, map[Link]time.Duration{
		{From: 0, To: 2}: 50 * time.Millisecond,
	})
	if f(0, 2) != 50*time.Millisecond {
		t.Fatal("listed link wrong")
	}
	if f(2, 0) != time.Millisecond {
		t.Fatal("reverse direction must fall back (asymmetry)")
	}
	if f(1, 2) != time.Millisecond {
		t.Fatal("default wrong")
	}
}

func TestJitteredLatencyEndToEnd(t *testing.T) {
	net := New(Options{Latency: JitteredLatency(5*time.Millisecond, 5*time.Millisecond, 9)})
	a, _ := net.Open(1, echoHandler)
	net.Open(2, echoHandler)
	start := time.Now()
	if _, err := a.Call(context.Background(), 2, &wire.Read{Key: "x"}); err != nil {
		t.Fatal(err)
	}
	if rtt := time.Since(start); rtt < 9*time.Millisecond {
		t.Fatalf("rtt = %v, want >= ~10ms", rtt)
	}
}

// scriptedInterceptor applies a fixed sequence of faults to requests
// (replies pass clean unless faultReplies is set).
type scriptedInterceptor struct {
	mu           sync.Mutex
	faults       []transport.Fault
	faultReplies bool
	intercepts   int
}

func (si *scriptedInterceptor) Intercept(from, to wire.SiteID, isReply bool, kind wire.Kind) transport.Fault {
	si.mu.Lock()
	defer si.mu.Unlock()
	if isReply && !si.faultReplies {
		return transport.Fault{}
	}
	si.intercepts++
	if len(si.faults) == 0 {
		return transport.Fault{}
	}
	f := si.faults[0]
	si.faults = si.faults[1:]
	return f
}

func TestInterceptorDropCausesTimeout(t *testing.T) {
	si := &scriptedInterceptor{faults: []transport.Fault{{Drop: true}}}
	net := New(Options{Interceptor: si, CallTimeout: 50 * time.Millisecond})
	a, _ := net.Open(1, echoHandler)
	net.Open(2, echoHandler)
	if _, err := a.Call(context.Background(), 2, &wire.Read{Key: "x"}); !errors.Is(err, transport.ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestRetransmitHealsDroppedRequest(t *testing.T) {
	si := &scriptedInterceptor{faults: []transport.Fault{{Drop: true}}}
	net := New(Options{Interceptor: si, RetransmitInterval: 10 * time.Millisecond})
	a, _ := net.Open(1, echoHandler)
	net.Open(2, echoHandler)
	reply, err := a.Call(context.Background(), 2, &wire.Read{Key: "abc"})
	if err != nil {
		t.Fatal(err)
	}
	if reply.(*wire.ReadReply).Value != 3 {
		t.Fatalf("reply = %+v", reply)
	}
}

func TestRetransmitHealsDroppedReply(t *testing.T) {
	// Drop the first *reply*; the retransmitted request must replay the
	// original reply from the receiver's dedup cache, and the handler
	// must not run twice.
	var handled sync.Map
	var count int
	var mu sync.Mutex
	handler := func(ctx context.Context, from wire.SiteID, msg wire.Message) wire.Message {
		mu.Lock()
		count++
		mu.Unlock()
		handled.Store(msg.(*wire.Read).Key, true)
		return &wire.ReadReply{OK: true, Value: 7}
	}
	si := &scriptedInterceptor{faults: []transport.Fault{{Drop: true}}, faultReplies: true}
	net := New(Options{RetransmitInterval: 10 * time.Millisecond})
	a, _ := net.Open(1, echoHandler)
	net.Open(2, handler)
	// Install the interceptor for replies only after open; wrap: easier to
	// set via Options, but then the request itself is the first intercept.
	// Instead configure the fault sequence so the request passes and the
	// reply drops: with faultReplies, intercepts apply to both directions,
	// so pass the request explicitly first.
	si.mu.Lock()
	si.faults = []transport.Fault{{}, {Drop: true}}
	si.mu.Unlock()
	net.opts.Interceptor = si
	reply, err := a.Call(context.Background(), 2, &wire.Read{Key: "k"})
	if err != nil {
		t.Fatal(err)
	}
	if reply.(*wire.ReadReply).Value != 7 {
		t.Fatalf("reply = %+v", reply)
	}
	mu.Lock()
	defer mu.Unlock()
	if count != 1 {
		t.Fatalf("handler ran %d times, want 1", count)
	}
}

func TestDuplicateRequestServedOnce(t *testing.T) {
	var mu sync.Mutex
	count := 0
	handler := func(ctx context.Context, from wire.SiteID, msg wire.Message) wire.Message {
		mu.Lock()
		count++
		mu.Unlock()
		return &wire.ReadReply{OK: true, Value: 1}
	}
	si := &scriptedInterceptor{faults: []transport.Fault{{Duplicate: true}}}
	net := New(Options{Interceptor: si})
	a, _ := net.Open(1, echoHandler)
	net.Open(2, handler)
	if _, err := a.Call(context.Background(), 2, &wire.Read{Key: "x"}); err != nil {
		t.Fatal(err)
	}
	net.Quiesce()
	// The duplicate may still be in a handler goroutine; give dedup's
	// in-flight drop a moment.
	time.Sleep(20 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if count != 1 {
		t.Fatalf("handler ran %d times, want 1", count)
	}
}

func TestInterceptorDelayPostponesDelivery(t *testing.T) {
	si := &scriptedInterceptor{faults: []transport.Fault{{Delay: 30 * time.Millisecond}}}
	net := New(Options{Interceptor: si})
	a, _ := net.Open(1, echoHandler)
	net.Open(2, echoHandler)
	start := time.Now()
	if _, err := a.Call(context.Background(), 2, &wire.Read{Key: "x"}); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Fatalf("call returned after %v, want >= ~30ms", d)
	}
}

func TestReopenedSiteGetsFreshSeqEpoch(t *testing.T) {
	net := New(Options{})
	a, _ := net.Open(1, echoHandler)
	net.Open(2, echoHandler)
	if _, err := a.Call(context.Background(), 2, &wire.Read{Key: "x"}); err != nil {
		t.Fatal(err)
	}
	a.Close()
	a2, err := net.Open(1, echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	// The reopened node's seqs must not collide with those already in
	// site 2's dedup cache, or this call would be treated as a duplicate
	// and never answered.
	if _, err := a2.Call(context.Background(), 2, &wire.Read{Key: "y"}); err != nil {
		t.Fatal(err)
	}
	if s1, s2 := a.(*node).seq, a2.(*node).seq; s2>>32 == s1>>32 {
		t.Fatalf("reopened node shares seq epoch: %x vs %x", s1, s2)
	}
}
