package readplane

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"avdb/internal/lockmgr"
	"avdb/internal/storage"
	"avdb/internal/txn"
	"avdb/internal/wire"
)

// harness is an engine with a plane over it, the way a site wires the
// pair.
type harness struct {
	eng   *storage.Engine
	plane *Plane
}

// attach builds a plane over eng.
func attach(eng *storage.Engine, cfg Config) *Plane {
	cfg.Engine = eng
	return New(cfg)
}

func newHarness(tb testing.TB, site wire.SiteID, opts storage.Options, cfg Config) *harness {
	tb.Helper()
	eng, err := storage.Open(opts)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { eng.Close() })
	cfg.Site = site
	plane := attach(eng, cfg)
	tb.Cleanup(plane.Close)
	return &harness{eng: eng, plane: plane}
}

// stock is a catalog read that must succeed.
func stock(tb testing.TB, p *Plane) *StockSnapshot {
	tb.Helper()
	s, err := p.Stock()
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

func waitCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestStockFollowsApplies(t *testing.T) {
	h := newHarness(t, 1, storage.Options{}, Config{})
	if err := h.eng.Put(storage.Record{Key: "a", Amount: 10}); err != nil {
		t.Fatal(err)
	}
	if _, err := h.eng.ApplyDelta("a", -3); err != nil {
		t.Fatal(err)
	}
	if err := h.eng.Put(storage.Record{Key: "b", Amount: 5}); err != nil {
		t.Fatal(err)
	}
	s := stock(t, h.plane)
	if s.AppliedLSN != h.eng.LastLSN() {
		t.Fatalf("watermark %d, engine %d", s.AppliedLSN, h.eng.LastLSN())
	}
	if v, ok := s.Amount("a"); !ok || v != 7 {
		t.Fatalf("a = %d %v, want 7", v, ok)
	}
	if v, ok := s.Amount("b"); !ok || v != 5 {
		t.Fatalf("b = %d %v, want 5", v, ok)
	}
	if s.Len() != 2 {
		t.Fatalf("len = %d", s.Len())
	}
}

func TestBootstrapCoversPreexistingState(t *testing.T) {
	eng, err := storage.Open(storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := eng.Put(storage.Record{Key: "seeded", Amount: 42}); err != nil {
		t.Fatal(err)
	}
	plane := attach(eng, Config{Site: 3})
	defer plane.Close()
	s := stock(t, plane)
	if v, ok := s.Amount("seeded"); !ok || v != 42 {
		t.Fatalf("seeded = %d %v", v, ok)
	}
	if s.AppliedLSN != eng.LastLSN() {
		t.Fatalf("stamp %d, engine %d", s.AppliedLSN, eng.LastLSN())
	}
}

func TestHotViewRanksTopK(t *testing.T) {
	h := newHarness(t, 1, storage.Options{}, Config{})
	for _, k := range []string{"cold", "warm", "hot"} {
		if err := h.eng.Put(storage.Record{Key: k, Amount: 100}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		if _, err := h.eng.ApplyDelta("hot", -1); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if _, err := h.eng.ApplyDelta("warm", -2); err != nil {
			t.Fatal(err)
		}
	}
	hot := h.plane.Hot(2)
	if len(hot.Top) != 2 {
		t.Fatalf("topK = %d entries", len(hot.Top))
	}
	// "hot": 1 put + 5 deltas = 6 updates; "warm": 1 + 3 = 4.
	if hot.Top[0].Key != "hot" || hot.Top[1].Key != "warm" {
		t.Fatalf("ranking = %+v", hot.Top)
	}
	// Volume counts delta flow only (a put sets state, it moves none).
	if hot.Top[0].Updates != 6 || hot.Top[0].Volume != 5 {
		t.Fatalf("hot stats = %+v", hot.Top[0])
	}
}

type fakeAV struct {
	avail, held map[string]int64
}

func (f *fakeAV) Keys() []string {
	out := make([]string, 0, len(f.avail))
	for k := range f.avail {
		out = append(out, k)
	}
	return out
}
func (f *fakeAV) Avail(key string) int64 { return f.avail[key] }
func (f *fakeAV) Held(key string) int64  { return f.held[key] }

type fakeView map[wire.SiteID]map[string]int64

func (f fakeView) Known(site wire.SiteID, key string) (int64, bool) {
	n, ok := f[site][key]
	return n, ok
}

func TestGlobalViewJoinsAVAndPeers(t *testing.T) {
	av := &fakeAV{avail: map[string]int64{"k": 30}, held: map[string]int64{"k": 5}}
	view := fakeView{2: {"k": 10}, 3: {"k": 7}}
	h := newHarness(t, 1, storage.Options{}, Config{
		AV: av, View: view, Peers: []wire.SiteID{2, 3},
	})
	if err := h.eng.Put(storage.Record{Key: "k", Amount: 100}); err != nil {
		t.Fatal(err)
	}
	g, err := h.plane.Global()
	if err != nil {
		t.Fatal(err)
	}
	row := g.Key("k")
	if row == nil {
		t.Fatal("k missing from global view")
	}
	if row.Amount != 100 || row.AVAvail != 30 || row.AVHeld != 5 {
		t.Fatalf("row = %+v", row)
	}
	if row.KnownAV != 30+10+7 {
		t.Fatalf("KnownAV = %d", row.KnownAV)
	}
	if row.PeerAV[2] != 10 || row.PeerAV[3] != 7 {
		t.Fatalf("PeerAV = %v", row.PeerAV)
	}
	if g.Key("absent") != nil {
		t.Fatal("phantom row")
	}
}

func TestWaitForWrongSiteRejected(t *testing.T) {
	h := newHarness(t, 1, storage.Options{}, Config{})
	if err := h.plane.WaitFor(waitCtx(t), Token{Site: 2, LSN: 1}); !errors.Is(err, ErrWrongSite) {
		t.Fatalf("err = %v, want ErrWrongSite", err)
	}
}

func TestMonotonicWatermark(t *testing.T) {
	h := newHarness(t, 1, storage.Options{}, Config{})
	if err := h.eng.Put(storage.Record{Key: "k", Amount: 0}); err != nil {
		t.Fatal(err)
	}
	var last uint64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			h.eng.ApplyDelta("k", 1) //nolint:errcheck
		}
	}()
	for {
		s := stock(t, h.plane)
		if s.AppliedLSN < last {
			t.Errorf("watermark regressed: %d after %d", s.AppliedLSN, last)
			break
		}
		last = s.AppliedLSN
		select {
		case <-done:
			return
		default:
		}
	}
}

func TestConcurrentReadersAndWriters(t *testing.T) {
	h := newHarness(t, 1, storage.Options{}, Config{})
	if err := h.eng.Put(storage.Record{Key: "k", Amount: 0}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				h.eng.ApplyDelta("k", 1) //nolint:errcheck
			}
		}()
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				stock(t, h.plane).Amount("k")
				h.plane.Hot(defaultTopK)
				if _, err := h.plane.Global(); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	if v, _ := stock(t, h.plane).Amount("k"); v != 400 {
		t.Fatalf("k = %d, want 400", v)
	}
}

// --- RYW token edge cases ---

// An aborted transaction advances nothing: no token is minted for it,
// and a token minted from the pre-abort cursor is still immediately
// satisfiable (the abort neither advances nor regresses the
// watermark).
func TestRYWTokenAroundAbortedTxn(t *testing.T) {
	h := newHarness(t, 1, storage.Options{}, Config{})
	if err := h.eng.Put(storage.Record{Key: "k", Amount: 10}); err != nil {
		t.Fatal(err)
	}
	before := h.eng.LastLSN()
	tok := Mint(1, before)

	tm := txn.NewManager(h.eng, lockmgr.Options{WaitTimeout: time.Second})
	tx := tm.Begin()
	if _, err := tx.ApplyDelta(context.Background(), "k", -5); err != nil {
		t.Fatal(err)
	}
	tx.Abort()

	if h.eng.LastLSN() != before {
		t.Fatalf("abort advanced the cursor: %d -> %d", before, h.eng.LastLSN())
	}
	// The pre-abort token is satisfied without waiting, and the model
	// shows no trace of the aborted write.
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := h.plane.WaitFor(ctx, tok); err != nil {
		t.Fatalf("pre-abort token not satisfied: %v", err)
	}
	if v, _ := stock(t, h.plane).Amount("k"); v != 10 {
		t.Fatalf("k = %d, aborted delta leaked into the model", v)
	}
}

// A token for an LSN the site has not produced yet expires at the
// caller's deadline — and succeeds later once the write actually
// lands.
func TestRYWTokenFutureLSNExpires(t *testing.T) {
	h := newHarness(t, 1, storage.Options{}, Config{})
	if err := h.eng.Put(storage.Record{Key: "k", Amount: 0}); err != nil {
		t.Fatal(err)
	}
	future := Mint(1, h.eng.LastLSN()+3)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := h.plane.WaitFor(ctx, future); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if h.plane.Stats().RYWTimeouts != 1 {
		t.Fatalf("timeouts = %d", h.plane.Stats().RYWTimeouts)
	}
	// Produce the missing LSNs; the same token is now satisfiable.
	for i := 0; i < 3; i++ {
		if _, err := h.eng.ApplyDelta("k", 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.plane.WaitFor(waitCtx(t), future); err != nil {
		t.Fatalf("token still unsatisfied after the writes: %v", err)
	}
}

// A token survives a site restart: the durable engine recovers the
// cursor past the token's LSN, and the rebuilt plane satisfies the
// replayed token immediately — with the token's write visible.
func TestRYWTokenReplayAfterRestart(t *testing.T) {
	dir := t.TempDir()
	open := func() (*storage.Engine, *Plane) {
		eng, err := storage.Open(storage.Options{Dir: dir, NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		return eng, attach(eng, Config{Site: 1})
	}
	eng, plane := open()
	if err := eng.Put(storage.Record{Key: "k", Amount: 7}); err != nil {
		t.Fatal(err)
	}
	tok := Mint(1, eng.LastLSN())
	if err := plane.WaitFor(waitCtx(t), tok); err != nil {
		t.Fatal(err)
	}
	plane.Close()
	eng.Close()

	eng2, plane2 := open()
	defer func() {
		plane2.Close()
		eng2.Close()
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := plane2.WaitFor(ctx, tok); err != nil {
		t.Fatalf("replayed token not satisfied after restart: %v", err)
	}
	if v, ok := stock(t, plane2).Amount("k"); !ok || v != 7 {
		t.Fatalf("k = %d %v after restart", v, ok)
	}
}

func TestWaitForOnClosedPlane(t *testing.T) {
	eng, err := storage.Open(storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	plane := attach(eng, Config{Site: 1})
	done := make(chan error, 1)
	go func() {
		done <- plane.WaitFor(context.Background(), Token{Site: 1, LSN: 100})
	}()
	time.Sleep(20 * time.Millisecond)
	plane.Close()
	plane.Close() // idempotent
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("err = %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("waiter leaked past Close")
	}
}

func TestTokenStringParseRoundTrip(t *testing.T) {
	tok := Mint(3, 12345)
	if tok.String() != "3:12345" {
		t.Fatalf("string = %q", tok.String())
	}
	back, err := ParseToken(tok.String())
	if err != nil || back != tok {
		t.Fatalf("roundtrip = %+v, %v", back, err)
	}
	for _, bad := range []string{"", "3", "x:1", "3:y", "3:"} {
		if _, err := ParseToken(bad); err == nil {
			t.Fatalf("ParseToken(%q) accepted", bad)
		}
	}
	if !(Token{}).IsZero() || Mint(1, 2).IsZero() {
		t.Fatal("IsZero misclassifies")
	}
	_ = fmt.Sprintf("%v", tok)
}

func TestAccessorsAndStalenessAge(t *testing.T) {
	now := time.Date(2000, 1, 2, 3, 4, 5, 0, time.UTC)
	h := newHarness(t, 7, storage.Options{}, Config{Now: func() time.Time { return now }})
	if got := h.plane.Site(); got != 7 {
		t.Fatalf("Site() = %d, want 7", got)
	}
	if h.plane.WaitHistogram() == nil {
		t.Fatal("wait histogram must exist from New")
	}
	if err := h.eng.Put(storage.Record{Key: "a", Amount: 1}); err != nil {
		t.Fatal(err)
	}
	s := stock(t, h.plane)
	if !s.AsOf.Equal(now) || s.Site != 7 {
		t.Fatalf("snapshot site %d as of %v, want 7 as of the injected clock %v", s.Site, s.AsOf, now)
	}
	if age := s.Age(s.AsOf.Add(3 * time.Second)); age != 3*time.Second {
		t.Fatalf("Age = %v, want 3s", age)
	}
	if err := h.plane.WaitFor(waitCtx(t), Mint(7, h.eng.LastLSN())); err != nil {
		t.Fatal(err)
	}
	if st := h.plane.Stats(); st.ReadsStock != 1 || st.RYWWaits != 1 || h.plane.WaitHistogram().Snapshot().Count != 1 {
		t.Fatalf("stats %+v, %d wait samples", st, h.plane.WaitHistogram().Snapshot().Count)
	}
}
