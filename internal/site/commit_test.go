package site

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"avdb/internal/core"
	"avdb/internal/storage"
	"avdb/internal/transport/memnet"
	"avdb/internal/wal"
	"avdb/internal/wire"
)

// walBytes is the size of a durable site's WAL segments in dir.
func walBytes(t testing.TB, dir string) int64 {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal", "wal-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	for _, seg := range segs {
		fi, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		n += fi.Size()
	}
	return n
}

// TestOneRecordPerDelayUpdate: on a fsyncing durable site a decrement,
// an increment and a transfer-funded decrement at the requester each
// append exactly one WAL record — the stock delta carrying its
// replication entry, and the AV change — and wait on one fsync. A
// decrement or increment spent from local volume changes the balance by
// its own delta, so its record is that one op; the transfer's balance
// change is the spend net of its grant, an op of its own.
func TestOneRecordPerDelayUpdate(t *testing.T) {
	const key = "product-0001" // 12 bytes
	dir := t.TempDir()
	st := &wal.Stats{}
	net := memnet.New(memnet.Options{})
	s0, err := Open(Config{ID: 0, Peers: []wire.SiteID{1}, StorageDir: dir, PersistAV: true, WALStats: st}, net)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s0.Close() })
	s1, err := Open(Config{ID: 1, Peers: []wire.SiteID{0}}, net)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s1.Close() })
	for i, s := range []*Site{s0, s1} {
		if err := s.Seed(storage.Record{Key: key, Amount: 1000, Class: storage.Regular}); err != nil {
			t.Fatal(err)
		}
		if err := s.DefineAV(key, int64(100+400*i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name     string
		delta    int64
		path     core.Path
		maxBytes int64
	}{
		{"decrement", -1, core.PathDelayLocal, 26},
		{"increment", 5, core.PathDelayLocal, 26},
		{"transfer-funded decrement", -200, core.PathDelayTransfer, 48},
	} {
		lsn, fsyncs, size := s0.Engine().LastLSN(), st.Fsyncs.Load(), walBytes(t, dir)
		res, err := s0.Update(bg(), key, tc.delta)
		if err != nil || res.Path != tc.path {
			t.Fatalf("%s: path %v, err %v", tc.name, res.Path, err)
		}
		records, synced, bytes := s0.Engine().LastLSN()-lsn, st.Fsyncs.Load()-fsyncs, walBytes(t, dir)-size
		if records != 1 || synced != 1 {
			t.Errorf("%s: %d WAL records, %d fsyncs; want 1 and 1", tc.name, records, synced)
		}
		if bytes > tc.maxBytes {
			t.Errorf("%s of a 12-byte key: %d WAL bytes, want <= %d", tc.name, bytes, tc.maxBytes)
		}
	}
}

// TestCommittedIncrementIsAcknowledged: once an increment's commit is
// durable the update has happened, so nothing after it may answer ERR
// or drop its slack — not even an observer that closes the engine.
func TestCommittedIncrementIsAcknowledged(t *testing.T) {
	dir := t.TempDir()
	var s *Site
	cfg := Config{ID: 0, StorageDir: dir, PersistAV: true, NoSync: true,
		UpdateObserver: func(string, int64) { s.Engine().Close() }}
	s, err := Open(cfg, memnet.New(memnet.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Seed(storage.Record{Key: "k", Amount: 100, Class: storage.Regular}); err != nil {
		t.Fatal(err)
	}
	if err := s.DefineAV("k", 40); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Update(bg(), "k", 7); err != nil {
		t.Fatalf("committed increment answered %v", err)
	}
	if got := s.AV().Avail("k"); got != 47 {
		t.Fatalf("AV = %d, want 40+7", got)
	}
	s.Close()

	cfg.UpdateObserver = nil
	s2, err := Open(cfg, memnet.New(memnet.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if v, _ := s2.Read("k"); v != 107 || s2.AV().Avail("k") != 47 {
		t.Fatalf("recovered stock %d / AV %d, want 107/47", v, s2.AV().Avail("k"))
	}
}

// TestOldAndNewRecordsReopenTogether: a data dir holding Delay Updates
// in the oldest two-record shape — the AV spend in a batch of its own,
// the stock as a plain delta beside a replication log row — then in the
// one-record shape of a logged delta beside an OpMetaAdd of its balance
// row, then as one balanced-delta op reopens to the stock, AV and
// outbound log of all three: no shape's balance change is lost or
// applied twice. Beside them, a peer's window written with every key
// spelled out and one written in key order with shared key prefixes
// reopen to the amounts and watermark of both.
func TestOldAndNewRecordsReopenTogether(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{ID: 0, Peers: []wire.SiteID{1}, StorageDir: dir, PersistAV: true, NoSync: true}
	s, err := Open(cfg, memnet.New(memnet.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Seed(storage.Record{Key: "k", Amount: 100, Class: storage.Regular},
		storage.Record{Key: "item-1", Amount: 100, Class: storage.Regular},
		storage.Record{Key: "item-2", Amount: 100, Class: storage.Regular},
		storage.Record{Key: "item-3", Amount: 100, Class: storage.Regular}); err != nil {
		t.Fatal(err)
	}
	if err := s.DefineAV("k", 100); err != nil {
		t.Fatal(err)
	}
	// A decrement of 10 as older builds wrote it: replication entry 1.
	eng := s.Engine()
	if err := eng.Apply(storage.MetaAddOp(storage.BalanceKey("k"), -10)); err != nil {
		t.Fatal(err)
	}
	if err := eng.Apply(storage.DeltaOp("k", -10),
		storage.MetaPutOp(storage.LogKey(1), append(binary.AppendVarint(nil, -10), "k"...))); err != nil {
		t.Fatal(err)
	}
	// A decrement of 4 and an increment of 2 as the next builds wrote
	// them: replication entries 2 and 3, each one batch.
	for i, delta := range []int64{-4, 2} {
		if err := eng.Apply(storage.LoggedDeltaOp("k", delta, uint64(2+i)),
			storage.MetaAddOp(storage.BalanceKey("k"), delta)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	// Site 1's window of entries 1–3 as a peer wrote it before keys were
	// shared: item-1 −1, item-2 −2, item-3 −3 and repl/applied/1 = 3.
	log, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := log.Append([]byte{0x04,
		0x03, 0x06, 'i', 't', 'e', 'm', '-', '1', 0x01,
		0x03, 0x06, 'i', 't', 'e', 'm', '-', '2', 0x03,
		0x03, 0x06, 'i', 't', 'e', 'm', '-', '3', 0x05,
		0x04, 0x0e, 'r', 'e', 'p', 'l', '/', 'a', 'p', 'p', 'l', 'i', 'e', 'd', '/', '1', 0x01, 0x03}); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	reopen := func() *Site {
		s, err := Open(cfg, memnet.New(memnet.Options{}))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s = reopen()
	var balanced int
	s.Engine().SetApplyObserver(func(_ uint64, ops []storage.Op) {
		if len(ops) == 1 && ops[0].Kind == storage.OpBalancedDelta {
			balanced++
		}
	})
	for _, delta := range []int64{-5, 3} {
		if _, err := s.Update(bg(), "k", delta); err != nil {
			t.Fatal(err)
		}
	}
	if balanced != 2 {
		t.Fatalf("%d of 2 updates committed one balanced-delta op", balanced)
	}
	// Entries 4–6, written now: in key order, each key sharing "item-".
	if ack, err := s.Replicator().HandleSync(&wire.DeltaSync{Origin: 1, FirstSeq: 4, Deltas: []wire.Delta{
		{Seq: 4, Key: "item-3", Amount: -30}, {Seq: 5, Key: "item-1", Amount: -10}, {Seq: 6, Key: "item-2", Amount: -20},
	}}); err != nil || ack.UpTo != 6 {
		t.Fatalf("window 4–6: ack %+v, err %v", ack, err)
	}
	wantLog := []wire.Delta{{Seq: 1, Key: "k", Amount: -10}, {Seq: 2, Key: "k", Amount: -4},
		{Seq: 3, Key: "k", Amount: 2}, {Seq: 4, Key: "k", Amount: -5}, {Seq: 5, Key: "k", Amount: 3}}
	for round := 0; round < 2; round++ {
		if v, _ := s.Read("k"); v != 86 || s.AV().Avail("k") != 86 {
			t.Fatalf("round %d: stock %d / AV %d, want 86/86", round, v, s.AV().Avail("k"))
		}
		if got := s.Replicator().PendingFor(1); !reflect.DeepEqual(got, wantLog) {
			t.Fatalf("round %d: outbound log %v, want %v", round, got, wantLog)
		}
		for i, want := range []int64{89, 78, 67} {
			if v, _ := s.Read(fmt.Sprintf("item-%d", i+1)); v != want {
				t.Fatalf("round %d: item-%d = %d, want %d", round, i+1, v, want)
			}
		}
		if got := s.Replicator().AppliedFrom(1); got != 6 {
			t.Fatalf("round %d: applied from site 1 up to %d, want 6", round, got)
		}
		s.Close()
		s = reopen()
	}
	s.Close()
}

// TestReadPlaneSeesDurableUpdate: a durable site's Delay Update commits
// its stock change as a logged delta, and a read-your-writes read of
// /read/stock, answered from the engine, sees it.
func TestReadPlaneSeesDurableUpdate(t *testing.T) {
	s, err := Open(Config{ID: 0, StorageDir: t.TempDir(), PersistAV: true, NoSync: true, ReadPlane: true},
		memnet.New(memnet.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Seed(storage.Record{Key: "k", Amount: 100, Class: storage.Regular}); err != nil {
		t.Fatal(err)
	}
	if err := s.DefineAV("k", 100); err != nil {
		t.Fatal(err)
	}
	res, err := s.Update(bg(), "k", -30)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.ReadPlane().HTTPHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/read/stock?key=k&token="+s.Token(res).String(), nil))
	var body struct{ Amount int64 }
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || rec.Code != 200 {
		t.Fatalf("status %d, body %q: %v", rec.Code, rec.Body, err)
	}
	if body.Amount != 70 {
		t.Fatalf("/read/stock amount = %d after the update, want 70", body.Amount)
	}
}

// A site mints read-your-writes tokens only when it has a plane to
// redeem them at: without one every update gets the zero token, with
// one a committed update gets site:lsn.
func TestTokenNeedsAPlane(t *testing.T) {
	for _, plane := range []bool{false, true} {
		s, err := Open(Config{ID: 3, Base: 3, ReadPlane: plane}, memnet.New(memnet.Options{}))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if err := s.Seed(storage.Record{Key: "k", Amount: 100, Class: storage.Regular}); err != nil {
			t.Fatal(err)
		}
		if err := s.DefineAV("k", 100); err != nil {
			t.Fatal(err)
		}
		res, err := s.Update(bg(), "k", -1)
		if err != nil {
			t.Fatal(err)
		}
		if res.LSN == 0 {
			t.Fatalf("plane=%v: the commit carried no LSN", plane)
		}
		tok := s.Token(res)
		if want := fmt.Sprintf("3:%d", res.LSN); plane && tok.String() != want {
			t.Fatalf("with a plane: token %v, want %s", tok, want)
		}
		if !plane && !tok.IsZero() {
			t.Fatalf("without a plane: token %v, want the zero token", tok)
		}
	}
}
