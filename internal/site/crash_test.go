package site

import (
	"encoding/binary"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"avdb/internal/core"
	"avdb/internal/storage"
	"avdb/internal/strategy"
	"avdb/internal/transport"
	"avdb/internal/transport/memnet"
	"avdb/internal/wire"
)

// dropAVReplies drops site 0's AV grant replies while on, so an escrow
// request reaches site 0 but the requester never hears the grant.
type dropAVReplies struct{ on atomic.Bool }

func (d *dropAVReplies) Intercept(from, to wire.SiteID, isReply bool, kind wire.Kind) transport.Fault {
	return transport.Fault{Drop: d.on.Load() && isReply && from == 0 && kind == wire.KindAVReply}
}

// avState is what a PersistAV site recovers for one key.
type avState struct {
	Stock, Free, Escrowed int64
	Obligations           int
}

func stateOf(s *Site, key string) avState {
	stock, _ := s.Read(key) // 0 before the row is seeded
	avt := s.AV()
	return avState{stock, avt.Total(key) - avt.Escrowed(key), avt.Escrowed(key), len(avt.Obligations())}
}

// TestCrashPointsOverOneWAL runs a scripted decrement / increment /
// transfer / escrow / unspent-grant workload against a PersistAV site
// (site 0), then reopens it from every record boundary of its one WAL.
// Each prefix is a crash point. Every one must reopen, must hold no
// more free AV than surviving stock (escrowed units are excluded, as in
// the simulator's no-mint oracle: an in-flight transfer counts at both
// ends until it settles), and the whole log must reproduce the state
// before the crash. Site 0 starts with all of the slack and ends holding
// all of it again, so the bound is tight: a decrement whose stock row
// outlived its AV change, or a grant credited twice, would exceed it.
func TestCrashPointsOverOneWAL(t *testing.T) {
	dir := t.TempDir()
	drop := &dropAVReplies{}
	net := memnet.New(memnet.Options{CallTimeout: 200 * time.Millisecond, Interceptor: drop})
	exact := strategy.Policy{Selector: strategy.MaxKnown{}, Decider: strategy.GrantExact{}}
	cfg0 := Config{ID: 0, Peers: []wire.SiteID{1, 2}, StorageDir: dir, PersistAV: true, NoSync: true,
		EscrowTransfers: true, Policy: exact}
	s0, err := Open(cfg0, net)
	if err != nil {
		t.Fatal(err)
	}
	// Site 1 asks for plain transfers (a Debit at site 0), site 2 for
	// escrowed ones (an escrow, then a settle or a cancel at site 0).
	s1, err := Open(Config{ID: 1, Peers: []wire.SiteID{0, 2}, Policy: exact}, net)
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Close()
	s2, err := Open(Config{ID: 2, Peers: []wire.SiteID{0, 1}, Policy: exact, EscrowTransfers: true,
		RequestTimeout: 100 * time.Millisecond}, net)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for _, s := range []*Site{s0, s1, s2} {
		if err := s.Seed(storage.Record{Key: "k", Amount: 100, Class: storage.Regular}); err != nil {
			t.Fatal(err)
		}
		share := int64(0)
		if s == s0 {
			share = 100
		}
		if err := s.DefineAV("k", share); err != nil {
			t.Fatal(err)
		}
	}

	step := func(what string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	update := func(s *Site, delta int64) error { _, err := s.Update(bg(), "k", delta); return err }
	step("decrement", update(s0, -10))
	step("increment", update(s0, 5))
	step("plain transfer out", update(s1, -20))
	step("escrow out", update(s2, -15))
	_, err = s2.Reconcile(bg()) // settle at site 0
	step("settle", err)
	drop.on.Store(true)
	if update(s2, -5) == nil { // escrowed at site 0, grant reply lost
		t.Fatal("update with a lost grant succeeded")
	}
	drop.on.Store(false)
	_, err = s2.Reconcile(bg()) // cancel: site 0 refunds
	step("cancel", err)
	step("flush 1", s1.Flush(bg()))
	step("flush 2", s2.Flush(bg()))
	step("remote increment", update(s1, 30))
	step("flush 1 again", s1.Flush(bg()))
	step("escrow in", update(s0, -70)) // site 0 short: obligation, then grant and spend in one commit
	_, err = s0.Reconcile(bg())
	step("settle in", err)
	// Site 1 holds the last 20 units: site 0 receives them, still falls
	// short, and writes the unspent grant's credit on its own.
	if err := update(s0, -30); !errors.Is(err, core.ErrInsufficientAV) {
		t.Fatalf("partial grant: err = %v, want ErrInsufficientAV", err)
	}
	_, err = s0.Reconcile(bg())
	step("settle partial", err)

	want := stateOf(s0, "k")
	if want != (avState{Stock: 20, Free: 20}) {
		t.Fatalf("scripted end state = %+v, want stock 20, all of it free AV", want)
	}
	if err := s0.Close(); err != nil {
		t.Fatal(err)
	}

	segs, err := filepath.Glob(filepath.Join(dir, "wal", "wal-*.seg"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want one WAL segment, got %v (%v)", segs, err)
	}
	seg, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Record boundaries: each frame is a u32 length, a u32 CRC, payload.
	// Site 0 writes 19 records: its incarnation, seed and AV definition;
	// one per decrement, increment, plain debit, escrow, settle, escrow,
	// cancel and inbound window (three); for the escrow in, an obligation
	// and one commit; its discharge; for the partial grant, an obligation
	// and the unspent credit; its discharge.
	bounds := []int{0}
	for off := 0; off < len(seg); {
		off += 8 + int(binary.LittleEndian.Uint32(seg[off:]))
		bounds = append(bounds, off)
	}
	if bounds[len(bounds)-1] != len(seg) || len(bounds)-1 != 19 {
		t.Fatalf("WAL framing: %d records ending at %d of %d bytes, want 19", len(bounds)-1, bounds[len(bounds)-1], len(seg))
	}

	for k, end := range bounds {
		crash := filepath.Join(t.TempDir(), "site-0")
		copyTree(t, dir, crash, segs[0], seg[:end])
		c := cfg0
		c.StorageDir = crash
		s, err := Reopen(c, memnet.New(memnet.Options{}))
		if err != nil {
			t.Fatalf("crash after %d of %d records: reopen: %v", k, len(bounds)-1, err)
		}
		got := stateOf(s, "k")
		s.Close()
		if got.Free > got.Stock {
			t.Fatalf("crash after %d of %d records: free AV %d exceeds surviving stock %d: AV minted",
				k, len(bounds)-1, got.Free, got.Stock)
		}
		if k == len(bounds)-1 && !reflect.DeepEqual(got, want) {
			t.Fatalf("full log reopens to %+v, want the pre-crash %+v", got, want)
		}
	}
}

// copyTree copies the data directory src to dst, writing data in place
// of the file at path cut.
func copyTree(t *testing.T, src, dst, cut string, data []byte) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		out := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(out, 0o755)
		}
		b := data
		if path != cut {
			if b, err = os.ReadFile(path); err != nil {
				return err
			}
		}
		return os.WriteFile(out, b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRestartedCoordinatorMintsFreshTxnIDs restarts a durable site that
// coordinated Immediate Updates. Its peers' decided caches still hold
// the transaction ids of its previous life, so a coordinator that counted
// from the same start again would be voted down ("txn already decided")
// and abort. The site counts its opens in its own storage and salts its
// ids with that count, so the first Immediate Update after the restart
// commits.
func TestRestartedCoordinatorMintsFreshTxnIDs(t *testing.T) {
	net := memnet.New(memnet.Options{})
	dirs := []string{t.TempDir(), t.TempDir(), t.TempDir()}
	cfg := func(id int) Config {
		c := Config{ID: wire.SiteID(id), StorageDir: dirs[id], NoSync: true}
		for p := 0; p < 3; p++ {
			if p != id {
				c.Peers = append(c.Peers, wire.SiteID(p))
			}
		}
		return c
	}
	var sites [3]*Site
	t.Cleanup(func() {
		for _, s := range sites {
			if s != nil {
				s.Close()
			}
		}
	})
	for i := range sites {
		s, err := Open(cfg(i), net)
		if err != nil {
			t.Fatal(err)
		}
		sites[i] = s
		if err := s.Seed(storage.Record{Key: "non", Amount: 100, Class: storage.NonRegular}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if _, err := sites[1].Update(bg(), "non", -1); err != nil {
			t.Fatalf("Immediate Update %d: %v", i, err)
		}
	}
	if err := sites[1].Close(); err != nil {
		t.Fatal(err)
	}
	s, err := Open(cfg(1), net)
	if err != nil {
		t.Fatal(err)
	}
	sites[1] = s
	if _, err := sites[1].Update(bg(), "non", -1); err != nil {
		t.Fatalf("first Immediate Update after the restart: %v", err)
	}
	for i, s := range sites {
		if v, _ := s.Read("non"); v != 96 {
			t.Fatalf("site %d: non = %d, want 96", i, v)
		}
	}
}
