package replica

import (
	"context"
	"testing"

	"avdb/internal/lockmgr"
	"avdb/internal/storage"
	"avdb/internal/txn"
	"avdb/internal/wire"
)

func durableEng(t *testing.T, dir string, amount int64) *storage.Engine {
	t.Helper()
	e, err := storage.Open(storage.Options{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Get("k"); err != nil {
		e.Put(storage.Record{Key: "k", Amount: amount})
	}
	return e
}

// commitDelta applies one delta through a transaction + CommitWithRecord,
// the way the accelerator does.
func commitDelta(t *testing.T, eng *storage.Engine, r *Replicator, key string, delta int64) uint64 {
	t.Helper()
	tm := txn.NewManager(eng, lockmgr.Options{})
	tx := tm.Begin()
	if _, err := tx.ApplyDelta(context.Background(), key, delta); err != nil {
		t.Fatal(err)
	}
	seq, err := r.CommitWithRecord(tx, key, delta)
	if err != nil {
		t.Fatal(err)
	}
	return seq
}

func TestDurableLogSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	eng := durableEng(t, dir, 100)
	r, err := NewDurable(1, eng)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Durable() {
		t.Fatal("not durable")
	}
	if seq := commitDelta(t, eng, r, "k", -30); seq != 1 {
		t.Fatalf("seq = %d", seq)
	}
	commitDelta(t, eng, r, "k", +5)
	eng.Close()

	eng2 := durableEng(t, dir, 100)
	defer eng2.Close()
	r2, err := NewDurable(1, eng2)
	if err != nil {
		t.Fatal(err)
	}
	// The value and the unpropagated log both survived.
	if v, _ := eng2.Amount("k"); v != 75 {
		t.Fatalf("value = %d", v)
	}
	pend := r2.PendingFor(2)
	if len(pend) != 2 || pend[0].Seq != 1 || pend[0].Amount != -30 ||
		pend[1].Seq != 2 || pend[1].Amount != 5 {
		t.Fatalf("pending after restart = %+v", pend)
	}
	if r2.NextSeq() != 3 {
		t.Fatalf("NextSeq = %d", r2.NextSeq())
	}
}

func TestDurableWatermarkPreventsDoubleApply(t *testing.T) {
	dir := t.TempDir()
	eng := durableEng(t, dir, 100)
	r, err := NewDurable(2, eng)
	if err != nil {
		t.Fatal(err)
	}
	batch := &wire.DeltaSync{Origin: 1, FirstSeq: 1, Deltas: []wire.Delta{
		{Seq: 1, Key: "k", Amount: -10},
		{Seq: 2, Key: "k", Amount: -10},
	}}
	if _, err := r.HandleSync(batch); err != nil {
		t.Fatal(err)
	}
	if v, _ := eng.Amount("k"); v != 80 {
		t.Fatalf("value = %d", v)
	}
	eng.Close()

	// Restart; the sender (whose ack was lost) retransmits the same batch.
	eng2 := durableEng(t, dir, 100)
	defer eng2.Close()
	r2, err := NewDurable(2, eng2)
	if err != nil {
		t.Fatal(err)
	}
	if got := r2.AppliedFrom(1); got != 2 {
		t.Fatalf("recovered watermark = %d", got)
	}
	ack, err := r2.HandleSync(batch)
	if err != nil {
		t.Fatal(err)
	}
	if ack.UpTo != 2 {
		t.Fatalf("ack = %+v", ack)
	}
	if v, _ := eng2.Amount("k"); v != 80 {
		t.Fatalf("retransmission double-applied: %d", v)
	}
}

func TestDurableCompactPersistsFloor(t *testing.T) {
	dir := t.TempDir()
	eng := durableEng(t, dir, 1000)
	r, err := NewDurable(1, eng)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		commitDelta(t, eng, r, "k", -1)
	}
	r.HandleAck(2, 4)
	r.Compact([]wire.SiteID{2})
	if r.LogLen() != 2 {
		t.Fatalf("log len = %d", r.LogLen())
	}
	eng.Close()

	eng2 := durableEng(t, dir, 1000)
	defer eng2.Close()
	r2, err := NewDurable(1, eng2)
	if err != nil {
		t.Fatal(err)
	}
	// Floor survived: new sequences continue after the compacted range,
	// so receivers' watermarks stay meaningful.
	if r2.NextSeq() != 7 {
		t.Fatalf("NextSeq after compacted restart = %d", r2.NextSeq())
	}
	pend := r2.PendingFor(3) // never-acked peer gets the retained suffix
	if len(pend) != 2 || pend[0].Seq != 5 {
		t.Fatalf("pending = %+v", pend)
	}
}

func TestDurableFullyCompactedRestartKeepsSeq(t *testing.T) {
	dir := t.TempDir()
	eng := durableEng(t, dir, 1000)
	r, _ := NewDurable(1, eng)
	for i := 0; i < 3; i++ {
		commitDelta(t, eng, r, "k", -1)
	}
	r.HandleAck(2, 3)
	r.Compact([]wire.SiteID{2})
	if r.LogLen() != 0 {
		t.Fatalf("log len = %d", r.LogLen())
	}
	eng.Close()
	eng2 := durableEng(t, dir, 1000)
	defer eng2.Close()
	r2, err := NewDurable(1, eng2)
	if err != nil {
		t.Fatal(err)
	}
	// Without the durable floor this would restart at 1 and receivers
	// would silently drop all future deltas as duplicates.
	if r2.NextSeq() != 4 {
		t.Fatalf("NextSeq = %d, want 4", r2.NextSeq())
	}
}

func TestVolatileCommitWithRecord(t *testing.T) {
	eng := newEng(t, 100)
	r := New(1, eng)
	tm := txn.NewManager(eng, lockmgr.Options{})
	tx := tm.Begin()
	if _, err := tx.ApplyDelta(context.Background(), "k", -7); err != nil {
		t.Fatal(err)
	}
	seq, err := r.CommitWithRecord(tx, "k", -7)
	if err != nil || seq != 1 {
		t.Fatalf("seq=%d err=%v", seq, err)
	}
	if v, _ := eng.Amount("k"); v != 93 {
		t.Fatalf("value = %d", v)
	}
	if len(r.PendingFor(2)) != 1 {
		t.Fatal("log entry missing")
	}
}
