package replica

import (
	"testing"

	"avdb/internal/storage"
	"avdb/internal/wire"
)

func newEng2(t *testing.T, a, b int64) *storage.Engine {
	t.Helper()
	e, err := storage.Open(storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	e.Put(storage.Record{Key: "a", Amount: a})
	e.Put(storage.Record{Key: "b", Amount: b})
	return e
}

// With a partition filter, outbound windows carry only the keys the
// peer hosts, and WindowTop covers the filtered-out tail so the peer
// acks the whole window and nothing is retransmitted.
func TestPartitionFilterOutbound(t *testing.T) {
	src := New(1, newEng2(t, 0, 0))
	// Peer 2 hosts only "a".
	src.SetPartitionFilter(func(site wire.SiteID, key string) bool { return key == "a" })
	src.Record("a", -1) // seq 1
	src.Record("b", -2) // seq 2: filtered for peer 2
	src.Record("a", -3) // seq 3
	src.Record("b", -4) // seq 4: filtered, and it is the window's top

	msg := src.PendingSyncFor(2)
	if msg == nil {
		t.Fatal("no pending sync")
	}
	if len(msg.Deltas) != 1 || msg.Deltas[0].Key != "a" || msg.Deltas[0].Amount != -4 {
		t.Fatalf("deltas = %+v, want one coalesced entry for a/-4", msg.Deltas)
	}
	if msg.FirstSeq != 1 || msg.WindowTop != 4 {
		t.Fatalf("window = [%d, top %d], want [1, 4]", msg.FirstSeq, msg.WindowTop)
	}

	dst := New(2, newEng2(t, 100, 100))
	ack, err := dst.HandleSync(msg)
	if err != nil {
		t.Fatal(err)
	}
	if ack.UpTo != 4 {
		t.Fatalf("ack = %d, want 4 (filtered tail acked)", ack.UpTo)
	}
	if n, _ := dst.eng.Amount("a"); n != 96 {
		t.Fatalf("a = %d, want 96", n)
	}
	if n, _ := dst.eng.Amount("b"); n != 100 {
		t.Fatalf("b = %d, want 100 (never sent)", n)
	}
	src.HandleAck(2, ack.UpTo)
	if src.PendingSyncFor(2) != nil {
		t.Fatal("filtered entries retransmitted after full-window ack")
	}
}

// A window whose every entry is filtered still flows and still
// advances the peer's watermark — otherwise the sender's backlog for
// that peer would never drain.
func TestPartitionFilterEmptyWindowAdvances(t *testing.T) {
	src := New(1, newEng2(t, 0, 0))
	src.SetPartitionFilter(func(site wire.SiteID, key string) bool { return site == 1 }) // peer hosts nothing of ours
	src.Record("b", -2)
	src.Record("b", -4)

	msg := src.PendingSyncFor(2)
	if msg == nil {
		t.Fatal("empty-after-filter window must still be sent")
	}
	if len(msg.Deltas) != 0 || msg.FirstSeq != 1 || msg.WindowTop != 2 {
		t.Fatalf("msg = %+v, want empty deltas covering [1, 2]", msg)
	}

	dst := New(2, newEng2(t, 100, 100))
	ack, err := dst.HandleSync(msg)
	if err != nil {
		t.Fatal(err)
	}
	if ack.UpTo != 2 {
		t.Fatalf("ack = %d, want 2", ack.UpTo)
	}
	src.HandleAck(2, ack.UpTo)
	if src.PendingSyncFor(2) != nil {
		t.Fatal("backlog not drained by empty-window ack")
	}
}

// The receiver-side filter is a second line of defense: entries for
// partitions we do not host are acknowledged but never applied, even
// if a sender with a divergent map ships them.
func TestPartitionFilterInboundDefense(t *testing.T) {
	dst := New(2, newEng2(t, 100, 100))
	dst.SetPartitionFilter(func(site wire.SiteID, key string) bool { return key == "a" })

	// Coalesced window mixing hosted and non-hosted keys.
	ack, err := dst.HandleSync(&wire.DeltaSync{Origin: 1, FirstSeq: 1, Deltas: []wire.Delta{
		{Seq: 1, Key: "a", Amount: -5},
		{Seq: 2, Key: "b", Amount: -7},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if ack.UpTo != 2 {
		t.Fatalf("ack = %d, want 2", ack.UpTo)
	}
	// The next window, non-hosted entry first.
	ack, err = dst.HandleSync(&wire.DeltaSync{Origin: 1, FirstSeq: 3, Deltas: []wire.Delta{
		{Seq: 3, Key: "b", Amount: -11},
		{Seq: 4, Key: "a", Amount: -13},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if ack.UpTo != 4 {
		t.Fatalf("ack = %d, want 4", ack.UpTo)
	}
	if n, _ := dst.eng.Amount("a"); n != 82 {
		t.Fatalf("a = %d, want 82", n)
	}
	if n, _ := dst.eng.Amount("b"); n != 100 {
		t.Fatalf("b = %d, want 100 (non-hosted entries applied)", n)
	}
}

// Without a filter, or with one that keeps every entry (full
// replication), WindowTop stays zero and is omitted from the wire.
func TestNoFilterKeepsLegacyEncoding(t *testing.T) {
	src := New(1, newEng2(t, 0, 0))
	src.Record("a", -1)
	src.Record("b", -2)
	if msg := src.PendingSyncFor(2); msg.WindowTop != 0 {
		t.Fatalf("WindowTop = %d, want 0 without a filter", msg.WindowTop)
	}
	src.SetPartitionFilter(func(wire.SiteID, string) bool { return true })
	if msg := src.PendingSyncFor(2); msg.WindowTop != 0 {
		t.Fatalf("WindowTop = %d, want 0 when nothing is filtered", msg.WindowTop)
	}
}
