package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"avdb/internal/epoch"
	"avdb/internal/rng"
	"avdb/internal/wal"
)

func memEngine(t *testing.T) *Engine {
	t.Helper()
	e, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

func diskEngine(t *testing.T, dir string) *Engine {
	t.Helper()
	e, err := Open(Options{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestPutGet(t *testing.T) {
	e := memEngine(t)
	rec := Record{Key: "p1", Name: "Widget", Amount: 100, Class: Regular}
	if err := e.Put(rec); err != nil {
		t.Fatal(err)
	}
	got, err := e.Get("p1")
	if err != nil {
		t.Fatal(err)
	}
	if got != rec {
		t.Fatalf("got %+v, want %+v", got, rec)
	}
}

func TestGetMissing(t *testing.T) {
	e := memEngine(t)
	if _, err := e.Get("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestApplyDelta(t *testing.T) {
	e := memEngine(t)
	e.Put(Record{Key: "p", Amount: 50})
	n, err := e.ApplyDelta("p", -20)
	if err != nil {
		t.Fatal(err)
	}
	if n != 30 {
		t.Fatalf("amount = %d, want 30", n)
	}
	n, _ = e.ApplyDelta("p", 100)
	if n != 130 {
		t.Fatalf("amount = %d, want 130", n)
	}
	if _, err := e.ApplyDelta("ghost", 1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("delta to missing key: %v", err)
	}
}

func TestDelete(t *testing.T) {
	e := memEngine(t)
	e.Put(Record{Key: "p", Amount: 1})
	if err := e.Delete("p"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Get("p"); !errors.Is(err, ErrNotFound) {
		t.Fatal("record survived delete")
	}
	if err := e.Delete("p"); err != nil {
		t.Fatalf("deleting absent key: %v", err)
	}
}

func TestBatchAtomicValidation(t *testing.T) {
	e := memEngine(t)
	e.Put(Record{Key: "a", Amount: 10})
	err := e.Apply(
		DeltaOp("a", 5),
		DeltaOp("missing", 1), // invalid: whole batch must be rejected
	)
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
	if n, _ := e.Amount("a"); n != 10 {
		t.Fatalf("partial batch applied: amount = %d", n)
	}
}

func TestBatchPutThenDeltaSameKey(t *testing.T) {
	e := memEngine(t)
	err := e.Apply(
		PutOp(Record{Key: "new", Amount: 100}),
		DeltaOp("new", -30),
	)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := e.Amount("new"); n != 70 {
		t.Fatalf("amount = %d, want 70", n)
	}
}

func TestBatchDeleteThenDeltaRejected(t *testing.T) {
	e := memEngine(t)
	e.Put(Record{Key: "k", Amount: 5})
	if err := e.Apply(DeleteOp("k"), DeltaOp("k", 1)); err == nil {
		t.Fatal("delta after delete in batch accepted")
	}
}

func TestScanOrdered(t *testing.T) {
	e := memEngine(t)
	for i := 9; i >= 0; i-- {
		e.Put(Record{Key: fmt.Sprintf("p%d", i), Amount: int64(i)})
	}
	var keys []string
	if err := e.Scan(func(r Record) bool { keys = append(keys, r.Key); return true }); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 10 || keys[0] != "p0" || keys[9] != "p9" {
		t.Fatalf("scan keys = %v", keys)
	}
	if e.Len() != 10 {
		t.Fatalf("Len = %d", e.Len())
	}
}

func TestRecoveryFromWAL(t *testing.T) {
	dir := t.TempDir()
	e := diskEngine(t, dir)
	e.Put(Record{Key: "p1", Name: "Gadget", Amount: 100, Class: NonRegular})
	e.ApplyDelta("p1", -30)
	e.Put(Record{Key: "p2", Amount: 7})
	e.Delete("p2")
	e.Close()

	e2 := diskEngine(t, dir)
	defer e2.Close()
	rec, err := e2.Get("p1")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Amount != 70 || rec.Name != "Gadget" || rec.Class != NonRegular {
		t.Fatalf("recovered record %+v", rec)
	}
	if _, err := e2.Get("p2"); !errors.Is(err, ErrNotFound) {
		t.Fatal("deleted record resurrected by recovery")
	}
}

func TestRecoveryWithCheckpoint(t *testing.T) {
	dir := t.TempDir()
	e := diskEngine(t, dir)
	for i := 0; i < 100; i++ {
		e.Put(Record{Key: fmt.Sprintf("p%03d", i), Amount: int64(i)})
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint mutations land in the WAL only.
	e.ApplyDelta("p050", 1000)
	e.Delete("p099")
	e.Close()

	e2 := diskEngine(t, dir)
	defer e2.Close()
	if n, _ := e2.Amount("p050"); n != 1050 {
		t.Fatalf("p050 = %d, want 1050", n)
	}
	if _, err := e2.Get("p099"); !errors.Is(err, ErrNotFound) {
		t.Fatal("p099 survived")
	}
	if e2.Len() != 99 {
		t.Fatalf("Len = %d, want 99", e2.Len())
	}
}

func TestCheckpointIsNotReplayedTwice(t *testing.T) {
	// Deltas are not idempotent: if the snapshot boundary were wrong,
	// recovery would double-apply. Checkpoint then reopen repeatedly.
	dir := t.TempDir()
	e := diskEngine(t, dir)
	e.Put(Record{Key: "k", Amount: 0})
	for round := 0; round < 5; round++ {
		e.ApplyDelta("k", 10)
		if err := e.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		e.ApplyDelta("k", 1)
		e.Close()
		e = diskEngine(t, dir)
		want := int64((round + 1) * 11)
		if n, _ := e.Amount("k"); n != want {
			t.Fatalf("round %d: amount = %d, want %d", round, n, want)
		}
	}
	e.Close()
}

func TestSnapshotCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	e := diskEngine(t, dir)
	e.Put(Record{Key: "k", Amount: 5})
	e.Checkpoint()
	e.Close()
	path := filepath.Join(dir, snapshotName)
	data, _ := os.ReadFile(path)
	data[len(data)-1] ^= 0x01
	os.WriteFile(path, data, 0o644)
	if _, err := Open(Options{Dir: dir}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt snapshot opened: %v", err)
	}
}

func TestClosedEngineRejects(t *testing.T) {
	e, _ := Open(Options{})
	e.Close()
	if err := e.Put(Record{Key: "k"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Put after close: %v", err)
	}
	if _, err := e.Get("k"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Get after close: %v", err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestValueCodecRoundTrip(t *testing.T) {
	f := func(key, name string, amount int64, classBit bool) bool {
		class := Regular
		if classBit {
			class = NonRegular
		}
		in := Record{Key: key, Name: name, Amount: amount, Class: class}
		var out Record
		if err := decodeValue(key, encodeValue(&in), &out); err != nil {
			return false
		}
		return reflect.DeepEqual(in, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestBatchCodecRoundTrip(t *testing.T) {
	ops := []Op{
		PutOp(Record{Key: "a", Name: "A", Amount: -5, Class: NonRegular}),
		DeltaOp("b", 12345),
		DeleteOp("c"),
		DeltaOp("", -1),
		MetaAddOp("av/b", -9),
	}
	got, err := decodeBatch(encodeBatch(ops))
	if err != nil {
		t.Fatal(err)
	}
	// PutOp normalizes Rec.Key on apply, compare field-wise.
	if len(got) != len(ops) {
		t.Fatalf("len = %d", len(got))
	}
	for i := range ops {
		if got[i].Kind != ops[i].Kind || got[i].Key != ops[i].Key || got[i].Delta != ops[i].Delta {
			t.Fatalf("op %d: %+v != %+v", i, got[i], ops[i])
		}
	}
	if got[0].Rec.Name != "A" || got[0].Rec.Amount != -5 {
		t.Fatalf("put rec = %+v", got[0].Rec)
	}
}

// Batches as encodeBatch wrote them before keys were shared: every key
// spelled out in full. A WAL of such records must keep replaying.
var (
	// A three-entry replicated window and its repl/applied/ watermark.
	unsharedWindow = []byte{0x04,
		0x03, 0x0c, 0x70, 0x72, 0x6f, 0x64, 0x75, 0x63, 0x74, 0x2d, 0x30, 0x30, 0x30, 0x37, 0x03,
		0x03, 0x0c, 0x70, 0x72, 0x6f, 0x64, 0x75, 0x63, 0x74, 0x2d, 0x30, 0x30, 0x31, 0x32, 0x0a,
		0x03, 0x0c, 0x70, 0x72, 0x6f, 0x64, 0x75, 0x63, 0x74, 0x2d, 0x30, 0x30, 0x31, 0x30, 0x01,
		0x04, 0x0e, 0x72, 0x65, 0x70, 0x6c, 0x2f, 0x61, 0x70, 0x70, 0x6c, 0x69, 0x65, 0x64, 0x2f, 0x31, 0x01, 0x03}
	// A Delay Update's one balanced delta.
	unsharedBalanced = []byte{0x01,
		0x08, 0x0c, 0x70, 0x72, 0x6f, 0x64, 0x75, 0x63, 0x74, 0x2d, 0x30, 0x30, 0x30, 0x31, 0x05, 0x2a}
	// A transfer-funded Delay Update: a logged delta beside its balance change.
	unsharedLogged = []byte{0x02,
		0x07, 0x0c, 0x70, 0x72, 0x6f, 0x64, 0x75, 0x63, 0x74, 0x2d, 0x30, 0x30, 0x30, 0x31, 0x8f, 0x03, 0x2b,
		0x06, 0x0f, 0x61, 0x76, 0x2f, 0x70, 0x72, 0x6f, 0x64, 0x75, 0x63, 0x74, 0x2d, 0x30, 0x30, 0x30, 0x31, 0xc7, 0x01}
)

// TestUnsharedKeyBatchesStillDecode: records written before keys were
// shared decode to the ops they were written from, and those ops encode
// to the bytes pinned here: a one-op batch and a batch whose
// neighbouring keys share under 2 bytes exactly as before, the window
// with each key after the first flagged (0x80) and written as a suffix.
func TestUnsharedKeyBatchesStillDecode(t *testing.T) {
	for _, tc := range []struct {
		name    string
		payload []byte
		ops     []Op
		now     []byte // the current encoding; nil when it is payload
	}{
		{"window", unsharedWindow, []Op{DeltaOp("product-0007", -2), DeltaOp("product-0012", 5),
			DeltaOp("product-0010", -1), MetaPutOp("repl/applied/1", []byte{3})}, []byte{0x04,
			0x03, 0x0c, 'p', 'r', 'o', 'd', 'u', 'c', 't', '-', '0', '0', '0', '7', 0x03,
			0x83, 0x0a, 0x02, '1', '2', 0x0a, // shares "product-00"
			0x83, 0x0b, 0x01, '0', 0x01, // shares "product-001"
			0x04, 0x0e, 'r', 'e', 'p', 'l', '/', 'a', 'p', 'p', 'l', 'i', 'e', 'd', '/', '1', 0x01, 0x03}},
		{"balanced delta", unsharedBalanced, []Op{BalancedDeltaOp("product-0001", -3, 42)}, nil},
		{"logged delta and balance", unsharedLogged, []Op{LoggedDeltaOp("product-0001", -200, 43),
			MetaAddOp("av/product-0001", -100)}, nil},
	} {
		got, err := decodeBatch(tc.payload)
		if err != nil || !reflect.DeepEqual(got, tc.ops) {
			t.Fatalf("%s: decoded %+v, %v; want %+v", tc.name, got, err, tc.ops)
		}
		now := tc.now
		if now == nil {
			now = tc.payload
		}
		if re := encodeBatch(tc.ops); !bytes.Equal(re, now) {
			t.Fatalf("%s: encodes to %x, want %x", tc.name, re, now)
		}
		if got, err := decodeBatch(now); err != nil || !reflect.DeepEqual(got, tc.ops) {
			t.Fatalf("%s: current encoding decoded %+v, %v", tc.name, got, err)
		}
	}
}

// TestQuickBatchCodecRoundTrip: a batch of well-formed ops of every kind
// decodes back to exactly those ops, every field its kind carries — a
// logged or balanced delta's replication sequence included.
func TestQuickBatchCodecRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		ops := make([]Op, r.Intn(8))
		for i := range ops {
			key := fmt.Sprintf("k%d", r.Intn(1000))
			delta := r.Range(-1<<40, 1<<40)
			switch OpKind(1 + r.Intn(int(OpBalancedDelta))) {
			case OpPut:
				ops[i] = PutOp(Record{Key: key, Name: "n" + key, Amount: delta, Class: Class(r.Intn(2))})
			case OpDelete:
				ops[i] = DeleteOp(key)
			case OpDelta:
				ops[i] = DeltaOp(key, delta)
			case OpMetaPut:
				ops[i] = MetaPutOp(key, []byte(key))
			case OpMetaDelete:
				ops[i] = MetaDeleteOp(key)
			case OpMetaAdd:
				ops[i] = MetaAddOp(key, delta)
			case OpLoggedDelta:
				ops[i] = LoggedDeltaOp(key, delta, r.Uint64())
			case OpBalancedDelta:
				ops[i] = BalancedDeltaOp(key, delta, r.Uint64())
			}
		}
		got, err := decodeBatch(encodeBatch(ops))
		return err == nil && reflect.DeepEqual(got, ops)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestLogKeyFormat: LogKey spells the sequence zero-padded to 20 digits
// exactly as the fmt-built keys of older WALs and snapshots did, so
// their log rows keep their names and order; ParseLogRow reads it back;
// and the stripe hashes over a row spelled in place match the stripe of
// the row's name.
func TestLogKeyFormat(t *testing.T) {
	for _, seq := range []uint64{0, 1, 1e19, math.MaxUint64} {
		k := LogKey(seq)
		if old := fmt.Sprintf("%s%020d", LogPrefix, seq); k != old {
			t.Fatalf("LogKey(%d) = %q, want %q", seq, k, old)
		}
		got, key, delta, err := ParseLogRow(k, encodeLogValue("product-0001", -7))
		if err != nil || got != seq || key != "product-0001" || delta != -7 {
			t.Fatalf("ParseLogRow(LogKey(%d)) = %d %q %d %v", seq, got, key, delta, err)
		}
		if row := logRow(seq); stripeOf(row[:]) != stripeOf(MetaPrefix+k) {
			t.Fatalf("seq %d: log row stripe %d, want %d", seq, stripeOf(row[:]), stripeOf(MetaPrefix+k))
		}
	}
	for _, key := range []string{"", "k", "product-0001", "αβ"} {
		if got, want := balanceStripe(key), stripeOf(MetaPrefix+BalanceKey(key)); got != want {
			t.Fatalf("balanceStripe(%q) = %d, want %d", key, got, want)
		}
	}
}

// TestBalancedDeltaIsLoggedDeltaPlusBalance: an OpBalancedDelta leaves
// the table, live and recovered, exactly as the OpLoggedDelta plus
// OpMetaAdd of BalanceKey it replaces does — the stock, the log row and
// the balance row — and a missing row refuses it whole.
func TestBalancedDeltaIsLoggedDeltaPlusBalance(t *testing.T) {
	dump := func(e *Engine) string {
		t.Helper()
		var b strings.Builder
		e.Scan(func(r Record) bool { fmt.Fprintf(&b, "%s=%d ", r.Key, r.Amount); return true })
		e.ScanMeta("", func(k string, v []byte) bool { fmt.Fprintf(&b, "%q=%x ", k, v); return true })
		return b.String()
	}
	build := func(dir string, batches [][]Op) *Engine {
		e := diskEngine(t, dir)
		if err := e.Apply(PutOp(Record{Key: "k", Amount: 10}), MetaAddOp(BalanceKey("k"), 10)); err != nil {
			t.Fatal(err)
		}
		for _, ops := range batches {
			if err := e.Apply(ops...); err != nil {
				t.Fatal(err)
			}
		}
		return e
	}
	oldDir, newDir := t.TempDir(), t.TempDir()
	old := build(oldDir, [][]Op{
		{LoggedDeltaOp("k", -3, 7), MetaAddOp(BalanceKey("k"), -3)},
		{LoggedDeltaOp("k", 5, 8), MetaAddOp(BalanceKey("k"), 5)},
	})
	cur := build(newDir, [][]Op{{BalancedDeltaOp("k", -3, 7)}, {BalancedDeltaOp("k", 5, 8)}})
	if err := cur.Apply(BalancedDeltaOp("ghost", -3, 9)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("balanced delta to a missing row: err = %v, want ErrNotFound", err)
	}
	want := dump(old)
	if !strings.Contains(want, `"av/k"=18`) || !strings.Contains(want, "k=12") {
		t.Fatalf("reference table %s lacks stock 12 and balance 12", want)
	}
	if got := dump(cur); got != want {
		t.Fatalf("live: %s, want %s", got, want)
	}
	old.Close()
	cur.Close()
	cur = diskEngine(t, newDir)
	defer cur.Close()
	if got := dump(cur); got != want {
		t.Fatalf("recovered: %s, want %s", got, want)
	}
}

// TestLoggedDeltaWritesTheLogRow: applying an OpLoggedDelta adds its
// delta to the row and writes the replication log row an OpMetaPut of
// LogKey(seq) would, through recovery and a checkpoint alike.
func TestLoggedDeltaWritesTheLogRow(t *testing.T) {
	dir := t.TempDir()
	e := diskEngine(t, dir)
	if err := e.Put(Record{Key: "k", Amount: 10}); err != nil {
		t.Fatal(err)
	}
	if err := e.Apply(LoggedDeltaOp("k", -3, 7)); err != nil {
		t.Fatal(err)
	}
	if err := e.Apply(LoggedDeltaOp("ghost", -3, 8)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("logged delta to a missing row: err = %v, want ErrNotFound", err)
	}
	check := func(e *Engine, when string) {
		t.Helper()
		var rows []string
		e.ScanMeta(LogPrefix, func(k string, v []byte) bool {
			seq, key, delta, err := ParseLogRow(k, v)
			rows = append(rows, fmt.Sprintf("%d %s %d %v", seq, key, delta, err))
			return true
		})
		if v, _ := e.Amount("k"); v != 7 || len(rows) != 1 || rows[0] != "7 k -3 <nil>" || e.Len() != 1 {
			t.Fatalf("%s: amount %d, log rows %q, len %d", when, v, rows, e.Len())
		}
	}
	check(e, "live")
	e.Close()
	e = diskEngine(t, dir)
	check(e, "recovered")
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	e.Close()
	e = diskEngine(t, dir)
	defer e.Close()
	check(e, "from snapshot")
}

func TestBatchCodecRejectsGarbage(t *testing.T) {
	valid := encodeBatch([]Op{DeltaOp("key1", 7), DeltaOp("key2", -7)})
	for n := 0; n < len(valid); n++ {
		if _, err := decodeBatch(valid[:n]); err == nil {
			t.Fatalf("truncation to %d accepted", n)
		}
	}
	if _, err := decodeBatch(append(valid, 0xFF)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	for name, payload := range map[string][]byte{
		"first op shares a key":    {0x01, 0x83, 0x00, 0x01, 'k', 0x02},
		"shares past the prev key": {0x02, 0x03, 0x01, 'k', 0x02, 0x83, 0x02, 0x01, 'x', 0x02},
		"shares an unknown kind":   {0x02, 0x03, 0x01, 'k', 0x02, 0x89, 0x01, 0x00},
	} {
		if _, err := decodeBatch(payload); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err %v, want ErrCorrupt", name, err)
		}
	}
}

// TestQuickRecoveryEqualsLiveState drives random op sequences against a
// disk engine, crashes (close) at a random point, reopens, and verifies
// the recovered state matches a shadow map.
func TestQuickRecoveryEqualsLiveState(t *testing.T) {
	f := func(seed uint64) bool {
		dir, err := os.MkdirTemp("", "storq")
		if err != nil {
			return false
		}
		defer os.RemoveAll(dir)
		e, err := Open(Options{Dir: dir, NoSync: true, SegmentMaxBytes: 256})
		if err != nil {
			return false
		}
		r := rng.New(seed)
		shadow := map[string]int64{}
		for i := 0; i < 300; i++ {
			k := fmt.Sprintf("k%02d", r.Intn(20))
			switch r.Intn(4) {
			case 0:
				amt := r.Range(0, 1000)
				e.Put(Record{Key: k, Amount: amt})
				shadow[k] = amt
			case 1:
				if _, ok := shadow[k]; ok {
					d := r.Range(-50, 50)
					e.ApplyDelta(k, d)
					shadow[k] += d
				}
			case 2:
				e.Delete(k)
				delete(shadow, k)
			case 3:
				if r.Bool(0.2) {
					if err := e.Checkpoint(); err != nil {
						return false
					}
				}
			}
		}
		e.Close()
		e2, err := Open(Options{Dir: dir})
		if err != nil {
			return false
		}
		defer e2.Close()
		if e2.Len() != len(shadow) {
			return false
		}
		for k, want := range shadow {
			if got, err := e2.Amount(k); err != nil || got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkApplyDeltaMemory(b *testing.B) {
	e, _ := Open(Options{})
	defer e.Close()
	e.Put(Record{Key: "k", Amount: 0})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.ApplyDelta("k", 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkApplyDeltaWAL(b *testing.B) {
	e, err := Open(Options{Dir: b.TempDir(), NoSync: true})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	e.Put(Record{Key: "k", Amount: 0})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.ApplyDelta("k", 1); err != nil {
			b.Fatal(err)
		}
	}
}

func TestMetaPutGetDelete(t *testing.T) {
	e := memEngine(t)
	if err := e.Apply(MetaPutOp("repl/applied/1", []byte{7})); err != nil {
		t.Fatal(err)
	}
	v, ok, err := e.GetMeta("repl/applied/1")
	if err != nil || !ok || len(v) != 1 || v[0] != 7 {
		t.Fatalf("meta = %v %v %v", v, ok, err)
	}
	if _, ok, _ := e.GetMeta("missing"); ok {
		t.Fatal("missing meta found")
	}
	if err := e.Apply(MetaDeleteOp("repl/applied/1")); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := e.GetMeta("repl/applied/1"); ok {
		t.Fatal("meta survived delete")
	}
}

func TestMetaInvisibleToUserAPI(t *testing.T) {
	e := memEngine(t)
	e.Put(Record{Key: "user", Amount: 1})
	e.Apply(MetaPutOp("m1", []byte("x")), MetaPutOp("m2", []byte("y")))
	if e.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (meta excluded)", e.Len())
	}
	var keys []string
	e.Scan(func(r Record) bool { keys = append(keys, r.Key); return true })
	if len(keys) != 1 || keys[0] != "user" {
		t.Fatalf("scan = %v", keys)
	}
	// Overwrite does not double-count.
	e.Apply(MetaPutOp("m1", []byte("z")))
	if e.Len() != 1 {
		t.Fatalf("Len after meta overwrite = %d", e.Len())
	}
}

func TestMetaScanPrefix(t *testing.T) {
	e := memEngine(t)
	e.Apply(
		MetaPutOp("log/00001", []byte("a")),
		MetaPutOp("log/00002", []byte("b")),
		MetaPutOp("other/x", []byte("c")),
	)
	var got []string
	e.ScanMeta("log/", func(k string, v []byte) bool {
		got = append(got, k+"="+string(v))
		return true
	})
	if len(got) != 2 || got[0] != "log/00001=a" || got[1] != "log/00002=b" {
		t.Fatalf("scanMeta = %v", got)
	}
}

func TestMetaAtomicWithData(t *testing.T) {
	// A batch mixing a delta and a watermark either fully applies or not.
	e := memEngine(t)
	e.Put(Record{Key: "k", Amount: 100})
	if err := e.Apply(DeltaOp("k", -10), MetaPutOp("wm", []byte{1})); err != nil {
		t.Fatal(err)
	}
	if n, _ := e.Amount("k"); n != 90 {
		t.Fatalf("amount = %d", n)
	}
	if _, ok, _ := e.GetMeta("wm"); !ok {
		t.Fatal("watermark missing")
	}
	// Invalid batch: neither the delta nor the meta lands.
	err := e.Apply(DeltaOp("ghost", 1), MetaPutOp("wm2", []byte{2}))
	if err == nil {
		t.Fatal("bad batch accepted")
	}
	if _, ok, _ := e.GetMeta("wm2"); ok {
		t.Fatal("meta from rejected batch applied")
	}
}

func TestMetaSurvivesRecoveryAndCheckpoint(t *testing.T) {
	dir := t.TempDir()
	e := diskEngine(t, dir)
	e.Put(Record{Key: "k", Amount: 5})
	e.Apply(MetaPutOp("wm", []byte{42}))
	e.Checkpoint()
	e.Apply(MetaPutOp("wm2", []byte{43}))
	e.Close()
	e2 := diskEngine(t, dir)
	defer e2.Close()
	if v, ok, _ := e2.GetMeta("wm"); !ok || v[0] != 42 {
		t.Fatalf("wm = %v %v", v, ok)
	}
	if v, ok, _ := e2.GetMeta("wm2"); !ok || v[0] != 43 {
		t.Fatalf("wm2 = %v %v", v, ok)
	}
	if e2.Len() != 1 {
		t.Fatalf("Len = %d after recovery (meta leaked into count)", e2.Len())
	}
}

// TestMetaAddAcrossRecoveryAndCheckpoint: an OpMetaAdd row is created
// by its first add (even of 0), sums every later add, and is applied
// exactly once whether it arrives by snapshot or by replay.
func TestMetaAddAcrossRecoveryAndCheckpoint(t *testing.T) {
	dir := t.TempDir()
	e := diskEngine(t, dir)
	if err := e.Apply(MetaAddOp("zero", 0), MetaAddOp("n", 100)); err != nil {
		t.Fatal(err)
	}
	e.Apply(MetaAddOp("n", -30))
	e.Checkpoint()
	e.Apply(MetaAddOp("n", 5))
	e.Close()
	e2 := diskEngine(t, dir)
	defer e2.Close()
	for key, want := range map[string]int64{"zero": 0, "n": 75} {
		v, ok, err := e2.GetMeta(key)
		if got, _ := binary.Varint(v); err != nil || !ok || got != want {
			t.Fatalf("%s = %d (present %v, err %v), want %d", key, got, ok, err, want)
		}
	}
	if e2.Len() != 0 {
		t.Fatalf("Len = %d: meta rows leaked into the user count", e2.Len())
	}
}

func TestUserKeyCannotEnterMetaNamespace(t *testing.T) {
	e := memEngine(t)
	if err := e.Put(Record{Key: MetaPrefix + "sneaky", Amount: 1}); err == nil {
		t.Fatal("user row in meta namespace accepted")
	}
}

func TestApplyObserverSeesEveryBatchWithDenseLSNs(t *testing.T) {
	e := memEngine(t)
	var got []uint64
	var opCounts []int
	e.SetApplyObserver(func(lsn uint64, ops []Op) {
		got = append(got, lsn)
		opCounts = append(opCounts, len(ops))
	})
	if err := e.Put(Record{Key: "a", Amount: 1}); err != nil {
		t.Fatal(err)
	}
	if err := e.Apply(DeltaOp("a", 2), MetaPutOp("wm", []byte{1})); err != nil {
		t.Fatal(err)
	}
	if err := e.Apply(MetaPutOp("wm", []byte{2})); err != nil {
		t.Fatal(err)
	}
	want := []uint64{1, 2, 3}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("observer LSNs = %v, want %v", got, want)
	}
	if !reflect.DeepEqual(opCounts, []int{1, 2, 1}) {
		t.Fatalf("observer op counts = %v", opCounts)
	}
	if e.LastLSN() != 3 {
		t.Fatalf("LastLSN = %d, want 3", e.LastLSN())
	}
}

func TestLastLSNSurvivesRecovery(t *testing.T) {
	dir := t.TempDir()
	e := diskEngine(t, dir)
	for i := 0; i < 5; i++ {
		if err := e.Put(Record{Key: fmt.Sprintf("k%d", i), Amount: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	last := e.LastLSN()
	if last != 5 {
		t.Fatalf("LastLSN = %d, want 5", last)
	}
	e.Close()
	e2 := diskEngine(t, dir)
	defer e2.Close()
	if e2.LastLSN() != last {
		t.Fatalf("LastLSN after recovery = %d, want %d", e2.LastLSN(), last)
	}
	// New batches continue the same sequence.
	if err := e2.Put(Record{Key: "k5", Amount: 5}); err != nil {
		t.Fatal(err)
	}
	if e2.LastLSN() != last+1 {
		t.Fatalf("LastLSN after new batch = %d, want %d", e2.LastLSN(), last+1)
	}
}

func TestSnapshotAmountsConsistentPair(t *testing.T) {
	e := memEngine(t)
	if err := e.Put(Record{Key: "a", Amount: 10}); err != nil {
		t.Fatal(err)
	}
	if err := e.Apply(PutOp(Record{Key: "b", Amount: 20}), MetaPutOp("wm", []byte{1})); err != nil {
		t.Fatal(err)
	}
	amounts, lsn, err := e.SnapshotAmounts()
	if err != nil {
		t.Fatal(err)
	}
	if lsn != e.LastLSN() {
		t.Fatalf("snapshot lsn = %d, engine lsn = %d", lsn, e.LastLSN())
	}
	want := map[string]int64{"a": 10, "b": 20}
	if !reflect.DeepEqual(amounts, want) {
		t.Fatalf("amounts = %v, want %v (meta rows must be excluded)", amounts, want)
	}
}

// TestApplyDurableBeforeAck pins Apply's contract on a durable engine,
// with the wait joining a group commit and riding an epoch: a batch is
// on stable storage when Apply returns; an empty batch and one that
// fails validation log nothing and wait on nothing.
func TestApplyDurableBeforeAck(t *testing.T) {
	for _, tc := range []struct {
		name  string
		epoch time.Duration
	}{{"group commit", 0}, {"epochs", 200 * time.Microsecond}} {
		t.Run(tc.name, func(t *testing.T) {
			ws, es := &wal.Stats{}, &epoch.Stats{}
			e, err := Open(Options{Dir: t.TempDir(), Stats: ws, EpochInterval: tc.epoch, EpochStats: es})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			for i := 0; i < 5; i++ {
				if err := e.Apply(PutOp(Record{Key: "a", Amount: int64(i)})); err != nil {
					t.Fatal(err)
				}
				if d, lsn := e.log.DurableLSN(), e.LastLSN(); d < lsn {
					t.Fatalf("Apply returned with durable LSN %d < its record %d", d, lsn)
				}
			}
			if (es.Commits.Load() == 5) != (tc.epoch > 0) {
				t.Fatalf("%d commits rode an epoch", es.Commits.Load())
			}
			// ApplyDirect syncs its record itself and never joins an epoch.
			commits := es.Commits.Load()
			if err := e.ApplyDirect(MetaAddOp("n", 1)); err != nil {
				t.Fatal(err)
			}
			if d, lsn := e.log.DurableLSN(), e.LastLSN(); d < lsn || es.Commits.Load() != commits {
				t.Fatalf("ApplyDirect: durable LSN %d, record %d, epoch commits %d→%d", d, lsn, commits, es.Commits.Load())
			}

			next, fsyncs, commits := e.log.NextLSN(), ws.Fsyncs.Load(), es.Commits.Load()
			if err := e.Apply(); err != nil {
				t.Fatalf("empty batch: %v", err)
			}
			if err := e.ApplyDirect(); err != nil {
				t.Fatalf("empty direct batch: %v", err)
			}
			if err := e.Apply(DeltaOp("a", 1), DeltaOp("missing", 1)); !errors.Is(err, ErrNotFound) {
				t.Fatalf("invalid batch: err = %v, want ErrNotFound", err)
			}
			if n, f, c := e.log.NextLSN(), ws.Fsyncs.Load(), es.Commits.Load(); n != next || f != fsyncs || c != commits {
				t.Fatalf("no-op batches moved the log: next LSN %d→%d, fsyncs %d→%d, epoch commits %d→%d",
					next, n, fsyncs, f, commits, c)
			}
		})
	}
}

// stampWorkload runs writers that each decrement a key of their own,
// on a stripe of its own, while readers sample, and records every
// batch's LSN per key through the apply observer (which runs under the
// batch's stripe locks, so each key's list is written by one stripe at
// a time). sample is called by the readers until the writers are done;
// the returned lists are complete once stampWorkload returns.
func stampWorkload(t *testing.T, e *Engine, sample func(keys []string)) (initial int64, lsns map[string]*[]uint64) {
	const (
		writers = 4
		iters   = 400
		readers = 2
	)
	initial = 1 << 20
	var keys []string
	used := map[int]bool{}
	for i := 0; len(keys) < writers; i++ {
		k := fmt.Sprintf("stamp-%d", i)
		if !used[stripeOf(k)] {
			used[stripeOf(k)] = true
			keys = append(keys, k)
		}
	}
	lsns = make(map[string]*[]uint64, len(keys))
	for _, k := range keys {
		if err := e.Put(Record{Key: k, Amount: initial}); err != nil {
			t.Fatal(err)
		}
		lsns[k] = new([]uint64)
	}
	e.SetApplyObserver(func(lsn uint64, ops []Op) {
		l := lsns[ops[0].Key]
		*l = append(*l, lsn)
	})
	done := make(chan struct{})
	var rd, wr sync.WaitGroup
	for r := 0; r < readers; r++ {
		rd.Add(1)
		go func() {
			defer rd.Done()
			for {
				select {
				case <-done:
					return
				default:
					sample(keys)
				}
			}
		}()
	}
	for _, k := range keys {
		wr.Add(1)
		go func() {
			defer wr.Done()
			for i := 0; i < iters; i++ {
				if _, err := e.ApplyDelta(k, -1); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wr.Wait()
	close(done)
	rd.Wait()
	return initial, lsns
}

// upTo counts the LSNs in lsns at or below l.
func upTo(lsns []uint64, l uint64) (n int64) {
	for _, x := range lsns {
		if x <= l {
			n++
		}
	}
	return n
}

// stampEngines runs fn on an in-memory engine (LSNs from lastLSN.Add)
// and on a durable one (LSNs from the WAL, published by max-CAS, so
// batches on disjoint stripes can publish out of order).
func stampEngines(t *testing.T, fn func(t *testing.T, e *Engine)) {
	t.Run("memory", func(t *testing.T) { fn(t, memEngine(t)) })
	t.Run("durable", func(t *testing.T) {
		e := diskEngine(t, t.TempDir())
		t.Cleanup(func() { e.Close() })
		fn(t, e)
	})
}

// A per-key read stamped L shows every batch with LSN <= L that touched
// the key: the key's amount has moved by at least that many decrements.
func TestStampPerKeyReadCoversEveryBatchAtOrBelow(t *testing.T) {
	stampEngines(t, func(t *testing.T, e *Engine) {
		type read struct {
			key    string
			amount int64
			stamp  uint64
		}
		var mu sync.Mutex
		var reads []read
		initial, lsns := stampWorkload(t, e, func(keys []string) {
			for _, k := range keys {
				amount, found, stamp, err := e.StampedAmount(k)
				if err != nil || !found {
					t.Errorf("%s: found %v, err %v", k, found, err)
					return
				}
				mu.Lock()
				reads = append(reads, read{k, amount, stamp})
				mu.Unlock()
			}
		})
		for _, r := range reads {
			if applied, want := initial-r.amount, upTo(*lsns[r.key], r.stamp); applied < want {
				t.Fatalf("%s read at stamp %d shows %d batches, %d of its batches have LSN <= the stamp", r.key, r.stamp, applied, want)
			}
		}
		if _, found, stamp, err := e.StampedAmount("absent"); err != nil || found || stamp != e.LastLSN() {
			t.Fatalf("absent key: found %v, stamp %d (engine %d), err %v", found, stamp, e.LastLSN(), err)
		}
		t.Logf("%d stamped reads checked", len(reads))
	})
}

// SnapshotAmounts' cursor is a contiguous watermark: for every key the
// snapshot holds exactly the batches with LSN <= the cursor, no more.
func TestStampSnapshotCursorIsContiguous(t *testing.T) {
	stampEngines(t, func(t *testing.T, e *Engine) {
		type snap struct {
			amounts map[string]int64
			cursor  uint64
		}
		var mu sync.Mutex
		var snaps []snap
		initial, lsns := stampWorkload(t, e, func([]string) {
			amounts, cursor, err := e.SnapshotAmounts()
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			snaps = append(snaps, snap{amounts, cursor})
			mu.Unlock()
		})
		for _, s := range snaps {
			for k, l := range lsns {
				if applied, want := initial-s.amounts[k], upTo(*l, s.cursor); applied != want {
					t.Fatalf("%s in the snapshot at cursor %d shows %d batches, want exactly the %d at or below it", k, s.cursor, applied, want)
				}
			}
		}
		t.Logf("%d snapshots checked", len(snaps))
	})
}
