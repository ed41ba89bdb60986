package storage

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
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

func TestBatchCodecRejectsGarbage(t *testing.T) {
	valid := encodeBatch([]Op{DeltaOp("key", 7)})
	for n := 0; n < len(valid); n++ {
		if _, err := decodeBatch(valid[:n]); err == nil {
			t.Fatalf("truncation to %d accepted", n)
		}
	}
	if _, err := decodeBatch(append(valid, 0xFF)); err == nil {
		t.Fatal("trailing byte accepted")
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

			next, fsyncs, commits := e.log.NextLSN(), ws.Fsyncs.Load(), es.Commits.Load()
			if err := e.Apply(); err != nil {
				t.Fatalf("empty batch: %v", err)
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
