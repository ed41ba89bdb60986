package eventlog

import (
	"strings"
	"sync"
	"testing"
)

func TestAppendAndSnapshot(t *testing.T) {
	l := New(16)
	for i := 0; i < 3; i++ {
		l.Appendf(1, "update.delay", "k", "delta=%d", -i)
	}
	snap := l.Snapshot()
	if len(snap) != 3 || l.Len() != 3 || l.Total() != 3 {
		t.Fatalf("len=%d total=%d", l.Len(), l.Total())
	}
	if snap[0].Detail != "delta=0" || snap[2].Detail != "delta=-2" {
		t.Fatalf("snapshot order: %+v", snap)
	}
	if snap[0].Time.IsZero() {
		t.Fatal("timestamp not stamped")
	}
}

func TestRingEviction(t *testing.T) {
	l := New(16)
	for i := 0; i < 40; i++ {
		l.Appendf(0, "e", "k", "%d", i)
	}
	snap := l.Snapshot()
	if len(snap) != 16 {
		t.Fatalf("retained %d", len(snap))
	}
	if snap[0].Detail != "24" || snap[15].Detail != "39" {
		t.Fatalf("window = %s..%s", snap[0].Detail, snap[15].Detail)
	}
	if l.Total() != 40 {
		t.Fatalf("total = %d", l.Total())
	}
	if st := l.Stats(); st.Appended != 40 || st.Retained != 16 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestMinimumCapacity(t *testing.T) {
	l := New(1)
	for i := 0; i < 20; i++ {
		l.Appendf(0, "e", "", "%d", i)
	}
	if l.Len() != 16 {
		t.Fatalf("len = %d, want clamped capacity 16", l.Len())
	}
}

func TestDumpFormat(t *testing.T) {
	l := New(16)
	l.Append(Event{Site: 3, Type: "iu.prepare", Key: "nonreg", Detail: "txn=9"})
	var b strings.Builder
	if err := l.Dump(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"site=3", "iu.prepare", "key=nonreg", "txn=9"} {
		if !strings.Contains(out, want) {
			t.Fatalf("dump %q missing %q", out, want)
		}
	}
}

func TestConcurrentAppendAndSnapshot(t *testing.T) {
	l := New(64)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				l.Appendf(0, "e", "", "x")
				_ = l.Snapshot()
			}
		}()
	}
	wg.Wait()
	if l.Total() != 2000 {
		t.Fatalf("total = %d", l.Total())
	}
}
