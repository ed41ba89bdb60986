package site

import (
	"fmt"
	"syscall"
	"testing"
	"time"

	"avdb/internal/core"
	"avdb/internal/storage"
	"avdb/internal/strategy"
	"avdb/internal/transport/memnet"
	"avdb/internal/wal"
	"avdb/internal/wire"
)

// BenchmarkSiteUpdateReadPlane is one delay-local decrement through
// Site.Update — in-memory engine, ample AV, no communication — with the
// read plane off and on: the difference is what the plane bills the
// committing goroutine per update. cpu-ns/op is the whole process's CPU
// time per update, which also counts work done on other threads.
func BenchmarkSiteUpdateReadPlane(b *testing.B) {
	const keys = 2000
	for _, on := range []bool{false, true} {
		name := "plane=off"
		if on {
			name = "plane=on"
		}
		b.Run(name, func(b *testing.B) {
			s, err := Open(Config{ID: 0, Peers: []wire.SiteID{1, 2}, ReadPlane: on}, memnet.New(memnet.Options{}))
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			names := make([]string, keys)
			for i := range names {
				names[i] = fmt.Sprintf("product-%04d", i)
				if err := s.Seed(storage.Record{Key: names[i], Amount: 1 << 40, Class: storage.Regular}); err != nil {
					b.Fatal(err)
				}
				if err := s.DefineAV(names[i], 1<<40); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			cpu0 := processCPU()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := s.Update(bg(), names[i%keys], -1)
				if err != nil || res.Path != core.PathDelayLocal {
					b.Fatalf("update %d: path %v, err %v", i, res.Path, err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(processCPU()-cpu0)/float64(b.N), "cpu-ns/op")
			if p := s.ReadPlane(); p != nil {
				if err := p.WaitCaughtUp(bg()); err != nil {
					b.Fatal(err)
				}
				if got := p.Stats().EventsApplied; got < int64(b.N) {
					b.Fatalf("plane applied %d of %d updates", got, b.N)
				}
			}
		})
	}
}

// BenchmarkDelayUpdateDurable is one Delay Update through Site.Update
// on a durable site with real fsyncs, per shape: a local decrement, an
// increment, and a decrement funded by a transfer from an in-memory
// peer (exact requests and grants, so every update transfers). wal-B/op
// and fsyncs/op are what each update costs the updating site's WAL.
func BenchmarkDelayUpdateDurable(b *testing.B) {
	const key = "product-0001"
	exact := strategy.Policy{Selector: strategy.MaxKnown{}, Decider: strategy.GrantExact{}}
	for _, shape := range []struct {
		name  string
		delta int64
		av    int64 // the updating site's initial AV; its peer holds the rest
		path  core.Path
	}{
		{"decrement", -1, 1 << 40, core.PathDelayLocal},
		{"increment", 1, 0, core.PathDelayLocal},
		{"transfer", -1, 0, core.PathDelayTransfer},
	} {
		b.Run(shape.name, func(b *testing.B) {
			dir := b.TempDir()
			st := &wal.Stats{}
			net := memnet.New(memnet.Options{})
			s, err := Open(Config{ID: 0, Peers: []wire.SiteID{1}, StorageDir: dir, PersistAV: true, WALStats: st, Policy: exact}, net)
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			peer, err := Open(Config{ID: 1, Peers: []wire.SiteID{0}, Policy: exact}, net)
			if err != nil {
				b.Fatal(err)
			}
			defer peer.Close()
			for _, x := range []struct {
				s  *Site
				av int64
			}{{s, shape.av}, {peer, 1<<40 - shape.av}} {
				if err := x.s.Seed(storage.Record{Key: key, Amount: 1 << 40, Class: storage.Regular}); err != nil {
					b.Fatal(err)
				}
				if err := x.s.DefineAV(key, x.av); err != nil {
					b.Fatal(err)
				}
			}
			fsyncs, bytes := st.Fsyncs.Load(), walBytes(b, dir)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := s.Update(bg(), key, shape.delta)
				if err != nil || res.Path != shape.path {
					b.Fatalf("update %d: path %v, err %v", i, res.Path, err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(walBytes(b, dir)-bytes)/float64(b.N), "wal-B/op")
			b.ReportMetric(float64(st.Fsyncs.Load()-fsyncs)/float64(b.N), "fsyncs/op")
		})
	}
}

// processCPU is the user+system CPU time this process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) //nolint:errcheck // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
