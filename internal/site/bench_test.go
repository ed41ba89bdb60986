package site

import (
	"fmt"
	"syscall"
	"testing"
	"time"

	"avdb/internal/core"
	"avdb/internal/storage"
	"avdb/internal/transport/memnet"
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

// processCPU is the user+system CPU time this process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) //nolint:errcheck // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
