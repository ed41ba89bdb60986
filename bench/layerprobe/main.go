// Command layerprobe is the per-layer half of the benchmark: an
// in-process ladder that replays the workload's own op stream into each
// layer's public functions, one rung at a time, and records a span around
// every call. The end-to-end driver (../) may not import avdb's internal
// packages; this program is where that is allowed, so it is also the
// only part of the benchmark that has to follow when a layer's functions
// change shape.
//
// A rung's time is what a call into that layer costs with everything
// below it; a layer's self time is its rung minus the rungs it calls.
// No timer is added to avdb itself: every span is recorded here, around
// the call.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"avdb/internal/avstore"
	"avdb/internal/epoch"
	"avdb/internal/lockmgr"
	"avdb/internal/partition"
	"avdb/internal/site"
	"avdb/internal/storage"
	"avdb/internal/transport"
	"avdb/internal/transport/memnet"
	"avdb/internal/transport/tcpnet"
	"avdb/internal/txn"
	"avdb/internal/wal"
	"avdb/internal/wire"
)

type op struct {
	key   string
	delta int64
}

// span is one timed call. Parent is the span one rung up that the same
// op produced, 0 for the top rung; times are ns since the probe started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

type probe struct {
	t0      time.Time
	ops     []op
	dir     string
	keys    int
	initial int64
	n       int // ops per durable rung
	spans   []span
	metrics map[string]metric
	notes   []string
	seq     int
}

// timed runs fn inside a span and returns the span's id and duration.
func (p *probe) timed(name string, opIdx, parent int, fn func() error) (int, time.Duration, error) {
	start := time.Since(p.t0)
	err := fn()
	end := time.Since(p.t0)
	p.spans = append(p.spans, span{ID: len(p.spans) + 1, Parent: parent, Name: name, Op: opIdx, Start: int64(start), End: int64(end)})
	return len(p.spans), end - start, err
}

func (p *probe) op(i int) op { return p.ops[i%len(p.ops)] }

// next hands out op indices so that no two rungs replay the same stretch
// of the stream against one store.
func (p *probe) next() int { p.seq++; return p.seq - 1 }

func p50(d []time.Duration) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[(len(s)-1)/2]
}

func (p *probe) putUS(name string, d []time.Duration) time.Duration {
	m := p50(d)
	p.metrics[name] = metric{Value: float64(m) / 1e3, Unit: "us", N: len(d)}
	return m
}

func (p *probe) putNS(name string, d []time.Duration) time.Duration {
	m := p50(d)
	p.metrics[name] = metric{Value: float64(m), Unit: "ns", N: len(d)}
	return m
}

func (p *probe) put(name string, v float64, unit string, n int) {
	p.metrics[name] = metric{Value: v, Unit: unit, N: n}
}

// sub names a rung's own directory; every store creates its own.
func (p *probe) sub(name string) string { return filepath.Join(p.dir, name) }

func (p *probe) records() []storage.Record {
	recs := make([]storage.Record, p.keys)
	for i := range recs {
		recs[i] = storage.Record{Key: fmt.Sprintf("product-%04d", i), Name: fmt.Sprintf("Product %d", i), Amount: p.initial, Class: storage.Regular}
	}
	return recs
}

// openSite opens one site and seeds the given records as regular keys
// holding all of their stock as AV: the probe measures the delay-local
// path, so nothing may run short. Seeding costs one journal flush per
// key, so rungs that touch few keys seed only those.
func (p *probe) openSite(cfg site.Config, nw transport.Network, recs []storage.Record) (*site.Site, error) {
	cfg.ReadPlane = true // avnode's default
	s, err := site.Open(cfg, nw)
	if err != nil {
		return nil, err
	}
	pm := cfg.Partitions
	for _, r := range recs {
		if pm != nil && !pm.HostsKey(cfg.ID, r.Key) {
			continue
		}
		if err := s.Seed(r); err != nil {
			s.Close()
			return nil, err
		}
		if err := s.DefineAV(r.Key, p.initial); err != nil {
			s.Close()
			return nil, err
		}
	}
	return s, nil
}

// touched returns the records of the keys ops [from, to) name.
func (p *probe) touched(from, to int) []storage.Record {
	seen := map[string]bool{}
	var recs []storage.Record
	for i := from; i < to; i++ {
		if k := p.op(i).key; !seen[k] {
			seen[k] = true
			recs = append(recs, storage.Record{Key: k, Name: k, Amount: p.initial, Class: storage.Regular})
		}
	}
	return recs
}

func main() {
	var (
		opsPath   = flag.String("ops", "", "file of \"key delta\" lines to replay")
		dir       = flag.String("dir", "", "scratch directory on the filesystem under test")
		keys      = flag.Int("keys", 2000, "catalog size")
		initial   = flag.Int64("initial", 1_000_000, "initial stock and AV per key")
		budget    = flag.Duration("budget", 4*time.Second, "rough time to spend")
		spansPath = flag.String("spans", "", "where to write the recorded spans")
	)
	flag.Parse()
	p := &probe{t0: time.Now(), dir: *dir, keys: *keys, initial: *initial, metrics: map[string]metric{}}
	if err := p.load(*opsPath); err != nil {
		fmt.Fprintln(os.Stderr, "layerprobe:", err)
		os.Exit(1)
	}
	// About a hundred durable ops per budgeted second and rung keeps the
	// whole ladder near the budget on a disk that flushes in half a
	// millisecond.
	p.n = int(budget.Seconds() * 100)
	if p.n < 50 {
		p.n = 50
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "layerprobe:", err)
		os.Exit(1)
	}
	defer os.RemoveAll(*dir)
	steps := []struct {
		name string
		run  func() error
	}{
		{"wal", p.walRung},
		{"epoch", p.epochRung},
		{"storage", p.storageRung},
		{"txn and lockmgr", p.txnRung},
		{"avstore", p.avstoreRung},
		{"site and core", p.siteRung},
		{"epoch against group commit", p.pipelineRung},
		{"tcpnet", p.pingRung},
		{"replica", p.flushRung},
		{"route hop", p.routeRung},
		{"wire and partition", p.codecRung},
	}
	for _, s := range steps {
		if err := s.run(); err != nil {
			os.RemoveAll(*dir)
			fmt.Fprintf(os.Stderr, "layerprobe: %s: %v\n", s.name, err)
			os.Exit(1)
		}
	}
	p.ladder()
	if *spansPath != "" {
		if err := p.writeSpans(*spansPath); err != nil {
			fmt.Fprintln(os.Stderr, "layerprobe:", err)
			os.Exit(1)
		}
	}
	out, err := json.Marshal(struct {
		Metrics map[string]metric `json:"metrics"`
		Notes   []string          `json:"notes"`
	}{p.metrics, p.notes})
	if err != nil {
		fmt.Fprintln(os.Stderr, "layerprobe:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func (p *probe) load(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fld := strings.Fields(sc.Text())
		if len(fld) != 2 {
			return fmt.Errorf("%s: bad line %q", path, sc.Text())
		}
		d, err := strconv.ParseInt(fld[1], 10, 64)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		p.ops = append(p.ops, op{key: fld[0], delta: d})
	}
	if len(p.ops) == 0 {
		return fmt.Errorf("%s: no ops", path)
	}
	return sc.Err()
}

func (p *probe) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(p.spans); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// walRung: Append, then SyncTo of that one record. wal.sync_us is also
// the run's calibration of the device: it is what one flush costs here,
// now.
func (p *probe) walRung() error {
	log, err := wal.Open(p.sub("wal"), wal.Options{})
	if err != nil {
		return err
	}
	defer log.Close()
	payload := make([]byte, 48) // about one delta record
	var app, syn []time.Duration
	for i := 0; i < p.n; i++ {
		var lsn uint64
		id, d, err := p.timed("wal.Append", i, 0, func() (err error) { lsn, err = log.Append(payload); return })
		if err != nil {
			return err
		}
		app = append(app, d)
		_, d, err = p.timed("wal.SyncTo", i, id, func() error { return log.SyncTo(lsn) })
		if err != nil {
			return err
		}
		syn = append(syn, d)
	}
	p.putNS("wal.append_ns", app)
	p.putUS("wal.sync_us", syn)
	return nil
}

// epochRung: the same append, acknowledged through an epoch manager with
// the default 200 µs interval instead of a direct SyncTo.
func (p *probe) epochRung() error {
	log, err := wal.Open(p.sub("epoch"), wal.Options{})
	if err != nil {
		return err
	}
	defer log.Close()
	m := epoch.New(epoch.Options{Interval: epoch.DefaultInterval, Sync: log.SyncTo})
	defer m.Close()
	payload := make([]byte, 48)
	var com []time.Duration
	for i := 0; i < p.n/2; i++ {
		lsn, err := log.Append(payload)
		if err != nil {
			return err
		}
		_, d, err := p.timed("epoch.Commit", i, 0, func() error { _, err := m.Commit(lsn); return err })
		if err != nil {
			return err
		}
		com = append(com, d)
	}
	p.putUS("epoch.commit_us", com)
	return nil
}

func (p *probe) storageRung() error {
	stats := &wal.Stats{}
	eng, err := storage.Open(storage.Options{Dir: p.sub("storage"), Stats: stats})
	if err != nil {
		return err
	}
	if err := eng.Apply(putOps(p.records())...); err != nil {
		eng.Close()
		return err
	}
	before := stats.Fsyncs.Load()
	var dur []time.Duration
	for i := 0; i < p.n; i++ {
		o := p.op(p.next())
		_, d, err := p.timed("storage.Apply", i, 0, func() error { return eng.Apply(storage.DeltaOp(o.key, o.delta)) })
		if err != nil {
			eng.Close()
			return err
		}
		dur = append(dur, d)
	}
	p.putUS("storage.apply_us", dur)
	p.put("storage.fsyncs_per_apply", float64(stats.Fsyncs.Load()-before)/float64(p.n), "ratio", p.n)
	if err := eng.Close(); err != nil {
		return err
	}

	mem, err := storage.Open(storage.Options{})
	if err != nil {
		return err
	}
	defer mem.Close()
	if err := mem.Apply(putOps(p.records())...); err != nil {
		return err
	}
	var memDur []time.Duration
	for i := 0; i < p.n*25; i++ {
		o := p.op(p.next())
		_, d, err := p.timed("storage.Apply.mem", i, 0, func() error { return mem.Apply(storage.DeltaOp(o.key, o.delta)) })
		if err != nil {
			return err
		}
		memDur = append(memDur, d)
	}
	p.putNS("storage.apply_mem_ns", memDur)

	// Checkpoint after 10 k logged records. NoSync: the records only have
	// to be in the log, and 10 k flushes would take the whole budget.
	ck, err := storage.Open(storage.Options{Dir: p.sub("checkpoint"), NoSync: true})
	if err != nil {
		return err
	}
	defer ck.Close()
	if err := ck.Apply(putOps(p.records())...); err != nil {
		return err
	}
	for i := 0; i < 10_000; i++ {
		o := p.op(i)
		// Alternate the sign so that tight-stock streams stay in range.
		d := o.delta
		if i%2 == 1 {
			d = -p.op(i - 1).delta
			o = p.op(i - 1)
		}
		if err := ck.Apply(storage.DeltaOp(o.key, d)); err != nil {
			return err
		}
	}
	_, d, err := p.timed("storage.Checkpoint", 0, 0, ck.Checkpoint)
	if err != nil {
		return err
	}
	p.put("storage.checkpoint_ms", float64(d)/1e6, "ms", 1)
	return nil
}

func putOps(recs []storage.Record) []storage.Op {
	ops := make([]storage.Op, len(recs))
	for i, r := range recs {
		ops[i] = storage.PutOp(r)
	}
	return ops
}

// txnRung: a one-delta transaction on an in-memory engine, and the lock
// acquire/release pair it contains, so that neither waits for a disk.
func (p *probe) txnRung() error {
	eng, err := storage.Open(storage.Options{})
	if err != nil {
		return err
	}
	defer eng.Close()
	if err := eng.Apply(putOps(p.records())...); err != nil {
		return err
	}
	tm := txn.NewManager(eng, lockmgr.Options{})
	ctx := context.Background()
	var dur []time.Duration
	for i := 0; i < p.n*25; i++ {
		o := p.op(p.next())
		_, d, err := p.timed("txn.ApplyDelta+Commit", i, 0, func() error {
			t := tm.Begin()
			if _, err := t.ApplyDelta(ctx, o.key, o.delta); err != nil {
				t.Abort()
				return err
			}
			return t.Commit()
		})
		if err != nil {
			return err
		}
		dur = append(dur, d)
	}
	p.putNS("txn.apply_commit_ns", dur)

	lm := lockmgr.New(lockmgr.Options{})
	var lock []time.Duration
	for i := 0; i < p.n*25; i++ {
		o := p.op(i)
		id := lockmgr.TxnID(i + 1)
		_, d, err := p.timed("lockmgr.Acquire+ReleaseAll", i, 0, func() error {
			if err := lm.Acquire(ctx, id, o.key, lockmgr.Exclusive); err != nil {
				return err
			}
			lm.ReleaseAll(id)
			return nil
		})
		if err != nil {
			return err
		}
		lock = append(lock, d)
	}
	p.putNS("lockmgr.acquire_release_ns", lock)
	return nil
}

// avstoreRung: what the accelerator does to the AV table for one update,
// on a durable store with its own flush counter. A decrement reserves
// and consumes; an increment credits.
func (p *probe) avstoreRung() error {
	stats := &wal.Stats{}
	st, err := avstore.Open(p.sub("avstore"), avstore.Options{Stats: stats})
	if err != nil {
		return err
	}
	defer st.Close()
	for _, r := range p.touched(p.seq, p.seq+p.n) {
		if err := st.Define(r.Key, p.initial); err != nil {
			return err
		}
	}
	before := stats.Fsyncs.Load()
	var dur []time.Duration
	for i := 0; i < p.n; i++ {
		o := p.op(p.next())
		_, d, err := p.timed("avstore.AcquireUpTo+Consume", i, 0, func() error {
			if o.delta >= 0 {
				return st.Credit(o.key, o.delta)
			}
			got, err := st.AcquireUpTo(o.key, -o.delta)
			if err != nil {
				return err
			}
			if got != -o.delta {
				return fmt.Errorf("%s: AV ran short (%d of %d)", o.key, got, -o.delta)
			}
			return st.Consume(o.key, got)
		})
		if err != nil {
			return err
		}
		dur = append(dur, d)
	}
	p.putUS("avstore.acquire_consume_us", dur)
	p.put("avstore.fsyncs_per_consume", float64(stats.Fsyncs.Load()-before)/float64(p.n), "ratio", p.n)
	return nil
}

// siteRung: site.Update and the accelerator's Update beneath it, on one
// durable single site, alternating so that both see the same device
// weather.
func (p *probe) siteRung() error {
	s, err := p.openSite(site.Config{StorageDir: p.sub("site"), PersistAV: true}, memnet.New(memnet.Options{}), p.records())
	if err != nil {
		return err
	}
	defer s.Close()
	ctx := context.Background()
	var top, core []time.Duration
	for i := 0; i < p.n; i++ {
		o := p.op(p.next())
		id, d, err := p.timed("site.Update", i, 0, func() error { _, err := s.Update(ctx, o.key, o.delta); return err })
		if err != nil {
			return err
		}
		top = append(top, d)
		o = p.op(p.next())
		_, d, err = p.timed("core.Accelerator.Update", i, id, func() error { _, err := s.Accelerator().Update(ctx, o.key, o.delta); return err })
		if err != nil {
			return err
		}
		core = append(core, d)
	}
	st := p.putUS("site.update_us", top)
	ct := p.putUS("core.update_us", core)
	p.put("site.update_self_us", float64(st-ct)/1e3, "us", len(top))

	// The read plane's HTTP handler, called directly.
	h := s.ReadPlane().HTTPHandler()
	var reads []time.Duration
	for i := 0; i < p.n*5; i++ {
		o := p.op(i)
		_, d, err := p.timed("readplane.http_stock", i, 0, func() error {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", "/read/stock?key="+o.key, nil))
			if rec.Code != 200 {
				return fmt.Errorf("/read/stock: status %d", rec.Code)
			}
			return nil
		})
		if err != nil {
			return err
		}
		reads = append(reads, d)
	}
	p.putUS("readplane.http_stock_us", reads)
	return nil
}

// pipelineRung: the served path under epoch commit (200 µs) and under
// group commit, with one and with two concurrent callers: the comparison
// ROADMAP item 2 needs to pick between them. No end-to-end workload
// turns epochs on.
func (p *probe) pipelineRung() error {
	// Under epoch commit even seeding a key waits out two epochs, so this
	// rung runs on few ops and therefore few keys.
	n := p.n / 4
	for _, mode := range []struct {
		name     string
		interval time.Duration
	}{{"gc", 0}, {"epoch", epoch.DefaultInterval}} {
		for _, callers := range []int{1, 2} {
			base := p.seq
			p.seq += n * callers
			s, err := p.openSite(site.Config{
				StorageDir: p.sub(fmt.Sprintf("pipe-%s-%d", mode.name, callers)), PersistAV: true,
				EpochInterval: mode.interval,
			}, memnet.New(memnet.Options{}), p.touched(base, p.seq))
			if err != nil {
				return err
			}
			ctx := context.Background()
			durs := make([][]time.Duration, callers)
			errs := make([]error, callers)
			var wg sync.WaitGroup
			for c := 0; c < callers; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for i := 0; i < n; i++ {
						o := p.op(base + c*n + i)
						start := time.Now()
						if _, err := s.Update(ctx, o.key, o.delta); err != nil {
							errs[c] = err
							return
						}
						durs[c] = append(durs[c], time.Since(start))
					}
				}(c)
			}
			wg.Wait()
			if err := s.Close(); err != nil {
				return err
			}
			var all []time.Duration
			for c := range durs {
				if errs[c] != nil {
					return errs[c]
				}
				all = append(all, durs[c]...)
			}
			p.putUS(fmt.Sprintf("site.update_%s_p50_us.c%d", mode.name, callers), all)
		}
	}
	return nil
}

// loopback opens n tcpnet listeners' worth of free ports.
func loopback(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addrs[i] = l.Addr().String()
		defer l.Close()
	}
	return addrs, nil
}

func peersOf(addrs []string, self int) (ids []wire.SiteID, m map[wire.SiteID]string) {
	m = map[wire.SiteID]string{}
	for i, a := range addrs {
		if i != self {
			ids = append(ids, wire.SiteID(i))
			m[wire.SiteID(i)] = a
		}
	}
	return ids, m
}

// pingRung: one Call round trip between two tcpnet nodes on loopback.
func (p *probe) pingRung() error {
	addrs, err := loopback(2)
	if err != nil {
		return err
	}
	pong := func(context.Context, wire.SiteID, wire.Message) wire.Message { return &wire.Pong{} }
	var nodes []*tcpnet.Node
	for i := range addrs {
		_, peers := peersOf(addrs, i)
		n, err := tcpnet.Open(tcpnet.Config{ID: wire.SiteID(i), Listen: addrs[i], Peers: peers}, pong)
		if err != nil {
			return err
		}
		defer n.Close()
		nodes = append(nodes, n)
	}
	ctx := context.Background()
	var rtt []time.Duration
	for i := 0; i < p.n*5; i++ {
		_, d, err := p.timed("tcpnet.Call", i, 0, func() error { _, err := nodes[0].Call(ctx, 1, &wire.Ping{}); return err })
		if err != nil {
			return err
		}
		if i > 0 { // the first call dials
			rtt = append(rtt, d)
		}
	}
	p.putUS("tcpnet.call_rtt_us", rtt)
	return nil
}

// cluster opens in-memory sites over tcpnet loopback.
func (p *probe) cluster(n int, pm func(ids []wire.SiteID) (*partition.Map, error)) ([]*site.Site, func(), error) {
	addrs, err := loopback(n)
	if err != nil {
		return nil, nil, err
	}
	all := make([]wire.SiteID, n)
	for i := range all {
		all[i] = wire.SiteID(i)
	}
	var parts *partition.Map
	if pm != nil {
		if parts, err = pm(all); err != nil {
			return nil, nil, err
		}
	}
	var sites []*site.Site
	closeAll := func() {
		for _, s := range sites {
			s.Close()
		}
	}
	for i := range addrs {
		ids, peers := peersOf(addrs, i)
		s, err := p.openSite(site.Config{ID: wire.SiteID(i), Peers: ids, Partitions: parts},
			&tcpnet.Network{Cfg: tcpnet.Config{ID: wire.SiteID(i), Listen: addrs[i], Peers: peers}}, p.records())
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		sites = append(sites, s)
	}
	return sites, closeAll, nil
}

// flushRung: site.Flush with 100 deltas pending for one peer.
func (p *probe) flushRung() error {
	sites, closeAll, err := p.cluster(2, nil)
	if err != nil {
		return err
	}
	defer closeAll()
	ctx := context.Background()
	var dur []time.Duration
	for round := 0; round < 8; round++ {
		for i := 0; i < 100; i++ {
			o := p.op(p.next())
			if _, err := sites[0].Update(ctx, o.key, o.delta); err != nil {
				return err
			}
		}
		_, d, err := p.timed("site.Flush", round, 0, func() error { return sites[0].Flush(ctx) })
		if err != nil {
			return err
		}
		if round > 0 { // the first flush dials
			dur = append(dur, d)
		}
	}
	p.putUS("replica.flush_us", dur)
	return nil
}

// routeRung: an update of a key site 1 hosts against one it has to
// forward, on in-memory sites so that the difference is the hop alone.
func (p *probe) routeRung() error {
	var pm *partition.Map
	sites, closeAll, err := p.cluster(3, func(ids []wire.SiteID) (*partition.Map, error) {
		var err error
		pm, err = partition.New(ids, 16, 2)
		return pm, err
	})
	if err != nil {
		return err
	}
	defer closeAll()
	ctx := context.Background()
	var local, routed []time.Duration
	for i := 0; len(local) < p.n*2 || len(routed) < p.n*2; i++ {
		if i > p.n*100 {
			return fmt.Errorf("the op stream has too few keys on one side of site 1's partitions")
		}
		o := p.op(p.next())
		hosted := pm.HostsKey(1, o.key)
		name := "site.Update.routed"
		if hosted {
			name = "site.Update.hosted"
		}
		_, d, err := p.timed(name, i, 0, func() error { _, err := sites[1].Update(ctx, o.key, o.delta); return err })
		if err != nil {
			return err
		}
		if hosted {
			local = append(local, d)
		} else {
			routed = append(routed, d)
		}
	}
	// Skip each side's first call: the routed one dials.
	hop := p50(routed[1:]) - p50(local[1:])
	p.put("site.route_hop_us", float64(hop)/1e3, "us", len(routed)-1)

	var hk []time.Duration
	for i := 0; i < p.n*25; i++ {
		o := p.op(i)
		_, d, _ := p.timed("partition.HostsKey", i, 0, func() error { pm.HostsKey(1, o.key); return nil })
		hk = append(hk, d)
	}
	p.putNS("partition.hosts_key_ns", hk)
	return nil
}

// codecRung: one envelope carrying a RouteUpdate and one carrying a
// 16-delta DeltaSync, encoded and decoded.
func (p *probe) codecRung() error {
	deltas := make([]wire.Delta, 16)
	for i := range deltas {
		o := p.op(i)
		deltas[i] = wire.Delta{Seq: uint64(i + 1), Key: o.key, Amount: o.delta}
	}
	envs := []*wire.Envelope{
		{From: 1, To: 2, Seq: 7, Msg: &wire.RouteUpdate{MapVersion: 1, Key: p.op(0).key, Delta: p.op(0).delta}},
		{From: 1, To: 2, Seq: 8, Msg: &wire.DeltaSync{Origin: 1, FirstSeq: 1, Deltas: deltas}},
	}
	var enc, dec []time.Duration
	var buf []byte
	for i := 0; i < p.n*25; i++ {
		var e, d time.Duration
		for _, env := range envs {
			id, de, _ := p.timed("wire.AppendEnvelope", i, 0, func() error { buf = wire.AppendEnvelope(buf[:0], env); return nil })
			e += de
			_, dd, err := p.timed("wire.DecodeEnvelope", i, id, func() error { _, err := wire.DecodeEnvelope(buf); return err })
			if err != nil {
				return err
			}
			d += dd
		}
		enc = append(enc, e)
		dec = append(dec, d)
	}
	p.putNS("wire.encode_ns", enc)
	p.putNS("wire.decode_ns", dec)
	return nil
}

// ladder adds the layers' self times up: if the sum is far from what the
// traced pass scraped as site.update_p50_us, a layer is missing.
func (p *probe) ladder() {
	v := func(name string) float64 {
		m := p.metrics[name]
		if m.Unit == "ns" {
			return m.Value / 1e3
		}
		return m.Value
	}
	flush := v("wal.append_ns") + v("wal.sync_us")
	self := map[string]float64{
		"wal (storage log)": flush,
		"wal (AV journal)":  flush,
		"storage":           v("storage.apply_us") - flush,
		"lockmgr":           v("lockmgr.acquire_release_ns"),
		"txn":               v("txn.apply_commit_ns") - v("storage.apply_mem_ns") - v("lockmgr.acquire_release_ns"),
		"avstore":           v("avstore.acquire_consume_us") - flush,
		"site":              v("site.update_self_us"),
	}
	below := v("storage.apply_us") + v("avstore.acquire_consume_us") + self["txn"] + self["lockmgr"]
	self["core"] = v("core.update_us") - below
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	sum := 0.0
	for _, n := range names {
		s := self[n]
		if s < 0 {
			p.notes = append(p.notes, fmt.Sprintf("self time of %s came out at %.1f us (device noise between rungs): counted as 0", n, s))
			s = 0
		}
		sum += s
		p.notes = append(p.notes, fmt.Sprintf("self %-18s %9.1f us", n, s))
	}
	p.put("layerprobe.self_sum_us", sum, "us", p.n)
}
