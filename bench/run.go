package main

import (
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"
)

// metric is one reported number. n is the sample count behind it, 0
// where the value is a count or a ratio of counts.
type metric struct {
	value float64
	unit  string
	n     int
}

type metrics map[string]metric

func (m metrics) set(name string, value float64, unit string, n int) {
	m[name] = metric{value: value, unit: unit, n: n}
}

// plan is the timeline of one pass over one workload.
type plan struct {
	traced  bool          // nodes run with -admin and are scraped
	setups  int           // set-ups made; the last one carries the load
	warm    time.Duration // paced, not measured
	paced   time.Duration // paced, measured
	sat     time.Duration // closed loop, measured
	restart bool          // time a SIGKILL + restart of site 2 afterwards
}

// pass is what one pass produced.
type pass struct {
	m         metrics
	attempted int
	failed    int
	invalid   []string // reasons the numbers must not be used
	fs        string   // filesystem the data dirs were on
	// noRealtime: a writer was refused real-time priority, so its
	// lateness is the ordinary scheduler's.
	noRealtime bool
}

const maxSlices = 5

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// runPass sets the cluster up, drives the paced and the closed-loop
// phase, runs the output oracle and tears everything down.
func (e *env) runPass(w workload, seed uint64, pl plan) (*pass, error) {
	p := &pass{m: metrics{}}

	var c *cluster
	var setups []float64
	for i := 0; i < pl.setups; i++ {
		if c != nil {
			c.stop()
		}
		start := time.Now()
		if err := e.build(e.avnode, "./cmd/avnode"); err != nil {
			return nil, err
		}
		var err error
		if c, err = e.startCluster(w, pl.traced); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer c.stop()
	p.fs = c.fs
	p.m.set("setup_s", median(setups), "s", len(setups))

	orc, err := dialOracle(c)
	if err != nil {
		return nil, err
	}
	defer orc.close()
	hosts := make([][]int, w.keys)
	if w.partitions > 0 {
		if hosts, err = orc.hosting(w.keys); err != nil {
			return nil, err
		}
	} else {
		for k := range hosts {
			hosts[k] = []int{0, 1, 2}
		}
	}

	sh := &shared{lastSite: map[int]int{}}
	genA, genB := w.streams(seed)
	t0 := time.Now()
	a, err := dialStream(t0, c.nodes[w.siteA].client, genA)
	if err != nil {
		return nil, err
	}
	defer a.conn.Close()
	a.env, a.sh, a.isA, a.initial, a.wantToken = e, sh, true, w.initial, w.reads
	var b *updateStream
	var r *readStream
	if w.reads {
		home := make([]int, w.keys)
		for k, h := range hosts {
			home[k] = h[0]
			for _, s := range h {
				if s == w.siteA {
					home[k] = s
				}
			}
		}
		tr := &http.Transport{MaxIdleConnsPerHost: 1}
		defer tr.CloseIdleConnections()
		r = &readStream{t0: t0, client: &http.Client{Transport: tr, Timeout: 3 * time.Second},
			admins: c.admins(), home: home, gen: genB, sh: sh}
	} else {
		if b, err = dialStream(t0, c.nodes[w.siteB].client, genB); err != nil {
			return nil, err
		}
		defer b.conn.Close()
		b.env, b.sh, b.initial, b.phase = e, sh, w.initial, 0.5
	}
	scraper := &http.Client{Timeout: 5 * time.Second}

	// Paced phase: two issuing goroutines, snapshots taken from this one.
	pacedEnd := pl.warm + pl.paced
	// Its tallies are recounted below from the samples that fall in the
	// measured window.
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); defer e.guard(); a.run(0, pacedEnd, w.rate, nil, true) }()
	go func() {
		defer wg.Done()
		defer e.guard()
		if r != nil {
			r.run(0, pacedEnd, w.rate, true)
		} else {
			b.run(0, pacedEnd, w.rate, nil, true)
		}
	}()
	var u0, u1 usage
	var s0, s1 scrapeSet
	var snapErr error
	snap := func(at time.Duration, u *usage, s *scrapeSet) {
		time.Sleep(at - time.Since(t0))
		var err error
		if *u, err = c.usage(); err != nil && snapErr == nil {
			snapErr = err
		}
		if pl.traced {
			if *s, err = scrapeAll(scraper, c.admins()); err != nil && snapErr == nil {
				snapErr = err
			}
		}
	}
	snap(pl.warm, &u0, &s0)
	snap(pacedEnd, &u1, &s1)
	wg.Wait()
	if err := c.crashed(); err != nil {
		return nil, err
	}
	if snapErr != nil {
		return nil, snapErr
	}

	// Closed-loop phase on the same connections and generators.
	var satRate float64
	var satA, satB tally
	if pl.sat > 0 && a.broken == nil && (b == nil || b.broken == nil) {
		from := time.Since(t0)
		to := from + pl.sat
		var ready func(int) bool
		if w.funded != nil {
			ready = func(i int) bool { return sh.ackedA.Load() >= int64(w.funded(i)) }
		}
		wg.Add(2)
		go func() { defer wg.Done(); defer e.guard(); satA = a.run(from, to, 0, nil, false) }()
		go func() {
			defer wg.Done()
			defer e.guard()
			if r != nil {
				// Reads stay at their paced rate: update throughput beside
				// a fixed read load, not a race for the processor.
				satB = r.run(from, to, w.rate, false)
			} else {
				satB = b.run(from, to, 0, ready, false)
			}
		}()
		wg.Wait()
		if err := c.crashed(); err != nil {
			return nil, err
		}
		// Median over the phase's slices, like the latencies: one stall
		// of the shared disk costs one slice.
		perSlice := make([]float64, maxSlices)
		for i := range perSlice {
			perSlice[i] = float64(satA.okBySlice[i]+satB.okBySlice[i]) / (pl.sat.Seconds() / maxSlices)
		}
		satRate = median(perSlice)
	}

	// Measured window of the paced phase.
	var all []sample
	all = append(all, a.samples...)
	if r != nil {
		all = append(all, r.samples...)
	} else {
		all = append(all, b.samples...)
	}
	var measured []sample
	for _, s := range all {
		if s.due >= pl.warm && s.due < pacedEnd {
			measured = append(measured, s)
		}
	}
	sort.Slice(measured, func(i, j int) bool { return measured[i].due < measured[j].due })
	p.summarise(w, pl, measured)

	var total tally
	for _, s := range measured {
		total.attempted++
		switch {
		case !s.ok:
			total.failed++
			if s.done == 0 {
				total.unfinished++
			}
		case s.kind == opUpdate:
			total.okUpdates++
		}
	}
	pacedOK, pacedUpdates := total.attempted-total.failed, total.okUpdates
	total.add(satA)
	total.add(satB)
	p.attempted, p.failed = total.attempted, total.failed
	if p.attempted == 0 {
		return nil, fmt.Errorf("%s: no operation was due in the measured window", w.name)
	}
	fail := float64(p.failed) / float64(p.attempted)
	p.m.set("ok_frac", 1-fail, "ratio", p.attempted)
	p.m.set("loadgen.fail_frac", fail, "ratio", p.attempted)
	p.m.set("loadgen.unfinished", float64(total.unfinished), "count", 0)
	p.m.set("loadgen.offered_per_s", float64(len(measured))/pl.paced.Seconds(), "1/s", len(measured))
	if pl.sat > 0 {
		p.m.set("update_ops_per_s", satRate, "1/s", satA.okUpdates+satB.okUpdates)
	}
	if pacedOK > 0 {
		p.m.set("cpu_us_per_op", us(u1.cpu-u0.cpu)/float64(pacedOK), "us", pacedOK)
	}
	if pacedUpdates > 0 {
		p.m.set("disk_bytes_per_update", float64(u1.disk-u0.disk)/float64(pacedUpdates), "B", pacedUpdates)
	}
	p.m.set("rss_mb_end", u1.rss, "MB", numSites)
	if pl.traced {
		p.layers(s0, s1, pacedUpdates, measured)
	}

	// Output oracle.
	ledgers := []*ledger{a.ledger}
	if b != nil {
		ledgers = append(ledgers, b.ledger)
	}
	keys := touchedKeys(ledgers...)
	took, agreed, err := orc.settle(keys, hosts)
	if err != nil {
		return nil, fmt.Errorf("check failed: %w", err)
	}
	if err := orc.check(keys, hosts, agreed, ledgers...); err != nil {
		return nil, fmt.Errorf("check failed: %w", err)
	}
	p.m.set("replica.converge_s", took.Seconds(), "s", 1)
	fmt.Printf("check ok  %s: %d touched keys agree on every hosting replica, match the acknowledged updates, and no AV was minted\n", w.name, len(keys))

	if pl.restart {
		d, err := c.restart(numSites - 1)
		if err != nil {
			return nil, err
		}
		p.m.set("storage.restart_replay_s", d.Seconds(), "s", 1)
	}

	for _, s := range []*updateStream{a, b} {
		if s == nil {
			continue
		}
		if s.broken != nil {
			p.invalid = append(p.invalid, fmt.Sprintf("a connection stopped answering: %v", s.broken))
		}
		if !s.realtime {
			p.noRealtime = true
		}
	}
	// The 90th percentile, not the 99th: on this kind of VM even a
	// spinning real-time thread loses 3 to 8 ms several times a second, so
	// one sample in a hundred is late by about pos-cpu's whole median
	// whatever the generator does. A starved generator is late at the 90th
	// percentile too, and that is what makes a run invalid.
	lag, p50 := p.m["loadgen.sched_lag_p90_us"].value, p.m["update_p50_us"].value
	if lag > p50 {
		p.invalid = append(p.invalid, fmt.Sprintf("the load generator ran late: loadgen.sched_lag_p90_us %.0f exceeds update_p50_us %.0f", lag, p50))
	}
	return p, nil
}

// summarise turns the measured samples into the client-visible metrics.
func (p *pass) summarise(w workload, pl plan, measured []sample) {
	from, to := us(pl.warm), us(pl.warm+pl.paced)
	type series struct{ at, lat []float64 }
	pick := func(keep func(sample) bool) series {
		var s series
		for _, x := range measured {
			if x.ok && keep(x) {
				s.at = append(s.at, us(x.due))
				s.lat = append(s.lat, us(x.done-x.due))
			}
		}
		return s
	}
	put := func(name string, s series, pct float64) {
		v := 0.0
		if len(s.lat) > 0 {
			v = slicedPercentile(s.at, s.lat, from, to, pct, maxSlices)
		}
		p.m.set(name, v, "us", len(s.lat))
	}
	upd := pick(func(s sample) bool { return s.kind == opUpdate })
	put("update_p50_us", upd, 50)
	put("update_p90_us", upd, 90)
	put("update_p99_us", upd, 99)
	if top := highestPercentile(len(upd.lat)); top > 99 {
		p.m.set(fmt.Sprintf("update_p%v_us", top), percentile(sortedCopy(upd.lat), top), "us", len(upd.lat))
	}
	// A token names the site that applied the update: another site than
	// the one asked means the update was forwarded.
	if w.partitions > 0 {
		put("site.update_hosted_p50_us", pick(func(s sample) bool { return s.kind == opUpdate && int(s.site) == w.siteA }), 50)
		put("site.update_forwarded_p50_us", pick(func(s sample) bool { return s.kind == opUpdate && s.site >= 0 && int(s.site) != w.siteA }), 50)
	} else {
		put("site.update_hosted_p50_us", upd, 50)
		p.m.set("site.update_forwarded_p50_us", 0, "us", 0)
	}
	put("delay_transfer_p50_us", pick(func(s sample) bool { return s.path == pathTransfer }), 50)
	put("immediate_p50_us", pick(func(s sample) bool { return s.path == pathImmediate }), 50)
	asap := pick(func(s sample) bool { return s.kind == opReadASAP })
	put("read_asap_p50_us", asap, 50)
	put("read_asap_p99_us", asap, 99)
	put("read_fresh_p50_us", pick(func(s sample) bool { return s.kind == opReadFresh }), 50)

	var lag []float64
	paths := map[uint8]int{}
	for _, s := range measured {
		if s.kind != opUpdate {
			continue
		}
		lag = append(lag, us(s.sent-s.due))
		if s.ok {
			paths[s.path]++
		}
	}
	sorted := sortedCopy(lag)
	p.m.set("loadgen.sched_lag_p90_us", percentile(sorted, 90), "us", len(lag))
	p.m.set("loadgen.sched_lag_p99_us", percentile(sorted, 99), "us", len(lag))
	n := len(upd.lat)
	for path, name := range map[uint8]string{pathLocal: "delay_local", pathTransfer: "delay_transfer", pathImmediate: "immediate"} {
		f := 0.0
		if n > 0 {
			f = float64(paths[path]) / float64(n)
		}
		p.m.set("core.path_frac."+name, f, "ratio", n)
	}
}

// layers derives the scraped per-layer metrics from the two scrapes that
// bracket the measured window of a traced pass.
func (p *pass) layers(s0, s1 scrapeSet, updates int, measured []sample) {
	if updates == 0 {
		return
	}
	per := func(v float64) float64 { return v / float64(updates) }
	dsum := func(name string) float64 { return s1.sum(name) - s0.sum(name) }
	dmsg := func(kinds ...string) float64 { return s1.msgs(kinds...) - s0.msgs(kinds...) }
	var transfers, immediates float64
	for _, s := range measured {
		if s.ok && s.path == pathTransfer {
			transfers++
		}
		if s.ok && s.path == pathImmediate {
			immediates++
		}
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	sitep50 := s1.weighted("update_latency", "p50_ns") / 1e3
	p.m.set("site.update_p50_us", sitep50, "us", int(s1.sum("update_latency_count")))
	p.m.set("site.update_p99_us", s1.weighted("update_latency", "p99_ns")/1e3, "us", int(s1.sum("update_latency_count")))
	p.m.set("avnode.client_overhead_p50_us", p.m["update_p50_us"].value-sitep50, "us", p.m["update_p50_us"].n)
	p.m.set("site.forwarded_frac", per(dsum("partition_route_forwarded")), "ratio", updates)
	p.m.set("site.misroutes", dsum("partition_misroutes"), "count", 0)
	p.m.set("core.av_requests_per_transfer", ratio(dmsg("av.request"), transfers), "ratio", int(transfers))
	p.m.set("wal.fsyncs_per_update", per(dsum("wal_fsync_total")), "ratio", updates)
	p.m.set("wal.group_size_mean", ratio(dsum("wal_records_synced_total"), dsum("wal_sync_rounds_total")), "ratio", int(dsum("wal_sync_rounds_total")))
	p.m.set("wal.sync_wait_p50_us", s1.weighted("wal_sync_wait", "p50_ns")/1e3, "us", int(s1.sum("wal_sync_wait_count")))
	p.m.set("twopc.msgs_per_immediate", ratio(dmsg("iu.prepare", "iu.vote", "iu.decision", "iu.ack"), immediates), "ratio", int(immediates))
	p.m.set("twopc.aborts", dsum("twopc_aborts"), "count", 0)
	p.m.set("replica.msgs_per_update", per(dmsg("delta.sync", "delta.ack")), "ratio", updates)
	p.m.set("transport.msgs_per_update", per(dsum("total_messages")), "ratio", updates)
	p.m.set("readplane.lag_p99_us", s1.weighted("readplane_lag", "p99_ns")/1e3, "us", int(s1.sum("readplane_lag_count")))
	p.m.set("readplane.ryw_wait_p50_us", s1.weighted("readplane_ryw_wait", "p50_ns")/1e3, "us", int(s1.sum("readplane_ryw_wait_count")))
	p.m.set("readplane.feed_dropped", dsum("readplane_feed_dropped"), "count", 0)
}
