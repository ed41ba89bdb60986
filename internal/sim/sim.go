// Package sim is the deterministic whole-cluster simulator. One Run
// builds a complete multi-site cluster on the in-process network, drives
// a randomized workload and a scripted fault schedule against it on a
// virtual clock, and checks a set of invariant oracles both continuously
// and after quiescence. Everything — workload choices, fault injection,
// retransmission timing, 2PC deadlines — derives from one uint64 seed,
// so any schedule the simulator can produce it can reproduce bit for
// bit, and a failing seed can be shrunk to a minimal fault script
// (Minimize) and swept en masse (Sweep).
package sim

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"avdb/internal/chaos"
	"avdb/internal/clock"
	"avdb/internal/cluster"
	"avdb/internal/core"
	"avdb/internal/eventlog"
	"avdb/internal/rng"
	"avdb/internal/transport"
	"avdb/internal/twopc"
	"avdb/internal/wire"
)

// Config parameterizes one simulation run.
type Config struct {
	// Seed determines everything: workload, fault schedule (when Script
	// is nil), per-site accelerator randomness, chaos coin flips and
	// escrow transfer ids.
	Seed uint64
	// Sites, Items, InitialAmount, NonRegularFraction shape the cluster
	// (defaults: 4 sites, 6 items, 400 units, 1/3 non-regular).
	Sites              int
	Items              int
	InitialAmount      int64
	NonRegularFraction float64
	// Ticks is the number of workload operations (default 250).
	Ticks int
	// Script overrides the generated fault schedule. nil generates one
	// from Seed; an empty non-nil slice runs fault-free.
	Script []chaos.Step
	// Dir is the durable root; empty uses a temp dir removed on return.
	Dir string
	// EventCap bounds each site's event ring (default 1<<14).
	EventCap int
	// Epochs forces epoch-based commit on at every site (2ms virtual
	// interval), so the invariant oracles exercise acknowledgements that
	// ride epoch boundaries. Off (the default) is byte-identical to
	// pre-epoch builds: same trace hashes for the same seed.
	Epochs bool
	// Partitions, when > 0, shards the cluster's key space over that
	// many virtual partitions with replication factor RF (see
	// cluster.Config); zero is full replication, the one-partition map.
	// The oracles check per partition either way: each key converges and
	// conserves AV across its replica set, and a store locality oracle
	// asserts no site holds a foreign key.
	Partitions int
	RF         int

	// Deliberate-bug knobs for oracle self-tests: when MintAt > 0, at
	// that tick MintAmount units of the first regular key's AV are
	// conjured from nothing at site MintSite — a conservation violation
	// the no-mint oracle must catch.
	MintAt     int64
	MintSite   int
	MintAmount int64
}

func (cfg Config) withDefaults() Config {
	if cfg.Sites == 0 {
		cfg.Sites = 4
	}
	if cfg.Items == 0 {
		cfg.Items = 6
	}
	if cfg.InitialAmount == 0 {
		cfg.InitialAmount = 400
	}
	if cfg.NonRegularFraction == 0 {
		cfg.NonRegularFraction = 1.0 / 3
	}
	if cfg.Ticks == 0 {
		cfg.Ticks = 250
	}
	if cfg.EventCap == 0 {
		cfg.EventCap = 1 << 14
	}
	return cfg
}

// Violation is an invariant breach found by an oracle. It is a verdict
// about the system under test, not a harness failure (those are the
// error return of Run).
type Violation struct {
	Oracle string // conservation | no-mint | atomicity | history | convergence | obligations | read-plane | locality | unexpected-error
	Detail string
}

func (v *Violation) Error() string {
	return fmt.Sprintf("sim: %s oracle violated: %s", v.Oracle, v.Detail)
}

// Result summarizes one run.
type Result struct {
	Seed   uint64
	Script []chaos.Step // the fault schedule actually injected
	// TraceHash digests the whole observable schedule: every site's
	// event log, every driver operation with its outcome, and every
	// locally applied 2PC outcome. Two runs of the same Config produce
	// the same hash.
	TraceHash  uint64
	SiteEvents []uint64 // per-site event totals
	Ops        int
	Commits    int // operations applied (nil error)
	Aborts     int
	Unknown    int // ErrCompletionUnknown and kin: maybe applied
	Rejected   int // ErrInsufficientAV, unreachable, timeout: not applied
	Violation  *Violation
}

// opOutcome classifies a driver operation's error.
type opOutcome int

const (
	opCommit   opOutcome = iota // applied
	opAbort                     // definitely not applied anywhere
	opUnknown                   // committed, completion unconfirmed
	opRejected                  // not applied (insufficient AV, unreachable, timed out)
	opFailed                    // unexpected error class — itself a violation
)

var outcomeNames = [...]string{"commit", "abort", "unknown", "rejected", "failed"}

func classify(err error) opOutcome {
	switch {
	case err == nil:
		return opCommit
	case errors.Is(err, twopc.ErrCompletionUnknown):
		return opUnknown
	case errors.Is(err, twopc.ErrAborted):
		return opAbort
	case errors.Is(err, core.ErrInsufficientAV),
		errors.Is(err, transport.ErrUnreachable),
		errors.Is(err, transport.ErrTimeout):
		return opRejected
	default:
		return opFailed
	}
}

// opRecord is one driver operation, part of the reproducibility trace.
type opRecord struct {
	Tick    int64
	Site    int
	Key     string
	Delta   int64
	Outcome opOutcome
}

// GenSteps derives a fault schedule from seed: an ambient drop rate, at
// most one partition window and at most one crash/restart window, all
// positioned pseudo-randomly within the run.
func GenSteps(seed uint64, sites int, ticks int64) []chaos.Step {
	r := rng.New(seed ^ 0xC0FFEEC0FFEE)
	var steps []chaos.Step
	drops := []float64{0, 0.02, 0.05, 0.1}
	if p := drops[r.Intn(len(drops))]; p > 0 {
		steps = append(steps, chaos.Step{At: 0, Op: chaos.OpDrop, Prob: p})
	}
	if sites >= 3 && r.Bool(0.6) {
		start := r.Range(ticks/5, ticks/2)
		dur := r.Range(10, 10+ticks/4)
		split := 1 + r.Intn(sites-1)
		all := make([]wire.SiteID, sites)
		for i, p := range r.Perm(sites) {
			all[i] = wire.SiteID(p)
		}
		steps = append(steps,
			chaos.Step{At: start, Op: chaos.OpPartition, Sites: all, GroupSplit: split},
			chaos.Step{At: start + dur, Op: chaos.OpHeal})
	}
	if sites >= 2 && r.Bool(0.6) {
		victim := wire.SiteID(r.Intn(sites))
		start := r.Range(ticks/3, 2*ticks/3)
		dur := r.Range(10, 10+ticks/4)
		steps = append(steps,
			chaos.Step{At: start, Op: chaos.OpCrash, Sites: []wire.SiteID{victim}},
			chaos.Step{At: start + dur, Op: chaos.OpRestart, Sites: []wire.SiteID{victim}})
	}
	return steps
}

type harness struct {
	cfg Config
	clk *clock.Virtual
	inj *chaos.Injector
	c   *cluster.Cluster

	logs []*eventlog.Log
	ops  []opRecord

	omu      sync.Mutex
	outcomes []twopc.Outcome

	// expected is each regular key's stock implied by the applied
	// operations; appliedNR is, per non-regular key and site, the sum of
	// 2PC commit deltas that site actually applied (from Outcome
	// observations), which is exactly the value the site must hold.
	// expected is fed by the cluster's update observer at the APPLYING
	// site — in a routed world the origin's error is not ground truth (a
	// lost RouteReply means "rejected" at the origin and "committed" at
	// the owner) — so it has its own lock.
	emu       sync.Mutex
	expected  map[string]int64
	appliedNR map[string]map[wire.SiteID]int64
}

// addExpected records a committed Delay Update against the expected
// stock; ignores non-regular keys (not tracked in expected).
func (h *harness) addExpected(key string, delta int64) {
	h.emu.Lock()
	if _, ok := h.expected[key]; ok {
		h.expected[key] += delta
	}
	h.emu.Unlock()
}

// expectedFor reads one key's expected stock under the lock.
func (h *harness) expectedFor(key string) int64 {
	h.emu.Lock()
	defer h.emu.Unlock()
	return h.expected[key]
}

// Run executes one simulation. The error return reports harness
// failures (setup, wedged scheduler, unappliable script); invariant
// breaches are reported in Result.Violation.
func Run(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	steps := cfg.Script
	if steps == nil {
		steps = GenSteps(cfg.Seed, cfg.Sites, int64(cfg.Ticks))
	}
	dir := cfg.Dir
	if dir == "" {
		d, err := os.MkdirTemp("", "avdb-sim-*")
		if err != nil {
			return Result{}, err
		}
		defer os.RemoveAll(d)
		dir = d
	}

	h := &harness{
		cfg:       cfg,
		clk:       clock.NewVirtual(time.Unix(1_700_000_000, 0).UTC()),
		inj:       chaos.NewInjector(cfg.Seed),
		logs:      make([]*eventlog.Log, cfg.Sites),
		expected:  make(map[string]int64),
		appliedNR: make(map[string]map[wire.SiteID]int64),
	}
	for i := range h.logs {
		h.logs[i] = eventlog.New(cfg.EventCap)
		h.logs[i].SetNow(h.clk.Now)
	}
	var epochInterval time.Duration
	if cfg.Epochs {
		// Coarse on the virtual clock: driver ops block on the epoch
		// boundary, so only the timer can close it and the schedule stays
		// deterministic.
		epochInterval = 2 * time.Millisecond
	}
	ccfg := cluster.Config{
		Sites:              cfg.Sites,
		Items:              cfg.Items,
		InitialAmount:      cfg.InitialAmount,
		NonRegularFraction: cfg.NonRegularFraction,
		Seed:               cfg.Seed,
		Dir:                dir,
		Partitions:         cfg.Partitions,
		RF:                 cfg.RF,
		EpochInterval:      epochInterval,
		Clock:              h.clk,
		Interceptor:        h.inj,
		EventsFor:          func(i int) *eventlog.Log { return h.logs[i] },
		XferSalt:           cfg.Seed*0x9E3779B97F4A7C15 | 1,
		TxnObserver: func(o twopc.Outcome) {
			h.omu.Lock()
			h.outcomes = append(h.outcomes, o)
			h.omu.Unlock()
		},
		UpdateObserver:     h.addExpected,
		EscrowTransfers:    true,
		ReadPlane:          true,
		CallTimeout:        250 * time.Millisecond,
		RetransmitInterval: 25 * time.Millisecond,
		RequestTimeout:     250 * time.Millisecond,
		PrepareTimeout:     100 * time.Millisecond,
		LockTimeout:        100 * time.Millisecond,
		FlushPeerTimeout:   200 * time.Millisecond,
		SuspectAfter:       1000 * time.Hour,
	}
	c, err := h.buildCluster(ccfg)
	if err != nil {
		return Result{}, err
	}
	defer c.Close()
	h.c = c
	return h.run(steps)
}

// buildCluster runs cluster.New while driving the virtual clock: with
// epoch commit on, seeding blocks on epoch boundaries before the
// settle/advance scheduler exists, so someone must fire the epoch
// timers. Setup is a single goroutine committing serially, so each
// blocked op arms exactly one timer and the advance count (hence the
// virtual timeline) is deterministic. With epochs off no timer is ever
// pending and the clock never moves — byte-identical to pre-epoch runs.
func (h *harness) buildCluster(ccfg cluster.Config) (*cluster.Cluster, error) {
	type built struct {
		c   *cluster.Cluster
		err error
	}
	done := make(chan built, 1)
	go func() {
		c, err := cluster.New(ccfg)
		done <- built{c, err}
	}()
	for {
		select {
		case b := <-done:
			return b.c, b.err
		default:
			if _, ok := h.clk.AdvanceToNext(); !ok {
				time.Sleep(50 * time.Microsecond)
			}
		}
	}
}

func (h *harness) run(steps []chaos.Step) (Result, error) {
	c, cfg := h.c, h.cfg
	res := Result{Seed: cfg.Seed, Script: steps}
	script := chaos.NewScript(steps)
	env := c.ChaosEnv()
	wl := rng.New(cfg.Seed ^ 0x5EEDFACE)
	ctx := context.Background()

	allKeys := append(append([]string{}, c.RegularKeys...), c.NonRegularKeys...)
	for _, k := range c.RegularKeys {
		h.expected[k] = cfg.InitialAmount
	}
	for _, k := range c.NonRegularKeys {
		h.appliedNR[k] = make(map[wire.SiteID]int64)
	}

	for tick := int64(0); tick < int64(cfg.Ticks); tick++ {
		if _, err := script.Advance(tick, h.inj, env); err != nil {
			return res, fmt.Errorf("sim: seed %d: %w", cfg.Seed, err)
		}
		if cfg.MintAt > 0 && tick == cfg.MintAt && len(c.RegularKeys) > 0 {
			ms := cfg.MintSite % cfg.Sites
			if !c.SiteDown(ms) {
				// Under the scheduler: the durable Define may block on an
				// epoch boundary only a timer can close.
				var merr error
				if err := h.step(func() { merr = c.Sites[ms].DefineAV(c.RegularKeys[0], cfg.MintAmount) }); err != nil {
					return res, err
				}
				if merr != nil {
					return res, fmt.Errorf("sim: mint injection: %w", merr)
				}
			}
		}

		// The workload draws are made whether or not the chosen site is
		// up, so the random stream never depends on fault timing.
		idx := wl.Intn(cfg.Sites)
		key := allKeys[wl.Intn(len(allKeys))]
		delta := wl.Range(1, 5)
		if wl.Bool(0.75) {
			delta = -delta
		}
		if !c.SiteDown(idx) {
			nOut := h.outcomeCount()
			var opRes core.Result
			var opErr error
			if err := h.step(func() { opRes, opErr = c.Update(ctx, idx, key, delta) }); err != nil {
				return res, err
			}
			out := classify(opErr)
			res.Ops++
			h.ops = append(h.ops, opRecord{Tick: tick, Site: idx, Key: key, Delta: delta, Outcome: out})
			switch out {
			case opCommit:
				res.Commits++
			case opAbort:
				res.Aborts++
			case opUnknown:
				res.Unknown++
			case opRejected:
				res.Rejected++
			case opFailed:
				res.Violation = &Violation{Oracle: "unexpected-error",
					Detail: fmt.Sprintf("tick %d site %d key %s delta %d: %v", tick, idx, key, delta, opErr)}
			}
			// Attribute every 2PC apply observed during the operation to
			// it: per site, the applied commit deltas are exactly the
			// value the site must end up holding.
			if applied, ok := h.appliedNR[key]; ok {
				for _, o := range h.outcomesSince(nOut) {
					if o.Commit && !o.Swept {
						applied[o.Site] += delta
					}
				}
			}
			if res.Violation == nil && out == opCommit {
				res.Violation = h.checkRYW(idx, opRes)
			}
			if res.Violation != nil {
				break
			}
		}
		if tick%20 == 19 {
			if err := h.step(func() { _ = c.FlushAll(ctx) }); err != nil {
				return res, err
			}
		}
		if tick%25 == 24 {
			if v := h.checkNoMint(); v != nil {
				res.Violation = v
				break
			}
		}
	}

	if res.Violation == nil {
		if err := h.quiesce(ctx); err != nil {
			return res, err
		}
		res.Violation = h.checkOracles()
	}
	res.TraceHash = h.traceHash()
	for _, l := range h.logs {
		res.SiteEvents = append(res.SiteEvents, l.Total())
	}
	return res, nil
}

// quiesce heals every fault, restarts crashed sites, drains orphaned
// 2PC state and escrow obligations, and converges the replicas.
func (h *harness) quiesce(ctx context.Context) error {
	c := h.c
	h.inj.SetDefault(chaos.LinkFaults{})
	h.inj.Heal()
	for i := range c.Sites {
		if !c.SiteDown(i) {
			continue
		}
		var err error
		if serr := h.step(func() { err = c.RestartSite(i) }); serr != nil {
			return serr
		}
		if err != nil {
			return fmt.Errorf("sim: quiesce restart site %d: %w", i, err)
		}
	}
	for round := 0; round < 6; round++ {
		err := h.step(func() {
			for _, s := range c.Sites {
				s.TwoPC().Sweep(h.clk.Now().Add(time.Hour))
				hctx, cancel := clock.WithTimeout(ctx, h.clk, 2*time.Second)
				s.Heartbeat(hctx)
				_, _ = s.Reconcile(hctx)
				cancel()
			}
			_ = c.FlushAll(ctx)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// settle waits for the network to reach its fixpoint. With epochs off
// and no partitioning that is full quiescence (no message in flight,
// no handler running — the blocking Settle). With epochs on, a handler
// may park on an epoch boundary that only a virtual-clock advance can
// close; with partitioning on, a routed update runs its whole update
// path inside a handler, so the handler can park on a 2PC or transfer
// deadline the same way. Either way full settle is unreachable, so the
// fixpoint is an activity level that holds still: every deliverable
// message delivered, every handler either finished or timer-parked.
func (h *harness) settle() {
	if !h.cfg.Epochs && h.cfg.Partitions == 0 {
		h.c.Net.Settle()
		return
	}
	prev, stable := -1, 0
	for {
		cur := h.c.Net.Activity()
		if cur == 0 {
			return
		}
		if cur == prev {
			if stable++; stable >= 2 {
				return
			}
		} else {
			prev, stable = cur, 0
		}
		time.Sleep(stabilityWindow * time.Nanosecond)
	}
}

// step runs fn to completion against the settle/advance scheduler: wait
// for the network to settle, and once fn can only proceed via a timer,
// jump the virtual clock to the next deadline. Real time passes only in
// sub-millisecond scheduling waits and bounded lock waits inside
// handlers.
func (h *harness) step(fn func()) error {
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	watchdog := time.Now().Add(60 * time.Second)
	stable := 0
	for {
		select {
		case <-done:
			return nil
		default:
		}
		h.settle()
		// Give goroutines unblocked by the settle a moment to either
		// finish fn or register/stop their next timer, then re-settle;
		// only advance once the pending-timer set has held still for two
		// consecutive windows.
		pending := h.clk.Pending()
		if waitDone(done, stabilityWindow*time.Nanosecond) {
			return nil
		}
		h.settle()
		select {
		case <-done:
			return nil
		default:
		}
		if h.clk.Pending() != pending {
			stable = 0
			continue
		}
		if stable++; stable < 2 {
			continue
		}
		stable = 0
		if othersRunnable() {
			// Some goroutine can still move without a timer (fn between
			// two messages, say, applying its local commit): let it run,
			// and re-establish stability from scratch.
		} else if _, ok := h.clk.AdvanceToNext(); !ok {
			// No virtual timer pending: fn is in a real-time lock wait or
			// still being scheduled. Give it real time.
			if waitDone(done, 2*time.Millisecond) {
				return nil
			}
		}
		if time.Now().After(watchdog) {
			return fmt.Errorf("sim: seed %d: scheduler wedged (operation neither finished nor registered a timer for 60s)", h.cfg.Seed)
		}
	}
}

// othersRunnable reports whether any goroutine of the simulated system
// other than the caller is running, runnable or in a system call, so
// could make progress without a virtual-clock advance. The signals step
// watches (network activity, the pending-timer set) cannot tell such a
// goroutine from one parked on a timer, and on a loaded machine it can
// stay descheduled for longer than any stability window; advancing then
// would stamp its later events at a later virtual time than an unloaded
// run of the same seed, breaking bit-reproducibility.
func othersRunnable() bool {
	buf := make([]byte, 64<<10)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	// Records are blank-line separated; the first is the caller's own.
	records := bytes.Split(buf, []byte("\n\n"))
	for _, g := range records[1:] {
		if !bytes.Contains(g, []byte("avdb/")) {
			continue // the test framework's and the runtime's own
		}
		// "goroutine 42 [chan receive, 3 minutes]:"
		header, _, _ := bytes.Cut(g, []byte("\n"))
		_, state, ok := bytes.Cut(header, []byte(" ["))
		if !ok {
			continue
		}
		state, _, _ = bytes.Cut(state, []byte("]"))
		state, _, _ = bytes.Cut(state, []byte(","))
		switch string(state) {
		case "running", "runnable", "syscall":
			return true
		}
	}
	return false
}

func waitDone(done <-chan struct{}, d time.Duration) bool {
	select {
	case <-done:
		return true
	case <-time.After(d):
		return false
	}
}

func (h *harness) outcomeCount() int {
	h.omu.Lock()
	defer h.omu.Unlock()
	return len(h.outcomes)
}

func (h *harness) outcomesSince(n int) []twopc.Outcome {
	h.omu.Lock()
	defer h.omu.Unlock()
	return append([]twopc.Outcome(nil), h.outcomes[n:]...)
}

// checkNoMint is the continuous conservation oracle, run between
// operations while the network is settled. Escrowed units are excluded
// from the sum because an in-flight transfer legitimately double-counts
// until its obligation settles; free+held volume alone can never exceed
// the stock implied by the applied operations. It only runs while every
// site is up (a crashed site's in-memory table is not authoritative).
func (h *harness) checkNoMint() *Violation {
	for i := range h.c.Sites {
		if h.c.SiteDown(i) {
			return nil
		}
	}
	for _, key := range h.c.RegularKeys {
		var sum int64
		for _, s := range h.c.Sites {
			sum += s.AV().Total(key) - s.AV().Escrowed(key)
		}
		if want := h.expectedFor(key); sum > want {
			return &Violation{Oracle: "no-mint",
				Detail: fmt.Sprintf("key %s: free+held AV %d exceeds applied stock %d mid-run", key, sum, want)}
		}
	}
	return nil
}

// checkRYW asserts read-your-writes after a committed operation: the
// token minted by the commit must be satisfiable at the read plane of
// the site that applied it — the origin for local commits, the remote
// owner for routed updates (the token carries the applying site's ID).
// The plane applied the batch on the goroutine that committed it, so
// unless a lower-LSN batch on another stripe is still on its way into
// the plane the token is satisfied without waiting. The deadline is
// real time on purpose: the plane is not part of the hashed trace, and
// registering a virtual-clock timer here would perturb
// bit-reproducibility.
func (h *harness) checkRYW(idx int, opRes core.Result) *Violation {
	s := h.c.Sites[idx]
	if opRes.Site != wire.SiteID(idx) && int(opRes.Site) < len(h.c.Sites) {
		s = h.c.Sites[int(opRes.Site)]
	}
	p := s.ReadPlane()
	if p == nil || opRes.LSN == 0 {
		return nil
	}
	wctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := p.WaitFor(wctx, s.Token(opRes)); err != nil {
		return &Violation{Oracle: "read-plane",
			Detail: fmt.Sprintf("site %d: RYW token %v unsatisfied after commit: %v", idx, s.Token(opRes), err)}
	}
	if n := p.Stats().RYWViolations; n != 0 {
		return &Violation{Oracle: "read-plane",
			Detail: fmt.Sprintf("site %d: %d RYW waits woke before the model applied their LSN", idx, n)}
	}
	return nil
}

// checkReadPlane is the post-quiescence read-plane oracle: every
// materialized stock view must converge to exactly its authoritative
// engine's state (no stale, phantom, or missing keys), and no
// read-your-writes wait may ever have been satisfied by a model that
// had not applied the token's LSN. Deadlines are real time for the
// same reason as checkRYW.
func (h *harness) checkReadPlane() *Violation {
	for i, s := range h.c.Sites {
		p := s.ReadPlane()
		if p == nil {
			continue
		}
		wctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		err := p.WaitCaughtUp(wctx)
		cancel()
		if err != nil {
			return &Violation{Oracle: "read-plane",
				Detail: fmt.Sprintf("site %d: stock view never caught up to its engine: %v", i, err)}
		}
		amounts, lsn, err := s.Engine().SnapshotAmounts()
		if err != nil {
			return &Violation{Oracle: "read-plane",
				Detail: fmt.Sprintf("site %d: engine snapshot: %v", i, err)}
		}
		snap := p.Stock()
		if snap.AppliedLSN < lsn {
			return &Violation{Oracle: "read-plane",
				Detail: fmt.Sprintf("site %d: watermark %d behind engine LSN %d after catch-up", i, snap.AppliedLSN, lsn)}
		}
		for k, want := range amounts {
			got, ok := snap.Amount(k)
			if !ok {
				return &Violation{Oracle: "read-plane",
					Detail: fmt.Sprintf("site %d: key %s missing from stock view (engine holds %d)", i, k, want)}
			}
			if got != want {
				return &Violation{Oracle: "read-plane",
					Detail: fmt.Sprintf("site %d: key %s stock view %d, engine %d", i, k, got, want)}
			}
		}
		if snap.Len() != len(amounts) {
			return &Violation{Oracle: "read-plane",
				Detail: fmt.Sprintf("site %d: stock view has %d keys, engine %d (phantom rows)", i, snap.Len(), len(amounts))}
		}
		if n := p.Stats().RYWViolations; n != 0 {
			return &Violation{Oracle: "read-plane",
				Detail: fmt.Sprintf("site %d: %d RYW waits woke before the model applied their LSN", i, n)}
		}
	}
	return nil
}

// checkOracles evaluates every post-quiescence invariant.
func (h *harness) checkOracles() *Violation {
	c := h.c

	// 2PC atomicity: no site may apply a commit for a transaction any
	// other site aborted. Presumed-abort sweeps of orphaned prepares are
	// excluded — they are the one legitimate divergence, and the history
	// oracle below accounts for them exactly.
	commits := make(map[uint64][]wire.SiteID)
	aborts := make(map[uint64][]wire.SiteID)
	h.omu.Lock()
	outcomes := append([]twopc.Outcome(nil), h.outcomes...)
	h.omu.Unlock()
	for _, o := range outcomes {
		if o.Swept {
			continue
		}
		if o.Commit {
			commits[o.TxnID] = append(commits[o.TxnID], o.Site)
		} else {
			aborts[o.TxnID] = append(aborts[o.TxnID], o.Site)
		}
	}
	for id, cs := range commits {
		if as := aborts[id]; len(as) > 0 {
			return &Violation{Oracle: "atomicity",
				Detail: fmt.Sprintf("txn %d committed at sites %v but aborted at sites %v", id, cs, as)}
		}
	}

	// Regular keys: replicas converged, value equals the applied
	// history, AV conservation exact, no leaked holds or escrow.
	for _, key := range c.RegularKeys {
		v, err := c.ConvergedValue(key)
		if err != nil {
			return &Violation{Oracle: "convergence", Detail: err.Error()}
		}
		if want := h.expectedFor(key); v != want {
			return &Violation{Oracle: "history",
				Detail: fmt.Sprintf("key %s converged to %d, applied operations imply %d", key, v, want)}
		}
		var avSum int64
		for _, s := range c.Sites {
			avSum += s.AV().Total(key)
		}
		if avSum > v {
			return &Violation{Oracle: "no-mint",
				Detail: fmt.Sprintf("key %s: AV sum %d exceeds global stock %d", key, avSum, v)}
		}
		if avSum < v {
			return &Violation{Oracle: "conservation",
				Detail: fmt.Sprintf("key %s: AV sum %d lost slack against global stock %d", key, avSum, v)}
		}
		for i, s := range c.Sites {
			if held := s.AV().Held(key); held != 0 {
				return &Violation{Oracle: "conservation",
					Detail: fmt.Sprintf("key %s site %d leaked hold of %d", key, i, held)}
			}
			if esc := s.AV().Escrowed(key); esc != 0 {
				return &Violation{Oracle: "conservation",
					Detail: fmt.Sprintf("key %s site %d left %d in escrow", key, i, esc)}
			}
		}
	}

	// Escrow obligations must all have been re-driven to completion.
	for i, s := range c.Sites {
		if n := len(s.Accelerator().Obligations()); n != 0 {
			return &Violation{Oracle: "obligations",
				Detail: fmt.Sprintf("site %d still holds %d escrow obligations after quiesce", i, n)}
		}
	}

	// Non-regular keys: every site must hold exactly its applied 2PC
	// commit history — the linearizability check of the Immediate Update
	// path. Divergence is legitimate only when a commit decision never
	// reached a participant (its prepare was swept), and then the
	// site's value must still equal precisely the commits it did apply.
	for _, key := range c.NonRegularKeys {
		for _, i := range c.HostSitesFor(key) {
			got, err := c.Read(i, key)
			if err != nil {
				return &Violation{Oracle: "history", Detail: fmt.Sprintf("key %s site %d: %v", key, i, err)}
			}
			want := h.cfg.InitialAmount + h.appliedNR[key][wire.SiteID(i)]
			if got != want {
				return &Violation{Oracle: "history",
					Detail: fmt.Sprintf("key %s site %d holds %d, its applied commit history implies %d", key, i, got, want)}
			}
		}
	}

	// Partial replication held: no site's store ever received a key
	// outside its hosted partitions, and none lost a hosted one.
	if err := c.CheckStoreLocality(); err != nil {
		return &Violation{Oracle: "locality", Detail: err.Error()}
	}

	return h.checkReadPlane()
}

// traceHash digests the run's observable schedule: per-site event logs
// (timestamps included — the virtual clock makes them deterministic),
// the driver's operation log, and the sorted 2PC outcome set.
func (h *harness) traceHash() uint64 {
	fh := fnv.New64a()
	for i, l := range h.logs {
		fmt.Fprintf(fh, "site %d total %d\n", i, l.Total())
		for _, e := range l.Snapshot() {
			fmt.Fprintf(fh, "%d %d %s %s %s\n", e.Time.UnixNano(), e.Site, e.Type, e.Key, e.Detail)
		}
	}
	for _, op := range h.ops {
		fmt.Fprintf(fh, "op %d %d %s %d %s\n", op.Tick, op.Site, op.Key, op.Delta, outcomeNames[op.Outcome])
	}
	h.omu.Lock()
	outcomes := append([]twopc.Outcome(nil), h.outcomes...)
	h.omu.Unlock()
	// 2PC applies on different sites race only in observation order, not
	// in effect; sort for a stable digest.
	sort.Slice(outcomes, func(i, j int) bool {
		a, b := outcomes[i], outcomes[j]
		if a.TxnID != b.TxnID {
			return a.TxnID < b.TxnID
		}
		if a.Site != b.Site {
			return a.Site < b.Site
		}
		return !a.Swept && b.Swept
	})
	for _, o := range outcomes {
		fmt.Fprintf(fh, "txn %d %d %v %v\n", o.TxnID, o.Site, o.Commit, o.Swept)
	}
	return fh.Sum64()
}
