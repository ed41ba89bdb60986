// Package site assembles one complete avdb site (Fig. 2 of the paper):
// the local database engine with its transaction manager, the AV
// management table, the accelerator, the Immediate-Update (2PC) engine,
// the lazy replicator, and the network endpoint with its message
// dispatch. A process embedding a Site gets the paper's full node; a
// cluster of Sites on any transport is the paper's integrated system.
package site

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"avdb/internal/av"
	"avdb/internal/avstore"
	"avdb/internal/clock"
	"avdb/internal/core"
	"avdb/internal/epoch"
	"avdb/internal/eventlog"
	"avdb/internal/failure"
	"avdb/internal/lockmgr"
	"avdb/internal/partition"
	"avdb/internal/readplane"
	"avdb/internal/replica"
	"avdb/internal/storage"
	"avdb/internal/strategy"
	"avdb/internal/trace"
	"avdb/internal/transport"
	"avdb/internal/twopc"
	"avdb/internal/txn"
	"avdb/internal/wal"
	"avdb/internal/wire"
)

// Config parameterizes a Site.
type Config struct {
	// ID is this site's identity; Base hosts the primary copy (the maker).
	ID, Base wire.SiteID
	// Peers lists every other site in the system.
	Peers []wire.SiteID
	// StorageDir is the data directory; empty runs in memory.
	StorageDir string
	// PersistAV journals the AV table under StorageDir/av so the site's
	// allowable volume survives restarts (requires StorageDir).
	PersistAV bool
	// NoSync disables WAL fsync (experiments).
	NoSync bool
	// WALMaxSyncDelay stalls each WAL group-commit leader to widen fsync
	// batches (0 = commit immediately; batching then comes only from
	// concurrency). Applies to both the storage WAL and the AV journal.
	WALMaxSyncDelay time.Duration
	// WALStats, when non-nil, aggregates fsync/group-commit counters
	// across the storage WAL and the AV journal (exported on /metrics by
	// avnode when the admin server is enabled).
	WALStats *wal.Stats
	// EpochInterval, when positive on a durable site, turns on
	// epoch-based commit: acknowledgements (storage Apply and AV journal
	// ops) ride epoch boundaries, one covering fsync per epoch, instead
	// of per-commit group commits. Zero keeps the per-commit path and
	// leaves outputs byte-identical to pre-epoch builds.
	EpochInterval time.Duration
	// EpochMaxCommits closes an epoch early at this many commits
	// (0 means epoch.DefaultMaxCommits; negative disables).
	EpochMaxCommits int
	// EpochAdaptive turns on the adaptive interval controller in both
	// epoch managers: the interval widens under load and collapses when
	// idle, clamped to [EpochMinInterval, EpochMaxInterval] (see
	// epoch.Options). Requires EpochInterval > 0.
	EpochAdaptive    bool
	EpochMinInterval time.Duration
	EpochMaxInterval time.Duration
	// EpochAlignFlush aligns replication flushes to epoch boundaries:
	// outbound delta windows are snapshotted when the durable epoch
	// advances (the epoch's covering fsync already made every entry in
	// the window durable) and the flush loop is kicked right after each
	// close, so one fsync covers both the ack batch and the replication
	// watermark advance. Requires EpochInterval > 0; off keeps flushing
	// on its own timer, windows uncapped.
	EpochAlignFlush bool
	// EpochStats, when non-nil, aggregates epoch counters across the
	// storage engine's and AV journal's managers.
	EpochStats *epoch.Stats
	// Policy is the AV selecting/deciding policy (default SODA99).
	Policy strategy.Policy
	// Passes bounds AV gathering passes per update.
	Passes int
	// Seed feeds policy randomness.
	Seed uint64
	// Demand optionally feeds a demand-aware deciding policy with the
	// site's own consumption stream.
	Demand core.DemandObserver
	// DisableGossip turns off AV-view piggybacking (ablation A7).
	DisableGossip bool
	// Events, when non-nil, receives structured protocol events (inbound
	// messages and update outcomes) for observability.
	Events *eventlog.Log
	// Tracer records distributed-tracing spans for this site's protocol
	// activity (nil disables tracing). Sites of one cluster may share a
	// tracer; spans carry the site ID.
	Tracer *trace.Tracer
	// Clock drives the background loops (default the real clock; tests
	// inject a clock.Virtual to step them deterministically).
	Clock clock.Clock
	// LockTimeout bounds local lock waits (default 2s).
	LockTimeout time.Duration
	// RequestTimeout bounds AV transfer calls.
	RequestTimeout time.Duration
	// PrepareTimeout bounds 2PC phases.
	PrepareTimeout time.Duration
	// FlushInterval, when > 0, starts a background loop that pushes the
	// replication backlog every interval. Zero leaves flushing to the
	// caller (deterministic experiments flush explicitly).
	FlushInterval time.Duration
	// SweepInterval, when > 0, starts a background loop that aborts
	// expired prepared 2PC transactions.
	SweepInterval time.Duration
	// HeartbeatInterval, when > 0, starts a background loop that pings
	// every peer and feeds the failure detector, and re-drives any
	// outstanding escrow obligations (crash recovery settles lazily).
	HeartbeatInterval time.Duration
	// SuspectAfter is how long a peer may fail consecutively before the
	// detector suspects it even below the failure-count threshold
	// (default failure.DefaultSuspectAfter).
	SuspectAfter time.Duration
	// FlushPeerTimeout bounds each peer's exchange within one replication
	// flush so a single dead peer cannot stall the fan-out.
	FlushPeerTimeout time.Duration
	// FlushBackoff, when BaseDelay > 0, skips peers whose flushes keep
	// failing for an exponentially growing window (backlog is retained).
	FlushBackoff failure.Policy
	// EscrowTransfers makes remote AV grants escrowed two-phase transfers
	// that a crash can only shrink, never mint. Off by default; the
	// healthy-path experiments are byte-identical without it.
	EscrowTransfers bool
	// XferSalt, when non-zero, makes escrow transfer ids deterministic
	// instead of wall-clock seeded (see core.Config.XferSalt). It must
	// differ across restarts of the same site.
	XferSalt uint64
	// TxnIDEpoch distinguishes this incarnation of the site's 2PC engine
	// from previous ones, so a restarted coordinator never re-mints a
	// transaction id it already used (see twopc.Options.IDEpoch).
	TxnIDEpoch uint64
	// TxnObserver, when non-nil, receives every locally applied 2PC
	// outcome (see twopc.Options.Observer). The simulator's atomicity
	// oracle hangs off this.
	TxnObserver func(twopc.Outcome)
	// ReadPlane materializes the event-sourced read models (per-site
	// stock, cross-site global position, top-K hot keys) off the
	// storage apply stream, with read-your-writes session tokens. The
	// plane is the engine's apply observer and folds every batch in on
	// the committing goroutine; it never touches Events, so enabling it
	// never perturbs recorded protocol traces.
	ReadPlane bool
	// ReadPlaneTopK bounds the hot view (default 10).
	ReadPlaneTopK int
	// Partitions, when non-nil, shards the key space: this site hosts
	// (stores, anti-entropies, gossips, accounts AV for) only the
	// partitions the map assigns it, and forwards updates for foreign
	// keys to the owning replica set (see routing.go). Nil keeps full
	// replication — every legacy code path byte-identical.
	Partitions *partition.Map
	// UpdateObserver, when non-nil, fires exactly once per Delay Update
	// committed at THIS site — including updates that arrived routed
	// from another site. The simulator's per-partition conservation
	// oracle hangs off this: in a routed world the applying site, not
	// the origin, is the ground truth for what committed.
	UpdateObserver func(key string, delta int64)
}

// Site is one running node.
type Site struct {
	cfg   Config
	eng   *storage.Engine
	tm    *txn.Manager
	avt   core.AVTable
	avs   *avstore.Store // non-nil when PersistAV
	iu    *twopc.Engine
	repl  *replica.Replicator
	accel *core.Accelerator
	node  transport.Node
	det   *failure.Detector
	plane *readplane.Plane // nil unless cfg.ReadPlane

	// Partition routing state (nil/zero when partitioning is off). The
	// map pointer is atomic because routed replies can refresh it while
	// updates are in flight.
	pm             atomic.Pointer[partition.Map]
	routeForwarded atomic.Uint64
	routeServed    atomic.Uint64
	routeMisroutes atomic.Uint64
	routeRefreshes atomic.Uint64

	// flushKick, non-nil when EpochAlignFlush is on, wakes the flush
	// loop right after each durable-epoch advance (capacity 1; a
	// pending kick absorbs further closes).
	flushKick chan struct{}

	stop      chan struct{}
	closeOnce sync.Once
	closeErr  error
	wg        sync.WaitGroup
}

// Open builds the site and registers it on the network.
func Open(cfg Config, network transport.Network) (*Site, error) {
	if cfg.LockTimeout <= 0 {
		cfg.LockTimeout = 2 * time.Second
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	s := &Site{
		cfg:  cfg,
		stop: make(chan struct{}),
	}
	stOpts := storage.Options{
		Dir:              cfg.StorageDir,
		NoSync:           cfg.NoSync,
		MaxSyncDelay:     cfg.WALMaxSyncDelay,
		Stats:            cfg.WALStats,
		EpochInterval:    cfg.EpochInterval,
		EpochMaxCommits:  cfg.EpochMaxCommits,
		EpochAdaptive:    cfg.EpochAdaptive,
		EpochMinInterval: cfg.EpochMinInterval,
		EpochMaxInterval: cfg.EpochMaxInterval,
		Clock:            cfg.Clock,
		EpochStats:       cfg.EpochStats,
	}
	if cfg.EpochAlignFlush && cfg.EpochInterval > 0 && cfg.StorageDir != "" {
		// Epoch-aligned replication: each durable-epoch advance snapshots
		// the outbound window fence and kicks the flush loop. The hook
		// cannot fire before Open returns (the first epoch needs a
		// commit), so reading s.repl here is safe.
		s.flushKick = make(chan struct{}, 1)
		stOpts.EpochOnDurable = func(uint64) {
			if r := s.repl; r != nil {
				r.Fence()
			}
			select {
			case s.flushKick <- struct{}{}:
			default: // a kick is already pending
			}
		}
	}
	eng, err := storage.Open(stOpts)
	if err != nil {
		return nil, err
	}
	s.eng = eng
	if cfg.Partitions != nil {
		s.pm.Store(cfg.Partitions)
	}
	if cfg.PersistAV {
		if cfg.StorageDir == "" {
			eng.Close()
			return nil, fmt.Errorf("site: PersistAV requires StorageDir")
		}
		avs, err := avstore.Open(filepath.Join(cfg.StorageDir, "av"), avstore.Options{
			NoSync:           cfg.NoSync,
			MaxSyncDelay:     cfg.WALMaxSyncDelay,
			Stats:            cfg.WALStats,
			EpochInterval:    cfg.EpochInterval,
			EpochMaxCommits:  cfg.EpochMaxCommits,
			EpochAdaptive:    cfg.EpochAdaptive,
			EpochMinInterval: cfg.EpochMinInterval,
			EpochMaxInterval: cfg.EpochMaxInterval,
			Clock:            cfg.Clock,
			EpochStats:       cfg.EpochStats,
		})
		if err != nil {
			eng.Close()
			return nil, err
		}
		s.avs = avs
		s.avt = avs
	} else {
		s.avt = av.NewTable()
	}
	s.tm = txn.NewManager(eng, lockmgr.Options{WaitTimeout: cfg.LockTimeout})
	iuOpts := twopc.Options{
		Site:           cfg.ID,
		Base:           cfg.Base,
		PrepareTimeout: cfg.PrepareTimeout,
		Tracer:         cfg.Tracer,
		Clock:          cfg.Clock,
		Observer:       cfg.TxnObserver,
		IDEpoch:        cfg.TxnIDEpoch,
		Epochs:         eng.Epochs(),
	}
	if cfg.Partitions != nil {
		// Sharded mode: each key's primary is its partition owner, not
		// the single cluster-wide base.
		iuOpts.BaseFor = func(key string) wire.SiteID {
			return s.pm.Load().OwnerOf(key)
		}
	}
	s.iu = twopc.New(iuOpts, s.tm)
	if cfg.StorageDir != "" {
		// A durable engine needs durable replication state, or a restart
		// could double-apply retransmissions and lose unpropagated deltas.
		s.repl, err = replica.NewDurable(cfg.ID, eng)
		if err != nil {
			if s.avs != nil {
				s.avs.Close()
			}
			eng.Close()
			return nil, err
		}
	} else {
		s.repl = replica.New(cfg.ID, eng)
	}
	if cfg.FlushPeerTimeout > 0 || cfg.FlushBackoff.BaseDelay > 0 {
		s.repl.SetFlushPolicy(cfg.FlushPeerTimeout, cfg.FlushBackoff, cfg.Clock)
	}
	if s.flushKick != nil {
		s.repl.AlignToEpochs()
	}
	if cfg.Partitions != nil {
		// Partial replication: deltas flow only to sites hosting the
		// key's partition, and inbound deltas for foreign partitions
		// are acknowledged but never applied.
		s.repl.SetPartitionFilter(
			func(peer wire.SiteID, key string) bool { return s.pm.Load().HostsKey(peer, key) },
			func(key string) bool { return s.pm.Load().HostsKey(cfg.ID, key) },
		)
	}
	s.det = failure.NewDetector(cfg.SuspectAfter, cfg.Clock)
	coreCfg := core.Config{
		Site:           cfg.ID,
		Base:           cfg.Base,
		Peers:          cfg.Peers,
		Policy:         cfg.Policy,
		Passes:         cfg.Passes,
		RequestTimeout: cfg.RequestTimeout,
		Seed:           cfg.Seed,
		Demand:         cfg.Demand,
		DisableGossip:  cfg.DisableGossip,
		Tracer:         cfg.Tracer,
		Detector:       s.det,
		Escrow:         cfg.EscrowTransfers,
		Clock:          cfg.Clock,
		XferSalt:       cfg.XferSalt,
		OnCommit:       cfg.UpdateObserver,
	}
	if cfg.Partitions != nil {
		// AV gathering and gossip stay inside the key's replica set.
		coreCfg.PeersFor = func(key string) []wire.SiteID {
			return s.pm.Load().PeersFor(cfg.ID, key)
		}
	}
	s.accel = core.New(coreCfg, s.avt, s.tm, s.iu, s.repl)

	if cfg.ReadPlane {
		s.plane = readplane.New(readplane.Config{
			Site:   cfg.ID,
			Engine: eng,
			AV:     s.avt,
			View:   s.accel.View(),
			Peers:  cfg.Peers,
			Now:    cfg.Clock.Now,
			TopK:   cfg.ReadPlaneTopK,
		})
		// Observer before snapshot: a batch applied from here on is
		// either in Start's snapshot or parked in the plane.
		eng.SetApplyObserver(s.plane.Apply)
		if err := s.plane.Start(); err != nil {
			if s.avs != nil {
				s.avs.Close()
			}
			eng.Close()
			return nil, err
		}
	}

	node, err := network.Open(cfg.ID, s.handle)
	if err != nil {
		if s.plane != nil {
			s.plane.Close()
		}
		if s.avs != nil {
			s.avs.Close()
		}
		eng.Close()
		return nil, err
	}
	s.node = node
	s.iu.SetNode(node)
	s.accel.SetNode(node)

	if cfg.FlushInterval > 0 {
		s.wg.Add(1)
		go s.flushLoop()
	}
	if cfg.SweepInterval > 0 {
		s.wg.Add(1)
		go s.sweepLoop()
	}
	if cfg.HeartbeatInterval > 0 {
		s.wg.Add(1)
		go s.heartbeatLoop()
	}
	return s, nil
}

// Reopen restarts a durable site from its on-disk state (WAL + AV
// journal) after a crash or clean shutdown. It is Open with the
// durability requirement made explicit: the storage engine replays its
// WAL, the AV store re-establishes balances, pending escrows and
// unsettled obligations, and the replicator resumes from its durable
// cursor. Outstanding escrow obligations are then re-driven lazily by
// the heartbeat loop (or an explicit Reconcile call).
func Reopen(cfg Config, network transport.Network) (*Site, error) {
	if cfg.StorageDir == "" {
		return nil, fmt.Errorf("site: Reopen requires StorageDir (nothing to recover from)")
	}
	return Open(cfg, network)
}

// event records an observability event when a log is configured.
func (s *Site) event(typ, key, format string, args ...any) {
	if s.cfg.Events != nil {
		s.cfg.Events.Appendf(s.cfg.ID, typ, key, format, args...)
	}
}

// handle dispatches one inbound protocol message. ctx carries the
// sender's trace context, so handler spans parent to the remote caller.
func (s *Site) handle(ctx context.Context, from wire.SiteID, msg wire.Message) wire.Message {
	if s.cfg.Events != nil {
		key := ""
		switch m := msg.(type) {
		case *wire.AVRequest:
			key = m.Key
		case *wire.IUPrepare:
			key = m.Key
		case *wire.Read:
			key = m.Key
		}
		s.event("recv."+msg.Kind().String(), key, "from=%d", from)
	}
	switch m := msg.(type) {
	case *wire.RouteUpdate:
		return s.handleRouteUpdate(ctx, from, m)
	case *wire.AVRequest:
		return s.accel.HandleAVRequest(ctx, from, m)
	case *wire.AVSettle:
		ack, err := s.accel.HandleSettle(ctx, from, m)
		if err != nil {
			return nil
		}
		return ack
	case *wire.Ping:
		return &wire.Pong{}
	case *wire.IUPrepare:
		return s.iu.HandlePrepare(ctx, from, m)
	case *wire.IUDecision:
		return s.iu.HandleDecision(ctx, from, m)
	case *wire.DeltaSync:
		ack, err := s.repl.HandleSync(m)
		if err != nil {
			// Report what we have applied; the sender keeps the backlog.
			return &wire.DeltaAck{Origin: m.Origin, UpTo: s.repl.AppliedFrom(m.Origin)}
		}
		return ack
	case *wire.DeltaAck:
		// One-way ack from a peer that pulled our deltas.
		s.repl.HandleAck(from, m.UpTo)
		return nil
	case *wire.SyncPull:
		if sync := s.repl.PendingSyncFor(from); sync != nil {
			return sync
		}
		return &wire.DeltaSync{Origin: s.cfg.ID}
	case *wire.Read:
		n, err := s.eng.Amount(m.Key)
		return &wire.ReadReply{OK: err == nil, Value: n}
	default:
		return nil
	}
}

// flushLoop pushes the replication backlog periodically, and — when
// epoch-aligned flushing is on — immediately after each durable-epoch
// advance, so the freshly fenced window ships without waiting out the
// rest of the flush interval. s.flushKick is nil when alignment is off
// and the nil channel simply never fires.
func (s *Site) flushLoop() {
	defer s.wg.Done()
	for {
		select {
		case <-s.stop:
			return
		case <-s.cfg.Clock.After(s.cfg.FlushInterval):
		case <-s.flushKick:
		}
		ctx, cancel := clock.WithTimeout(context.Background(), s.cfg.Clock, s.cfg.FlushInterval)
		_ = s.repl.Flush(ctx, s.node, s.cfg.Peers)
		cancel()
	}
}

// heartbeatLoop probes every peer each interval, feeding the failure
// detector so AV gathering fails over away from dead peers, and
// re-drives outstanding escrow obligations left by failed transfers or
// a restart.
func (s *Site) heartbeatLoop() {
	defer s.wg.Done()
	for {
		select {
		case <-s.stop:
			return
		case <-s.cfg.Clock.After(s.cfg.HeartbeatInterval):
			ctx, cancel := clock.WithTimeout(context.Background(), s.cfg.Clock, s.cfg.HeartbeatInterval)
			s.Heartbeat(ctx)
			cancel()
		}
	}
}

// Heartbeat performs one round of what heartbeatLoop does periodically:
// ping every peer (reporting each outcome to the failure detector) and,
// when escrow obligations are outstanding, try to settle them. Exposed
// so deterministic tests and clusters can step liveness explicitly.
func (s *Site) Heartbeat(ctx context.Context) {
	for _, p := range s.cfg.Peers {
		if _, err := s.node.Call(ctx, p, &wire.Ping{}); err != nil {
			s.det.ReportFailure(p)
		} else {
			s.det.ReportSuccess(p)
		}
	}
	if len(s.accel.Obligations()) > 0 {
		if _, err := s.accel.Reconcile(ctx); err != nil {
			s.event("reconcile.failed", "", "err=%v", err)
		}
	}
}

// Reconcile re-drives this site's outstanding escrow obligations
// (settle credits it holds, cancel grants that never arrived) and
// returns how many remain unresolved.
func (s *Site) Reconcile(ctx context.Context) (int, error) {
	return s.accel.Reconcile(ctx)
}

// Detector returns the site's failure detector.
func (s *Site) Detector() *failure.Detector { return s.det }

// sweepLoop aborts expired prepared transactions periodically.
func (s *Site) sweepLoop() {
	defer s.wg.Done()
	for {
		select {
		case <-s.stop:
			return
		case <-s.cfg.Clock.After(s.cfg.SweepInterval):
			s.iu.Sweep(s.cfg.Clock.Now())
		}
	}
}

// Seed loads initial records (the paper's "all data are assumed to be
// delivered to all the sites initially from the base").
func (s *Site) Seed(recs ...storage.Record) error {
	ops := make([]storage.Op, len(recs))
	for i, r := range recs {
		ops[i] = storage.PutOp(r)
	}
	return s.eng.Apply(ops...)
}

// DefineAV declares this site's initial allowable volume for key,
// marking it a Delay-Update datum here.
func (s *Site) DefineAV(key string, volume int64) error {
	return s.avt.Define(key, volume)
}

// Update applies delta to key through the accelerator. When tracing is
// on, the whole update becomes one trace rooted here; remote spans the
// protocol causes (AV grants, 2PC votes) link back to it. Under a
// partition map, updates for keys this site does not host are
// forwarded to the owning replica set (see routing.go).
func (s *Site) Update(ctx context.Context, key string, delta int64) (core.Result, error) {
	if pm := s.pm.Load(); pm != nil && !pm.HostsKey(s.cfg.ID, key) {
		return s.forwardUpdate(ctx, key, delta)
	}
	return s.updateLocal(ctx, key, delta)
}

// updateLocal executes an update on this site's own accelerator,
// bypassing the routing check — the serve path for routed updates.
func (s *Site) updateLocal(ctx context.Context, key string, delta int64) (core.Result, error) {
	ctx, sp := s.cfg.Tracer.Start(ctx, s.cfg.ID, "update")
	res, err := s.accel.Update(ctx, key, delta)
	if sp != nil {
		sp.SetAttr("key", key)
		sp.SetAttr("path", res.Path.String())
		sp.Finish(err)
	}
	if err != nil {
		s.event("update.failed", key, "delta=%d err=%v", delta, err)
	} else {
		s.event("update."+res.Path.String(), key, "delta=%d rounds=%d transferred=%d",
			delta, res.Rounds, res.Transferred)
	}
	return res, err
}

// Read returns the local value of key.
func (s *Site) Read(key string) (int64, error) { return s.eng.Amount(key) }

// ReadRemote fetches key's value as another site currently sees it.
func (s *Site) ReadRemote(ctx context.Context, from wire.SiteID, key string) (int64, error) {
	reply, err := s.node.Call(ctx, from, &wire.Read{Key: key})
	if err != nil {
		return 0, err
	}
	rr, ok := reply.(*wire.ReadReply)
	if !ok || !rr.OK {
		return 0, fmt.Errorf("site: remote read of %q failed", key)
	}
	return rr.Value, nil
}

// Flush pushes the replication backlog to all peers once.
func (s *Site) Flush(ctx context.Context) error {
	return s.repl.Flush(ctx, s.node, s.cfg.Peers)
}

// Pull fetches and applies every reachable peer's pending deltas — the
// inverse of Flush. After Pull, this site's replica reflects all
// updates committed at the answering peers.
func (s *Site) Pull(ctx context.Context) error {
	return s.repl.Pull(ctx, s.node, s.cfg.Peers)
}

// ReadFresh pulls from all reachable peers and then reads locally: an
// up-to-date read without waiting for the lazy push cycle. (It is as
// fresh as the moment each peer answered; concurrent updates may still
// land afterwards — Immediate Update is the tool for reads that must
// serialize with writers.)
func (s *Site) ReadFresh(ctx context.Context, key string) (int64, error) {
	if err := s.Pull(ctx); err != nil {
		return 0, err
	}
	return s.Read(key)
}

// Sweep aborts expired prepared 2PC transactions now, judged against the
// site's own clock so sweeps are simulable on a virtual clock.
func (s *Site) Sweep() int { return s.iu.Sweep(s.cfg.Clock.Now()) }

// Maintain performs the periodic housekeeping a long-lived durable site
// needs: compact the replication log past what every peer acknowledged,
// checkpoint the storage engine (snapshot + WAL truncation), and
// checkpoint the AV journal when one exists. Cheap no-ops on in-memory
// sites.
func (s *Site) Maintain() error {
	s.repl.Compact(s.cfg.Peers)
	if err := s.eng.Checkpoint(); err != nil {
		return err
	}
	if s.avs != nil {
		return s.avs.Checkpoint()
	}
	return nil
}

// Accessors for experiments, examples and tests.

// ID returns the site's identity.
func (s *Site) ID() wire.SiteID { return s.cfg.ID }

// Engine returns the local storage engine.
func (s *Site) Engine() *storage.Engine { return s.eng }

// Epochs returns the storage engine's commit-epoch manager, nil when
// epoch commit is off.
func (s *Site) Epochs() *epoch.Manager { return s.eng.Epochs() }

// AV returns the AV table.
func (s *Site) AV() core.AVTable { return s.avt }

// Accelerator returns the accelerator.
func (s *Site) Accelerator() *core.Accelerator { return s.accel }

// Replicator returns the lazy replicator.
func (s *Site) Replicator() *replica.Replicator { return s.repl }

// TwoPC returns the Immediate-Update engine.
func (s *Site) TwoPC() *twopc.Engine { return s.iu }

// ReadPlane returns the site's read plane, nil unless Config.ReadPlane
// was set.
func (s *Site) ReadPlane() *readplane.Plane { return s.plane }

// Token mints a read-your-writes session token from an update result.
// The token names the site whose plane applied the commit — this site
// for local results, the serving replica for forwarded ones — because
// WaitFor rejects tokens minted against any other site's plane. The
// zero token (failed update, or a forwarded result from a peer that
// predates token-carrying replies) satisfies trivially.
func (s *Site) Token(res core.Result) readplane.Token {
	if res.LSN == 0 {
		return readplane.Token{}
	}
	return readplane.Mint(res.Site, res.LSN)
}

// Close stops background loops, detaches from the network, and closes
// the storage engine. Close is idempotent; repeated calls return the
// first result.
func (s *Site) Close() error {
	s.closeOnce.Do(func() {
		close(s.stop)
		s.wg.Wait()
		if s.plane != nil {
			s.plane.Close()
		}
		if err := s.node.Close(); err != nil {
			s.closeErr = err
		}
		if s.avs != nil {
			if err := s.avs.Close(); err != nil && s.closeErr == nil {
				s.closeErr = err
			}
		}
		if err := s.eng.Close(); err != nil && s.closeErr == nil {
			s.closeErr = err
		}
	})
	return s.closeErr
}
