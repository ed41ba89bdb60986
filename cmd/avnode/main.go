// Command avnode runs one avdb site as its own process, speaking the
// inter-site protocol over TCP and serving clients on a simple text
// protocol. A three-node cluster on one machine:
//
//	avnode -id 0 -listen :7100 -peers 1=localhost:7101,2=localhost:7102 -client :7200 &
//	avnode -id 1 -listen :7101 -peers 0=localhost:7100,2=localhost:7102 -client :7201 &
//	avnode -id 2 -listen :7102 -peers 0=localhost:7100,1=localhost:7101 -client :7202 &
//	avctl -addr localhost:7201 update product-0000 -50
//
// Every node must be started with identical -seed-* flags so the seeded
// catalogs agree (the paper assumes initial delivery from the base DB).
//
// Client protocol (one command per line):
//
//	UPDATE <key> <delta>   -> OK <path> token=<site:lsn> | ERR <reason>
//	READ <key>             -> OK <value> | ERR <reason>
//	AV <key>               -> OK <avail>
//	SYNC                   -> OK
//	QUIT                   -> closes the connection
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"avdb/internal/av"
	"avdb/internal/epoch"
	"avdb/internal/failure"
	"avdb/internal/metrics"
	"avdb/internal/obs"
	"avdb/internal/partition"
	"avdb/internal/site"
	"avdb/internal/storage"
	"avdb/internal/trace"
	"avdb/internal/transport/tcpnet"
	"avdb/internal/wal"
	"avdb/internal/wire"
)

// histWindow is how many recent samples each /metrics histogram keeps.
const histWindow = 4096

// commandTimeout bounds UPDATE and SYNC, the client commands that can
// wait on other sites.
const commandTimeout = 5 * time.Second

func main() {
	var (
		id       = flag.Uint("id", 0, "this site's ID")
		base     = flag.Uint("base", 0, "site hosting the base DB (primary copy)")
		listen   = flag.String("listen", ":7100", "inter-site listen address")
		peerSpec = flag.String("peers", "", "comma-separated id=host:port peer list")
		client   = flag.String("client", ":7200", "client (text protocol) listen address")
		dir      = flag.String("dir", "", "storage directory (empty = in-memory)")
		items    = flag.Int("seed-items", 10, "products to seed")
		initial  = flag.Int64("seed-initial", 1000, "initial stock per product")
		avShare  = flag.Int64("seed-av", 0, "this site's initial AV per product (0 = initial / the product's replica count)")
		nonReg   = flag.Float64("seed-nonregular", 0, "fraction of products without AV")
		flushMS  = flag.Int("flush-ms", 500, "anti-entropy interval in milliseconds")
		admin    = flag.String("admin", "", "admin HTTP listen address for /healthz, /metrics, /trace (empty = disabled)")
		traceBuf = flag.Int("trace-buf", trace.DefaultCapacity, "finished spans kept for /trace (with -admin)")

		heartbeatMS  = flag.Int("heartbeat-ms", 1000, "peer liveness probe interval in milliseconds (0 = off)")
		suspectMS    = flag.Int("suspect-after-ms", 0, "consecutive-failure duration before a peer is suspected (0 = default)")
		flushPeerMS  = flag.Int("flush-peer-ms", 2000, "per-peer deadline within one anti-entropy flush (0 = unbounded)")
		escrow       = flag.Bool("escrow", false, "make remote AV grants crash-safe escrowed transfers")
		readPlane    = flag.Bool("readplane", true, "materialize read models and serve /read/* on the admin server")
		readTopK     = flag.Int("read-topk", 0, "hot-key view size (0 = default)")
		retransmitMS = flag.Int("retransmit-ms", 0, "inter-site RPC retransmission interval in milliseconds (0 = off; receivers dedup)")
		syncDelayUS  = flag.Int("wal-sync-delay-us", 0, "group-commit leader stall in microseconds to widen fsync batches (0 = commit immediately)")
		epochOn      = flag.Bool("epoch", false, "acknowledge durable commits at epoch boundaries (one fsync per epoch) instead of per group-commit round")
		epochUS      = flag.Int("epoch-interval-us", 200, "epoch length in microseconds (with -epoch)")
		epochMax     = flag.Int("epoch-max-commits", 0, "close an epoch early once it holds this many commits (0 = default, negative = never)")
		partitions   = flag.Int("partitions", 0, "shard the catalog over this many partitions (0 = full replication: one partition on every node, owned by -base; identical on every node)")
		rf           = flag.Int("rf", 2, "replicas per partition (with -partitions; capped at the cluster size)")
	)
	flag.Bool("persist-av", false, "no-op, kept for old command lines: -dir always keeps the AV table in the storage engine")
	flag.Parse()

	peers, addrs, err := parsePeers(*peerSpec)
	if err != nil {
		log.Fatalf("avnode: %v", err)
	}

	// The partition map is derived, not exchanged: every node computes it
	// from the same flags over the same membership, so the maps agree by
	// construction. Without -partitions the site builds the full
	// replication map from -base, -id and -peers.
	var pm *partition.Map
	if *partitions > 0 {
		ids := append([]wire.SiteID{wire.SiteID(*id)}, peers...)
		f := *rf
		if f > len(ids) {
			f = len(ids)
		}
		if pm, err = partition.New(ids, *partitions, f); err != nil {
			log.Fatalf("avnode: partition map: %v", err)
		}
	}

	// Observability: the registry always counts (it is cheap); the tracer
	// and admin server exist only when -admin is set.
	registry := metrics.NewRegistry()
	var tracer *trace.Tracer
	var updateLatency *metrics.Histogram
	// walStats counts the site WAL's fsyncs and group commits (with -dir
	// the AV rows ride the same WAL); the histograms are
	// attached only when the admin server will actually serve them.
	// Every histogram on /metrics keeps its most recent histWindow
	// samples (its _count stays cumulative): a sample arrives per update,
	// fsync round or epoch for as long as the node serves, and every
	// scrape sorts what is kept.
	walStats := &wal.Stats{}
	// epochStats counts the storage engine's epoch pipeline.
	epochStats := &epoch.Stats{}
	if *admin != "" {
		tracer = trace.New(*traceBuf)
		updateLatency = metrics.NewWindowHistogram(histWindow)
		walStats.GroupSize = metrics.NewWindowHistogram(histWindow)
		walStats.SyncWait = metrics.NewWindowHistogram(histWindow)
		epochStats.CommitsPerEpoch = metrics.NewWindowHistogram(histWindow)
		epochStats.CloseLatency = metrics.NewWindowHistogram(histWindow)
		epochStats.AckWait = metrics.NewWindowHistogram(histWindow)
	}

	network := &tcpnet.Network{Cfg: tcpnet.Config{
		ID:                 wire.SiteID(*id),
		Listen:             *listen,
		Peers:              addrs,
		Registry:           registry,
		Tracer:             tracer,
		RetransmitInterval: time.Duration(*retransmitMS) * time.Millisecond,
	}}
	var flushBackoff failure.Policy
	if *flushPeerMS > 0 {
		flushBackoff = failure.Policy{BaseDelay: 250 * time.Millisecond, MaxDelay: 10 * time.Second}
	}
	s, err := site.Open(site.Config{
		ID:                wire.SiteID(*id),
		Base:              wire.SiteID(*base),
		Peers:             peers,
		StorageDir:        *dir,
		PersistAV:         *dir != "",
		Tracer:            tracer,
		FlushInterval:     time.Duration(*flushMS) * time.Millisecond,
		SweepInterval:     2 * time.Second,
		HeartbeatInterval: time.Duration(*heartbeatMS) * time.Millisecond,
		SuspectAfter:      time.Duration(*suspectMS) * time.Millisecond,
		FlushPeerTimeout:  time.Duration(*flushPeerMS) * time.Millisecond,
		FlushBackoff:      flushBackoff,
		EscrowTransfers:   *escrow,
		ReadPlane:         *readPlane,
		ReadPlaneTopK:     *readTopK,
		WALMaxSyncDelay:   time.Duration(*syncDelayUS) * time.Microsecond,
		WALStats:          walStats,
		EpochInterval:     epochInterval(*epochOn, *epochUS),
		EpochMaxCommits:   *epochMax,
		EpochStats:        epochStats,
		Partitions:        pm,
	}, network)
	if err != nil {
		log.Fatalf("avnode: open site: %v", err)
	}
	defer s.Close()

	if *admin != "" {
		srv := obs.New(obs.Options{Registry: registry, Tracer: tracer})
		srv.RegisterHistogram("update_latency", updateLatency)
		// Failure-model counters: how often the node failed over, retried,
		// aborted, or reconciled — the first place to look when a cluster
		// is degraded.
		srv.RegisterCounter("av_failovers", s.Accelerator().Stats().Failovers.Load)
		srv.RegisterCounter("escrow_settles", s.Accelerator().Stats().Settles.Load)
		srv.RegisterCounter("escrow_cancels", s.Accelerator().Stats().Cancels.Load)
		srv.RegisterCounter("twopc_aborts", s.TwoPC().Stats().Aborts.Load)
		srv.RegisterCounter("twopc_swept", s.TwoPC().Stats().Swept.Load)
		srv.RegisterCounter("twopc_decision_retries", s.TwoPC().Stats().DecisionRetries.Load)
		srv.RegisterCounter("suspected_peers", func() int64 {
			return int64(len(s.Detector().Suspects()))
		})
		// Durability-pipeline counters: fsyncs vs records synced shows the
		// group-commit amortization live (fsyncs/op < 1 under load).
		srv.RegisterCounter("wal_fsync_total", walStats.Fsyncs.Load)
		srv.RegisterCounter("wal_sync_rounds_total", walStats.SyncRounds.Load)
		srv.RegisterCounter("wal_records_synced_total", walStats.RecordsSynced.Load)
		srv.RegisterSizeHistogram("wal_group_commit_size", walStats.GroupSize)
		srv.RegisterHistogram("wal_sync_wait", walStats.SyncWait)
		// Epoch-pipeline counters (all zero unless -epoch): one fsync per
		// closed epoch, so epoch_commits_total / epoch_closed_total is the
		// live amortization factor.
		if em := s.Epochs(); em != nil {
			srv.RegisterCounter("epoch_current", func() int64 { return int64(em.Current()) })
			srv.RegisterCounter("epoch_durable", func() int64 { return int64(em.Durable()) })
		}
		srv.RegisterCounter("epoch_closed_total", epochStats.Epochs.Load)
		srv.RegisterCounter("epoch_commits_total", epochStats.Commits.Load)
		srv.RegisterCounter("epoch_early_closes_total", epochStats.EarlyCloses.Load)
		srv.RegisterSizeHistogram("epoch_commits_per_epoch", epochStats.CommitsPerEpoch)
		srv.RegisterHistogram("epoch_close_latency", epochStats.CloseLatency)
		srv.RegisterHistogram("epoch_ack_wait", epochStats.AckWait)
		// Read-plane counters and the /read/* endpoints: how far the
		// materialized models trail the engine and how read traffic splits
		// across them.
		if p := s.ReadPlane(); p != nil {
			srv.Handle("GET /read/", p.HTTPHandler())
			srv.RegisterCounter("readplane_events_applied", func() int64 { return p.Stats().EventsApplied })
			srv.RegisterCounter("readplane_events_stale", func() int64 { return p.Stats().EventsStale })
			srv.RegisterCounter("readplane_reads_stock", func() int64 { return p.Stats().ReadsStock })
			srv.RegisterCounter("readplane_reads_global", func() int64 { return p.Stats().ReadsGlobal })
			srv.RegisterCounter("readplane_reads_hot", func() int64 { return p.Stats().ReadsHot })
			srv.RegisterCounter("readplane_ryw_waits", func() int64 { return p.Stats().RYWWaits })
			srv.RegisterCounter("readplane_ryw_timeouts", func() int64 { return p.Stats().RYWTimeouts })
			srv.RegisterCounter("readplane_ryw_violations", func() int64 { return p.Stats().RYWViolations })
			srv.RegisterHistogram("readplane_lag", p.LagHistogram())
			srv.RegisterHistogram("readplane_ryw_wait", p.WaitHistogram())
		}
		// Routing counters and the /partitions inspection endpoint (a
		// full-replication node hosts its one partition and routes nothing).
		srv.RegisterCounter("partition_route_forwarded", func() int64 { return int64(s.RouteStats().Forwarded) })
		srv.RegisterCounter("partition_route_served", func() int64 { return int64(s.RouteStats().Served) })
		srv.RegisterCounter("partition_misroutes", func() int64 { return int64(s.RouteStats().Misroutes) })
		srv.RegisterCounter("partition_hosted", func() int64 {
			return int64(len(s.PartitionMap().Hosted(wire.SiteID(*id))))
		})
		srv.Handle("GET /partitions", partitionsHandler(s))
		if err := srv.Start(*admin); err != nil {
			log.Fatalf("avnode: admin server: %v", err)
		}
		defer srv.Close()
		log.Printf("avnode: admin server on %s", srv.Addr())
	}

	if err := seed(s, *items, *initial, *avShare, *nonReg); err != nil {
		log.Fatalf("avnode: seed: %v", err)
	}

	ln, err := net.Listen("tcp", *client)
	if err != nil {
		log.Fatalf("avnode: client listener: %v", err)
	}
	log.Printf("avnode: site %d up — inter-site %s, clients %s, %d products seeded",
		*id, *listen, ln.Addr(), *items)
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		go serveClient(s, conn, updateLatency)
	}
}

// partitionsHandler serves the node's partition view as JSON: the map
// parameters, the routing counters, and per-hosted-partition record/AV
// footprints — what `avctl partitions` renders.
func partitionsHandler(s *site.Site) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		pm := s.PartitionMap()
		rs := s.RouteStats()
		reply := struct {
			Partitions int                  `json:"partitions"`
			RF         int                  `json:"rf"`
			Sites      []wire.SiteID        `json:"sites"`
			Forwarded  uint64               `json:"route_forwarded"`
			Served     uint64               `json:"route_served"`
			Misroutes  uint64               `json:"route_misroutes"`
			Hosted     []site.PartitionInfo `json:"hosted"`
		}{
			Partitions: pm.Parts(),
			RF:         pm.RF(),
			Sites:      pm.Sites(),
			Forwarded:  rs.Forwarded,
			Served:     rs.Served,
			Misroutes:  rs.Misroutes,
			Hosted:     s.PartitionStats(),
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(&reply) //nolint:errcheck // best-effort HTTP write
	})
}

// epochInterval maps the -epoch/-epoch-interval-us flag pair onto the
// site config: zero keeps the per-commit group-commit pipeline.
func epochInterval(on bool, us int) time.Duration {
	if !on {
		return 0
	}
	return time.Duration(us) * time.Microsecond
}

// parsePeers turns "1=h:p,2=h:p" into the peer list and address map.
func parsePeers(spec string) ([]wire.SiteID, map[wire.SiteID]string, error) {
	addrs := make(map[wire.SiteID]string)
	var peers []wire.SiteID
	if spec == "" {
		return peers, addrs, nil
	}
	for _, part := range strings.Split(spec, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return nil, nil, fmt.Errorf("bad peer entry %q (want id=host:port)", part)
		}
		pid, err := strconv.ParseUint(kv[0], 10, 32)
		if err != nil {
			return nil, nil, fmt.Errorf("bad peer id %q: %w", kv[0], err)
		}
		peers = append(peers, wire.SiteID(pid))
		addrs[wire.SiteID(pid)] = kv[1]
	}
	return peers, addrs, nil
}

// seed loads the shared catalog; identical flags on every node yield
// identical catalogs (the paper's initial delivery from the base DB).
// Each node seeds only the keys it hosts (all of them under full
// replication), and the AV default splits initial stock across the
// key's replica set.
func seed(s *site.Site, items int, initial, avShare int64, nonRegular float64) error {
	nonRegCount := int(nonRegular*float64(items) + 0.5)
	pm := s.PartitionMap()
	if avShare == 0 {
		avShare = initial / int64(pm.RF())
	}
	self := s.ID()
	// On a durable restart a row and its AV may already exist; re-seeding
	// would reset stock and mint AV, so seed only what is genuinely
	// missing: the rows in one batch, then the AV in another.
	var recs []storage.Record
	var defs []av.Def
	for i := 0; i < items; i++ {
		rec := storage.Record{
			Key:    fmt.Sprintf("product-%04d", i),
			Name:   fmt.Sprintf("Product %d", i),
			Amount: initial,
			Class:  storage.Regular,
		}
		if i < nonRegCount {
			rec.Class = storage.NonRegular
		}
		if !pm.HostsKey(self, rec.Key) {
			continue
		}
		if _, err := s.Read(rec.Key); err != nil {
			recs = append(recs, rec)
		}
		if rec.Class == storage.Regular && !s.AV().Defined(rec.Key) {
			defs = append(defs, av.Def{Key: rec.Key, N: avShare})
		}
	}
	if err := s.Seed(recs...); err != nil {
		return err
	}
	return s.DefineAVs(defs...)
}

// serveClient speaks the line protocol on one client connection.
// updateLatency, when non-nil, collects per-UPDATE wall time for the
// admin server's /metrics.
func serveClient(s *site.Site, conn net.Conn, updateLatency *metrics.Histogram) {
	defer conn.Close()
	sc := bufio.NewScanner(conn)
	w := bufio.NewWriter(conn)
	reply := func(format string, args ...any) {
		fmt.Fprintf(w, format+"\n", args...)
		w.Flush()
	}
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		switch strings.ToUpper(fields[0]) {
		case "UPDATE":
			if len(fields) != 3 {
				reply("ERR usage: UPDATE <key> <delta>")
				break
			}
			delta, err := strconv.ParseInt(fields[2], 10, 64)
			if err != nil {
				reply("ERR bad delta: %v", err)
				break
			}
			ctx, cancel := context.WithTimeout(context.Background(), commandTimeout)
			start := time.Now()
			res, err := s.Update(ctx, fields[1], delta)
			if updateLatency != nil {
				updateLatency.Observe(time.Since(start))
			}
			cancel()
			if err != nil {
				reply("ERR %v", err)
				break
			}
			// The token lets the client demand read-your-writes from the
			// read plane (/read/*?token=...) — pointless to advertise when
			// the plane is disabled.
			if tok := s.Token(res); s.ReadPlane() != nil && !tok.IsZero() {
				reply("OK %s token=%s", res.Path, tok)
			} else {
				reply("OK %s", res.Path)
			}
		case "READ":
			if len(fields) != 2 {
				reply("ERR usage: READ <key>")
				break
			}
			v, err := s.Read(fields[1])
			if err != nil {
				reply("ERR %v", err)
				break
			}
			reply("OK %d", v)
		case "AV":
			if len(fields) != 2 {
				reply("ERR usage: AV <key>")
				break
			}
			reply("OK %d", s.AV().Avail(fields[1]))
		case "SYNC":
			ctx, cancel := context.WithTimeout(context.Background(), commandTimeout)
			err := s.Flush(ctx)
			cancel()
			if err != nil {
				reply("ERR %v", err)
				break
			}
			reply("OK")
		case "QUIT":
			return
		default:
			reply("ERR unknown command %q", fields[0])
		}
	}
	// A line over the scanner's 64 KiB limit ends the loop; say why
	// before the deferred close instead of just hanging up.
	if errors.Is(sc.Err(), bufio.ErrTooLong) {
		reply("ERR line too long")
	}
}
