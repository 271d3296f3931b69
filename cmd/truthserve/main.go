// Command truthserve runs the always-on truth-serving daemon: it ingests
// (entity, attribute, source) triples over HTTP while they arrive, refits
// the Latent Truth Model in the background per the configured policy, and
// serves inferred truth, source quality and statistics from an immutable
// snapshot that is atomically swapped on every refit.
//
// Usage:
//
//	truthserve [-addr :8080] [-policy full|online|dirty]
//	           [-refit-interval 2s] [-full-every 10] [-min-batch 1]
//	           [-threshold 0.5] [-iterations 100] [-seed 1]
//	           [-preload triples.csv]
//	           [-data-dir state/] [-storage memory|segments]
//	           [-fsync always|interval|never]
//	           [-fsync-interval 100ms] [-segment-bytes 67108864]
//	           [-retain-checkpoints 3]
//	           [-follow http://primary:8080] [-follower-id name]
//	           [-route http://p0:8080,http://p1:8080]
//	           [-log-level debug|info|warn|error] [-slow-request 1s]
//	           [-pprof 127.0.0.1:6060]
//
// With -policy dirty, each refit
// re-sweeps only the entities touched since the last snapshot and
// scatters the fresh posteriors into a copy-on-write probability vector —
// refit cost scales with the dirty set, not the corpus — while
// -full-every full refits re-anchor against drift. /stats reports the
// staleness bound as freshness_ms.
//
// With -data-dir, the daemon is crash-safe: every acknowledged claim
// batch is written ahead to a segmented, CRC-framed WAL before the HTTP
// response, every refit checkpoints the cumulative state, and a restart
// recovers the exact pre-crash model (newest checkpoint + WAL tail
// replay). -fsync trades durability against ingest latency: "always"
// survives power loss, "interval" bounds loss to -fsync-interval, "never"
// leaves syncing to the OS — all three survive a SIGKILL of the process.
//
// With -data-dir, every checkpoint seals the newly compacted claims into
// immutable on-disk segments — entity-sorted runs with per-page CRCs,
// entity zone maps and source bloom filters — merging trailing segments
// so their count stays logarithmic. Recovery reopens the CRC-verified
// segments and replays only the short WAL tail, so restart time scales
// with the tail, not the corpus. -storage picks what claim scans read:
// "memory" scans the heap rows, "segments" (requires -data-dir) makes
// entity- and source-scoped reads (GET /claims, dirty refits) skip every
// segment whose metadata rules it out. Either kind reopens a data
// directory written under the other, and primaries of either kind
// bootstrap followers of either kind.
//
// With -follow, the daemon is a read replica of the given primary: it
// bootstraps from the primary's newest checkpoint, tails the primary's
// WAL over HTTP into its own -data-dir (required), replays the primary's
// refit schedule, and serves bit-identical /truth, /quality, /records and
// /stats locally; POST /claims and POST /refit return 503 with the
// primary's address. A restarted follower resumes from its own mirrored
// log — no re-bootstrap. Model flags (-policy, -iterations, -seed,
// -threshold, ...) must match the primary's. The follower's own
// /replication endpoints stay live, so replicas can chain.
//
// With -route, the daemon is a stateless cluster router instead of a
// primary: the comma-separated URLs are independent primaries in
// partition order, each owning an entity-hash range. POST /claims splits
// the batch by entity hash and fans it out; GET /truth, /quality,
// /records and /stats scatter-gather, with /quality merged exactly from
// the partitions' confusion-count bases; GET /cluster reports topology
// and per-partition health. A down partition 503s requests to its range
// (with the partition id) while every other range keeps serving.
//
// Every mode exposes GET /metrics in Prometheus text format: a primary
// serves its own registry (request latency by route, refit phase
// timings, WAL append/fsync, replication lag), a follower appends its
// replica_* families, and a router scrapes every partition and serves
// the rule-merged cluster-wide exposition. -slow-request logs requests
// slower than the threshold; -log-level gates diagnostics; -pprof
// serves net/http/pprof on a separate (keep it private) listener. The
// build_info metric and /stats carry the version and commit baked in
// via -ldflags "-X latenttruth/internal/obs.Version=... -X
// latenttruth/internal/obs.Commit=...".
//
// Endpoints:
//
//	POST /claims  {"claims":[{"entity":"...","attribute":"...","source":"..."}]}
//	GET  /claims  [?entity=...|?prefix=...][&source=...][&limit=n]
//	GET  /truth   [?entity=...[&attribute=...]]
//	GET  /quality
//	GET  /records ?entity=...
//	GET  /stats
//	GET  /metrics
//	GET  /healthz
//	GET  /durability
//	POST /refit   [?policy=full|online|dirty]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"latenttruth"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "truthserve:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		policy     = flag.String("policy", "full", "refit policy: full, online or dirty")
		interval   = flag.Duration("refit-interval", 2*time.Second, "background refit period (0 disables the timer; use POST /refit)")
		fullEvery  = flag.Int("full-every", 10, "force a full engine refit every n-th refit under the online and dirty policies")
		minBatch   = flag.Int("min-batch", 1, "pending claims required before a timed refit fires")
		threshold  = flag.Float64("threshold", 0.5, "integration threshold for the served truth table")
		iterations = flag.Int("iterations", 0, "Gibbs iterations per full refit (0 = default 100)")
		seed       = flag.Int64("seed", 1, "sampler seed")
		priorFacts = flag.Int("prior-facts", 0, "pin priors to DefaultPriors(n) instead of resolving them from the local corpus size (set identically on every cluster partition)")
		preload    = flag.String("preload", "", "triples CSV to ingest before serving (optional)")

		dataDir       = flag.String("data-dir", "", "state directory for the WAL and checkpoints (empty = memory-only)")
		storage       = flag.String("storage", "memory", "what claim scans read: memory (heap rows) or segments (the sealed on-disk segments, with zone-map/bloom data skipping; requires -data-dir). Durable servers seal segments at every checkpoint under either kind")
		fsync         = flag.String("fsync", "interval", "WAL fsync policy: always, interval or never")
		fsyncInterval = flag.Duration("fsync-interval", 100*time.Millisecond, "max unsynced time under -fsync interval")
		segmentBytes  = flag.Int64("segment-bytes", 64<<20, "WAL segment rotation size in bytes")
		retain        = flag.Int("retain-checkpoints", 3, "checkpoints to keep (WAL is truncated behind the oldest)")

		follow     = flag.String("follow", "", "run as a read replica of this primary URL (requires -data-dir)")
		followerID = flag.String("follower-id", "", "replication cursor name on the primary (default: persisted random id)")

		route = flag.String("route", "", "run as a stateless cluster router over these comma-separated primary URLs (partition order; no local model)")

		logLevel  = flag.String("log-level", "info", "minimum log severity: debug, info, warn or error")
		slowReq   = flag.Duration("slow-request", time.Second, "log a warning for requests slower than this (0 disables)")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this extra listener (e.g. 127.0.0.1:6060; keep it private)")
	)
	flag.Parse()

	level, err := latenttruth.ParseLogLevel(*logLevel)
	if err != nil {
		return err
	}
	obsCfg := latenttruth.ObsConfig{SlowRequest: *slowReq, LogLevel: level}

	logger := log.New(os.Stderr, "", log.LstdFlags)
	logger.Printf("truthserve: version %s, commit %s", latenttruth.BuildVersion(), latenttruth.BuildCommit())
	if *pprofAddr != "" {
		go servePprof(*pprofAddr, logger)
	}
	if *route != "" {
		if *dataDir != "" || *follow != "" || *preload != "" {
			return errors.New("-route is a stateless mode: it conflicts with -data-dir, -follow and -preload")
		}
		rt, err := latenttruth.NewClusterRouter(latenttruth.ClusterConfig{
			Partitions: strings.Split(*route, ","),
			Logger:     logger,
			Obs:        obsCfg,
		})
		if err != nil {
			return err
		}
		return serveHTTP(*addr, rt.Handler(), logger,
			fmt.Sprintf("routing %d partitions", len(strings.Split(*route, ","))))
	}

	ltmCfg := latenttruth.Config{Iterations: *iterations, Seed: *seed}
	if *priorFacts > 0 {
		// The default priors scale with the corpus: each partition of a
		// cluster would resolve different hyperparameters from its local
		// fact count, and the router's /quality merge (correctly) refuses
		// to sum confusion counts taken against mismatched bases. Pinning
		// the scale here makes every partition agree.
		ltmCfg.Priors = latenttruth.DefaultPriors(*priorFacts)
	}

	cfg := latenttruth.ServeConfig{
		LTM:           ltmCfg,
		Threshold:     *threshold,
		Policy:        latenttruth.RefitPolicy(*policy),
		FullEvery:     *fullEvery,
		RefitInterval: *interval,
		MinBatch:      *minBatch,
		Storage:       *storage,
		Durability: latenttruth.DurabilityConfig{
			DataDir:           *dataDir,
			Fsync:             latenttruth.FsyncPolicy(*fsync),
			FsyncInterval:     *fsyncInterval,
			SegmentBytes:      *segmentBytes,
			RetainCheckpoints: *retain,
		},
		Logger: logger,
		Obs:    obsCfg,
	}

	if *follow != "" {
		if *dataDir == "" {
			return errors.New("-follow requires -data-dir (the mirrored log is the follower's restart state)")
		}
		if *preload != "" {
			return errors.New("-preload is a primary-side flag; a follower replicates its data")
		}
		f, err := latenttruth.StartFollower(latenttruth.ReplicaConfig{
			Primary:  *follow,
			ID:       *followerID,
			Serve:    cfg,
			Logger:   logger,
			LogLevel: level,
		})
		if err != nil {
			return err
		}
		defer f.Close()
		return serveHTTP(*addr, f.Handler(), logger,
			fmt.Sprintf("read replica of %s (id=%s)", *follow, f.Stats().ID))
	}

	srv, err := latenttruth.NewTruthServer(cfg)
	if err != nil {
		return err
	}
	// The serve layer already logged the recovery/cold-start report through
	// the same logger; only the preload decision is main's to make. On a
	// warm restart the preload CSV is already part of the recovered state —
	// re-ingesting it would re-log every row to the WAL on each boot.
	if *preload != "" && *dataDir != "" && !srv.RecoveryStats().ColdStart {
		logger.Printf("truthserve: skipping -preload %s: %s already holds recovered state", *preload, *dataDir)
		*preload = ""
	}
	if *preload != "" {
		f, err := os.Open(*preload)
		if err != nil {
			return err
		}
		db, err := latenttruth.ReadTriples(f)
		f.Close()
		if err != nil {
			return err
		}
		if _, err := srv.Ingest(db.Rows()); err != nil {
			return err
		}
		sn, err := srv.Refit("")
		if err != nil {
			return err
		}
		logger.Printf("truthserve: preloaded %s: %s", *preload, sn.Stats)
	}

	srv.Start()
	defer srv.Close()
	return serveHTTP(*addr, srv.Handler(), logger,
		fmt.Sprintf("policy=%s, refit every %s", *policy, *interval))
}

// servePprof exposes the runtime profiles on their own listener, kept
// off the public API handler so profiling never rides the serving port.
// An explicit mux (not http.DefaultServeMux) keeps the surface to
// exactly the pprof handlers.
func servePprof(addr string, logger *log.Logger) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	logger.Printf("truthserve: pprof listening on %s", addr)
	if err := http.ListenAndServe(addr, mux); err != nil {
		logger.Printf("truthserve: pprof listener failed: %v", err)
	}
}

// serveHTTP runs the HTTP front end until a shutdown signal.
func serveHTTP(addr string, handler http.Handler, logger *log.Logger, desc string) error {
	httpSrv := &http.Server{Addr: addr, Handler: handler}
	errc := make(chan error, 1)
	go func() {
		logger.Printf("truthserve: listening on %s (%s)", addr, desc)
		errc <- httpSrv.ListenAndServe()
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		logger.Printf("truthserve: %s, shutting down", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			return err
		}
		return nil
	}
}
