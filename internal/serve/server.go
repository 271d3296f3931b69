package serve

import (
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"latenttruth/internal/core"
	"latenttruth/internal/model"
	"latenttruth/internal/obs"
	"latenttruth/internal/store"
	"latenttruth/internal/stream"
)

// RefitPolicy selects how the background refit turns accumulated claims
// into a new snapshot.
type RefitPolicy string

const (
	// RefitFull runs the full collapsed Gibbs engine over the cumulative
	// dataset on every refit — the most accurate and most expensive policy.
	RefitFull RefitPolicy = "full"
	// RefitOnline Gibbs-fits each newly arrived batch with the accumulated
	// per-source quality priors (stream.Online.Step, §5.4's full
	// incremental learning), then serves the closed-form LTMinc posterior
	// (Equation 3) over the cumulative dataset, so source quality keeps
	// learning from new claims between full refits.
	RefitOnline RefitPolicy = "online"
	// RefitDirty re-sweeps only the entities touched since the last refit:
	// the cumulative dataset is extended in place (store.ExtendDirty), just
	// the dirty-entity sub-dataset is re-fit against the accumulated
	// per-source counts (stream.Online.StepDirty), and clean entities keep
	// their posterior rows from the previous snapshot. Refit cost scales
	// with the dirty set, not the corpus; FullEvery full refits remain the
	// drift backstop.
	RefitDirty RefitPolicy = "dirty"
)

// valid reports whether p names a known policy.
func (p RefitPolicy) valid() bool {
	switch p {
	case RefitFull, RefitOnline, RefitDirty:
		return true
	}
	return false
}

// Config parameterizes a truth-serving daemon.
type Config struct {
	// LTM is the base fit configuration; zero-valued fields take the
	// paper's defaults (priors are sized to the first fitted dataset).
	LTM core.Config
	// Threshold is the integration threshold truth tables are cut at
	// (default 0.5).
	Threshold float64
	// Policy selects the refit strategy (default RefitFull).
	Policy RefitPolicy
	// FullEvery forces a full engine refit every n-th refit under the
	// online and dirty policies (default 10; the first refit is always
	// full). Ignored under RefitFull.
	FullEvery int
	// RefitInterval is the background refit period (default 2s). Zero or
	// negative disables the timer; refits then only happen via Refit (the
	// POST /refit endpoint).
	RefitInterval time.Duration
	// MinBatch is the number of pending mutations required before a timed
	// refit fires (default 1: any pending claim triggers a refit). Forced
	// refits ignore it.
	MinBatch int
	// Shards, when > 1, runs every full refit through the entity-sharded
	// fitter (internal/shard): the cumulative dataset is partitioned by
	// entity and swept concurrently, with per-source counts reconciled
	// every SyncEvery sweeps. 0 or 1 keeps the single-engine refit.
	Shards int
	// SyncEvery is the shard count-reconciliation interval in sweeps:
	// 1 forces the exact (bit-identical, sequential) barrier mode, 0 the
	// shard package's default. Ignored unless Shards > 1.
	SyncEvery int
	// Durability, when DataDir is set, makes the server crash-safe: every
	// accepted batch is written ahead to a segmented WAL before it is
	// acknowledged, every published snapshot is checkpointed, and startup
	// recovers the exact pre-crash state (checkpoint + WAL tail replay).
	Durability Durability
	// Storage selects what claim scans read. Every durable server seals
	// the rows ingested since the previous checkpoint into immutable
	// on-disk segments (checkpoints cost O(new rows), recovery reopens
	// segments and replays only the WAL tail), and either kind reopens a
	// data directory written under the other. store.StorageMemory (the
	// default) scans the heap rows; store.StorageSegments scans the sealed
	// segments, skipping segments and pages via zone maps and bloom
	// filters, and requires Durability.DataDir. The kinds are
	// bit-identical: every query answer is the same under either.
	Storage string
	// Replication tunes the primary side of WAL log shipping (the
	// /replication/checkpoint and /replication/wal endpoints a durable
	// server always exposes). Zero values take defaults.
	Replication Replication
	// FollowerOf, when non-empty, is the primary's base URL and puts the
	// server in read-only follower mode: Ingest and Refit are rejected
	// (clients are pointed at the primary), batches and refit markers
	// arrive through ApplyReplicated instead, and the background refit
	// timer stays off — the refit schedule is the primary's, replayed.
	// Requires Durability: the replicated log is what makes a follower
	// restart resume instead of re-bootstrapping.
	FollowerOf string
	// Logger receives refit-loop diagnostics; nil discards them.
	Logger *log.Logger
	// Obs tunes observability: metric collection, slow-request logging
	// and the log level. The zero value is fully instrumented.
	Obs ObsConfig
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Threshold == 0 {
		c.Threshold = 0.5
	}
	if c.Policy == "" {
		c.Policy = RefitFull
	}
	if c.FullEvery == 0 {
		c.FullEvery = 10
	}
	if c.RefitInterval == 0 {
		c.RefitInterval = 2 * time.Second
	}
	if c.MinBatch <= 0 {
		c.MinBatch = 1
	}
	if c.Storage == "" {
		c.Storage = store.StorageMemory
	}
	return c
}

// Server is the truth-serving daemon state. Readers load the current
// snapshot with a single atomic pointer read and never take locks; writers
// append to the mutation log; the refit path is serialized by mu and
// publishes complete snapshots only.
type Server struct {
	cfg Config

	// snap is the atomically swapped serving state; nil until first refit.
	snap atomic.Pointer[Snapshot]
	// ingest is the mutation log of arrived-but-uncompacted triples.
	ingest *ingestLog

	// mu serializes refits and guards db, online and the refit counters.
	mu sync.Mutex
	// db is the cumulative claim store every snapshot is compacted from:
	// heap-resident rows either way, plus sealed on-disk segments when
	// durable. Appends happen under mu;
	// db.Reader() and db.Stats() are lock-free for queries and scrapes.
	db *store.SegmentBacked
	// online carries accumulated source quality across refits (§5.4). It is
	// created lazily at the first refit so default priors can be sized to
	// the data actually seen; stream.Online is not concurrency-safe, so all
	// access happens under mu.
	online *stream.Online
	// refits counts completed refits; fullRefits the full-engine subset and
	// dirtyRefits the dirty-fast-path subset.
	// Written under mu, read atomically so /stats never waits on a refit.
	refits      atomic.Int64
	fullRefits  atomic.Int64
	dirtyRefits atomic.Int64
	// carry holds the unpublished remainder of a refit attempt that failed
	// after its drain: the rows are already folded into db (and, on a
	// durable primary, the refit marker is already in the WAL), so the next
	// refit must publish them — without a second marker — before draining
	// anything new. Guarded by mu.
	carry refitCarry
	// testFitErr, when non-nil, is consulted once per fit attempt; a
	// non-nil return aborts the refit after the drain. Test-only injection
	// point for the carry/orphan-marker paths.
	testFitErr func() error
	// encodeFailures counts responses whose JSON encoding or socket write
	// failed mid-body; surfaced in /stats so truncated responses are
	// observable instead of silently dropped. Registered on every server.
	encodeFailures *obs.Counter

	// dur is the durability runtime (WAL + checkpoint store); nil when the
	// server is memory-only. walSeqCompacted / totalCompacted are the
	// newest WAL sequence number and lifetime row total ever drained into
	// db — the watermark the next checkpoint covers. Written under mu;
	// walSeqCompacted is atomic so NextReplicationSeq (and through it a
	// follower's /replication/status) is never blocked by an in-flight
	// refit — same discipline as the refit counters.
	dur             *durable
	walSeqCompacted atomic.Uint64
	totalCompacted  int64

	// walNotify wakes /replication/wal long-polls after every accepted
	// batch; repl tracks connected follower cursors (nil unless durable).
	walNotify *notifier
	repl      *replTracker

	// reg is the metric registry GET /metrics serves; logger the leveled
	// logger every diagnostic routes through; met the instrument set (nil
	// when ObsConfig.Disabled) and httpMW the request middleware (ditto).
	reg    *obs.Registry
	logger *obs.Logger
	met    *serveMetrics
	httpMW *obs.HTTPMetrics

	started time.Time

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// New returns a server with the given configuration. Call Start to run the
// background refit loop, Handler for the HTTP API, and Close to shut down.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if !cfg.Policy.valid() {
		return nil, fmt.Errorf("serve: unknown refit policy %q", cfg.Policy)
	}
	if cfg.Threshold < 0 || cfg.Threshold > 1 {
		return nil, fmt.Errorf("serve: threshold %v outside [0,1]", cfg.Threshold)
	}
	if cfg.FullEvery < 0 {
		return nil, fmt.Errorf("serve: FullEvery = %d must be non-negative", cfg.FullEvery)
	}
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("serve: Shards = %d must be non-negative", cfg.Shards)
	}
	if cfg.SyncEvery < 0 {
		return nil, fmt.Errorf("serve: SyncEvery = %d must be non-negative", cfg.SyncEvery)
	}
	if f := cfg.Durability.Fsync; f != "" && !f.Valid() {
		return nil, fmt.Errorf("serve: unknown fsync policy %q", f)
	}
	if cfg.FollowerOf != "" && !cfg.Durability.Enabled() {
		return nil, fmt.Errorf("serve: follower mode requires Durability.DataDir (the replicated log is the restart state)")
	}
	switch cfg.Storage {
	case store.StorageMemory:
	case store.StorageSegments:
		if !cfg.Durability.Enabled() {
			return nil, fmt.Errorf("serve: storage %q requires Durability.DataDir (segments live beside the WAL)", cfg.Storage)
		}
	default:
		return nil, fmt.Errorf("serve: unknown storage kind %q (want %q or %q)",
			cfg.Storage, store.StorageMemory, store.StorageSegments)
	}
	s := &Server{
		cfg:       cfg,
		ingest:    &ingestLog{},
		db:        store.NewMemory(),
		started:   time.Now(),
		stop:      make(chan struct{}),
		walNotify: newNotifier(),
	}
	s.ingest.notify = s.walNotify.Wake
	s.initObs()
	if cfg.Durability.Enabled() {
		if err := s.openDurable(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// logf logs at info through the configured logger, if any. warnf and
// errorf are the leveled variants the degraded-but-serving and failure
// sites use; all three keep message text identical to the pre-leveled
// output, a level only changes what -log-level can silence.
func (s *Server) logf(format string, args ...any) {
	s.logger.Infof(format, args...)
}

func (s *Server) warnf(format string, args ...any) {
	s.logger.Warnf(format, args...)
}

func (s *Server) errorf(format string, args ...any) {
	s.logger.Errorf(format, args...)
}

// Ingest appends a batch of triples to the mutation log. The batch is
// validated as a unit and accepted all-or-nothing; when the server is
// durable it is written ahead to the WAL before Ingest returns, so an
// acknowledged batch survives a crash. It becomes visible to queries after
// the next refit.
func (s *Server) Ingest(rows []model.Row) (int, error) {
	select {
	case <-s.stop:
		return 0, fmt.Errorf("serve: server is shut down")
	default:
	}
	if s.cfg.FollowerOf != "" {
		return 0, ErrFollower
	}
	n, err := s.ingest.Append(rows)
	s.met.ingested(n, err)
	return n, err
}

// Snapshot returns the current serving snapshot, or nil before the first
// successful refit. The returned snapshot is immutable and remains valid
// (and consistent) regardless of concurrent refits.
func (s *Server) Snapshot() *Snapshot { return s.snap.Load() }

// Pending returns the number of mutations awaiting compaction.
func (s *Server) Pending() int { return s.ingest.Len() }

// Start launches the background refit loop. It is a no-op when
// RefitInterval is disabled and on a follower, whose refits are driven by
// the primary's replicated markers.
func (s *Server) Start() {
	if s.cfg.RefitInterval <= 0 || s.cfg.FollowerOf != "" {
		return
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(s.cfg.RefitInterval)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				if s.ingest.Len() < s.cfg.MinBatch && s.Snapshot() != nil {
					continue
				}
				if _, err := s.Refit(""); err != nil && err != ErrNoData {
					s.errorf("serve: background refit: %v", err)
				}
			}
		}
	}()
}

// Close stops the background refit loop, syncs and closes the WAL (when
// durable), and rejects further ingestion. Queries against the last
// published snapshot keep working.
func (s *Server) Close() {
	s.stopOnce.Do(func() { close(s.stop) })
	s.wg.Wait()
	if s.dur != nil {
		// Let any in-flight forced refit finish before closing the log.
		s.mu.Lock()
		if err := s.dur.log.Close(); err != nil {
			s.errorf("serve: closing WAL: %v", err)
		}
		s.mu.Unlock()
	}
}
