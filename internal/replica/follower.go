package replica

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"latenttruth/internal/obs"
	"latenttruth/internal/segment"
	"latenttruth/internal/serve"
	"latenttruth/internal/wal"
)

// Config parameterizes a follower.
type Config struct {
	// Primary is the primary's base URL (e.g. "http://primary:8080").
	// Required.
	Primary string
	// Serve is the follower's serving configuration. Durability.DataDir is
	// required (the mirrored log is the restart state); FollowerOf is set
	// automatically. For bit-identical snapshots the model-relevant fields
	// (LTM, Policy, FullEvery, Threshold) must match the primary's — a
	// mismatch is detected via the checkpoint's config hash and demotes the
	// follower to re-deriving quality on its own.
	Serve serve.Config
	// ID identifies this follower to the primary (its truncation cursor
	// key). Empty generates one and persists it in DataDir/follower.id so
	// restarts keep the same cursor.
	ID string
	// PollWait is the long-poll bound requested from the primary when
	// caught up (default 10s; the primary may cap it lower).
	PollWait time.Duration
	// RetryBackoff is the pause after a failed poll or apply (default 1s).
	RetryBackoff time.Duration
	// HTTPClient overrides the client used against the primary.
	HTTPClient *http.Client
	// Logger receives replication diagnostics; nil discards them.
	Logger *log.Logger
	// LogLevel gates the follower's logger (default info). The inner
	// server's level is Serve.Obs.LogLevel, set independently.
	LogLevel obs.Level
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.PollWait <= 0 {
		c.PollWait = 10 * time.Second
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = time.Second
	}
	return c
}

// Stats is a point-in-time summary of a follower's replication progress
// (the GET /replication/status payload).
type Stats struct {
	Primary string `json:"primary"`
	ID      string `json:"id"`
	// Bootstrapped reports whether THIS process downloaded a checkpoint at
	// start; a restart that resumed from local state reports false.
	Bootstrapped bool `json:"bootstrapped"`
	// BootstrapSeq is the snapshot sequence of the installed checkpoint
	// (0 when none was needed).
	BootstrapSeq int64 `json:"bootstrap_seq,omitempty"`
	// Rebootstraps counts mid-life re-bootstraps after cursor eviction.
	Rebootstraps int64 `json:"rebootstraps,omitempty"`
	// AppliedBatches / AppliedRows / AppliedRefits count replicated
	// records applied by this process.
	AppliedBatches int64 `json:"applied_batches"`
	AppliedRows    int64 `json:"applied_rows"`
	AppliedRefits  int64 `json:"applied_refits"`
	// LastAppliedSeq is the newest mirrored log record; NextSeq the next
	// one the follower will request.
	LastAppliedSeq uint64 `json:"last_applied_seq"`
	NextSeq        uint64 `json:"next_seq"`
	// Polls / PollErrors count tail requests; CaughtUp reports whether the
	// newest poll found the follower at the primary's head.
	Polls      int64 `json:"polls"`
	PollErrors int64 `json:"poll_errors,omitempty"`
	CaughtUp   bool  `json:"caught_up"`
	// LastContactMS is the time since the last successful poll (-1 before
	// the first).
	LastContactMS float64 `json:"last_contact_ms"`
}

// running pairs a serving server with its (cached) handler.
type running struct {
	srv *serve.Server
	h   http.Handler
}

// Follower is a read replica: a serve.Server in follower mode fed by a
// background loop tailing the primary's log.
type Follower struct {
	cfg    Config
	client *client
	id     string

	cur atomic.Pointer[running]

	// reg holds the follower-owned replica_* metric families; logger is
	// the leveled logger replication diagnostics route through.
	reg    *obs.Registry
	met    *replicaMetrics
	logger *obs.Logger

	mu          sync.Mutex
	stats       Stats
	lastContact time.Time

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// Start bootstraps (if the data directory is cold) and launches a
// follower of cfg.Primary. The returned follower is already serving
// whatever state it recovered or bootstrapped; the tail loop catches it
// up and keeps it current. Call Close to stop.
func Start(cfg Config) (*Follower, error) {
	cfg = cfg.withDefaults()
	if cfg.Primary == "" {
		return nil, fmt.Errorf("replica: Config.Primary is required")
	}
	dataDir := cfg.Serve.Durability.DataDir
	if dataDir == "" {
		return nil, fmt.Errorf("replica: Serve.Durability.DataDir is required (the mirrored log is the restart state)")
	}
	cfg.Serve.FollowerOf = cfg.Primary
	cl, err := newClient(cfg.Primary, cfg.HTTPClient)
	if err != nil {
		return nil, err
	}
	id, err := followerID(dataDir, cfg.ID)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	f := &Follower{cfg: cfg, client: cl, id: id, ctx: ctx, cancel: cancel}
	f.reg = obs.NewRegistry()
	f.met = newReplicaMetrics(f.reg)
	f.logger = obs.NewLogger(cfg.Logger, cfg.LogLevel)
	f.stats = Stats{Primary: cfg.Primary, ID: id}

	has, err := wal.HasState(dataDir)
	if err != nil {
		cancel()
		return nil, err
	}
	if !has {
		// Cold directory: bootstrap from the primary's newest checkpoint.
		// A checkpoint-less primary just means we tail from sequence 1.
		bundle, err := cl.fetchCheckpoint(ctx)
		switch {
		case errors.Is(err, errNoCheckpoint):
			f.logf("replica: primary has no checkpoint yet; starting empty")
		case err != nil:
			cancel()
			return nil, err
		default:
			if err := installCheckpoint(dataDir, bundle); err != nil {
				cancel()
				return nil, err
			}
			f.stats.Bootstrapped = true
			f.stats.BootstrapSeq = bundle.manifest.Seq
			f.met.bootstraps.Inc()
			f.logf("replica: bootstrapped from checkpoint seq=%d (wal_seq=%d)",
				bundle.manifest.Seq, bundle.manifest.WALSeq)
		}
	} else {
		f.logf("replica: resuming from local state in %s (no re-bootstrap)", dataDir)
	}

	srv, err := serve.New(cfg.Serve)
	if err != nil {
		cancel()
		return nil, err
	}
	f.publish(srv)
	f.wg.Add(1)
	go f.loop()
	return f, nil
}

// followerID returns the configured id, or loads/creates the persisted one.
func followerID(dataDir, configured string) (string, error) {
	if configured != "" {
		return configured, nil
	}
	path := filepath.Join(dataDir, "follower.id")
	if data, err := os.ReadFile(path); err == nil {
		if id := strings.TrimSpace(string(data)); id != "" {
			return id, nil
		}
	}
	raw := make([]byte, 8)
	if _, err := rand.Read(raw); err != nil {
		return "", fmt.Errorf("replica: generating follower id: %w", err)
	}
	id := "follower-" + hex.EncodeToString(raw)
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return "", fmt.Errorf("replica: %w", err)
	}
	if err := os.WriteFile(path, []byte(id+"\n"), 0o644); err != nil {
		return "", fmt.Errorf("replica: persisting follower id: %w", err)
	}
	return id, nil
}

// installCheckpoint writes a verified bundle into the data directory,
// preserving the primary's manifest (sequence, WAL coverage, counters,
// config hash, policy state and segment list) so recovery restores the
// primary's exact post-checkpoint state. Every segment is written and
// verified against its ref before the manifest is, so a crash part-way
// never leaves a manifest without its segments.
func installCheckpoint(dataDir string, b *checkpointBundle) error {
	for _, ref := range b.manifest.Segments {
		if err := segment.Install(wal.SegmentDir(dataDir), ref, b.segments[ref.Filename()]); err != nil {
			return fmt.Errorf("replica: checkpoint segment: %w", err)
		}
	}
	st, err := wal.OpenStore(wal.CheckpointDir(dataDir))
	if err != nil {
		return err
	}
	raw := func(data []byte) func(io.Writer) error {
		return func(w io.Writer) error { _, werr := w.Write(data); return werr }
	}
	var triples, posterior func(io.Writer) error
	if b.triples != nil {
		triples = raw(b.triples)
	}
	if b.posterior != nil {
		posterior = raw(b.posterior)
	}
	return st.Write(b.manifest, triples, raw(b.quality), posterior)
}

// publish swaps the serving server (and its cached handler).
func (f *Follower) publish(srv *serve.Server) {
	f.cur.Store(&running{srv: srv, h: srv.Handler()})
}

// Server returns the follower's current serving server. The pointer is
// replaced only by a re-bootstrap.
func (f *Follower) Server() *serve.Server { return f.cur.Load().srv }

// Handler serves the follower's read API plus GET /replication/status
// and a GET /metrics that concatenates the inner server's exposition
// with the follower-owned replica_* families.
// Writes are rejected with the primary's address by the underlying server;
// the /replication feed endpoints are live too, so further followers can
// chain off this one.
func (f *Follower) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /replication/status", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(f.Stats())
	})
	mux.HandleFunc("GET /metrics", f.handleMetrics)
	mux.Handle("/", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		f.cur.Load().h.ServeHTTP(w, r)
	}))
	return mux
}

// Stats returns a snapshot of the follower's replication progress.
func (f *Follower) Stats() Stats {
	f.mu.Lock()
	st := f.stats
	last := f.lastContact
	f.mu.Unlock()
	st.NextSeq = f.Server().NextReplicationSeq()
	if last.IsZero() {
		st.LastContactMS = -1
	} else {
		st.LastContactMS = float64(time.Since(last)) / float64(time.Millisecond)
	}
	return st
}

// Close stops the tail loop (aborting an in-flight long-poll) and shuts
// the serving server down. Reads against the last snapshot keep working
// on the underlying handler until the process exits.
func (f *Follower) Close() {
	f.cancel()
	f.wg.Wait()
	f.Server().Close()
}

// logf logs at info through the configured logger, if any; warnf and
// errorf are the leveled variants. Message text is identical to the
// pre-leveled output.
func (f *Follower) logf(format string, args ...any) {
	f.logger.Infof(format, args...)
}

func (f *Follower) warnf(format string, args ...any) {
	f.logger.Warnf(format, args...)
}

func (f *Follower) errorf(format string, args ...any) {
	f.logger.Errorf(format, args...)
}

// sleep pauses for d or until Close.
func (f *Follower) sleep(d time.Duration) {
	select {
	case <-time.After(d):
	case <-f.ctx.Done():
	}
}

// loop is the tail loop: poll the primary from the first sequence the
// local log is missing, mirror and apply what arrives, re-bootstrap on
// 410, back off on errors.
func (f *Follower) loop() {
	defer f.wg.Done()
	for f.ctx.Err() == nil {
		srv := f.Server()
		next := srv.NextReplicationSeq()
		batches, err := f.client.pollWAL(f.ctx, next, f.id, f.cfg.PollWait)
		switch {
		case errors.Is(err, errGone):
			f.warnf("replica: history before seq %d is gone (cursor evicted); re-bootstrapping", next)
			if rerr := f.rebootstrap(); rerr != nil {
				f.errorf("replica: re-bootstrap: %v", rerr)
				f.sleep(f.cfg.RetryBackoff)
			}
			continue
		case err != nil:
			if f.ctx.Err() != nil {
				return
			}
			f.mu.Lock()
			f.stats.PollErrors++
			f.mu.Unlock()
			f.met.pollErrors.Inc()
			f.warnf("replica: poll from %d: %v", next, err)
			f.sleep(f.cfg.RetryBackoff)
			continue
		}
		f.mu.Lock()
		f.stats.Polls++
		f.stats.CaughtUp = len(batches) == 0
		f.lastContact = time.Now()
		f.mu.Unlock()
		f.met.polls.Inc()
		if len(batches) == 0 {
			f.met.caughtUp.Set(1)
		} else {
			f.met.caughtUp.Set(0)
		}
		for _, b := range batches {
			// Retry the same record until it applies: a refit marker is
			// mirrored into the local WAL before its refit runs, so
			// advancing past a transiently failed apply would skip that
			// refit forever and silently diverge from the primary.
			// (ApplyReplicated is idempotent for the log head, so the
			// retry re-runs the refit without re-appending.)
			for {
				err := srv.ApplyReplicated(b)
				if err == nil {
					break
				}
				f.warnf("replica: applying seq %d: %v (retrying)", b.Seq, err)
				f.mu.Lock()
				f.stats.PollErrors++
				f.mu.Unlock()
				f.met.pollErrors.Inc()
				f.sleep(f.cfg.RetryBackoff)
				if f.ctx.Err() != nil {
					return
				}
			}
			f.mu.Lock()
			f.stats.AppliedBatches++
			f.stats.AppliedRows += int64(len(b.Rows))
			if b.IsControl() {
				f.stats.AppliedRefits++
			}
			f.stats.LastAppliedSeq = b.Seq
			f.mu.Unlock()
			f.met.batches.Inc()
			f.met.rows.Add(uint64(len(b.Rows)))
			if b.IsControl() {
				f.met.refits.Inc()
			}
			f.met.lastApplied.Set(float64(b.Seq))
		}
	}
}

// rebootstrap replaces the follower's local state with the primary's
// newest checkpoint after the needed log history was truncated away. The
// checkpoint is downloaded before anything local is touched, and the old
// state directories are staged aside — not deleted — until the
// replacement server is up, so a failure part-way (disk full, transient
// I/O) restores the previous state instead of leaving a closed server
// published over a wiped directory. The swap is atomic for clients of
// Handler.
func (f *Follower) rebootstrap() error {
	bundle, err := f.client.fetchCheckpoint(f.ctx)
	if err != nil && !errors.Is(err, errNoCheckpoint) {
		return err
	}
	dataDir := f.cfg.Serve.Durability.DataDir
	dirs := []string{wal.LogDir(dataDir), wal.CheckpointDir(dataDir), wal.SegmentDir(dataDir)}
	stage := func(dir string) string { return dir + ".pre-rebootstrap" }

	f.Server().Close() // release the WAL before touching its files
	for _, dir := range dirs {
		if err := os.RemoveAll(stage(dir)); err != nil {
			return fmt.Errorf("replica: clearing stale staging %s: %w", stage(dir), err)
		}
		if err := os.Rename(dir, stage(dir)); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("replica: staging %s aside: %w", dir, err)
		}
	}
	restore := func() {
		for _, dir := range dirs {
			os.RemoveAll(dir)
			if _, err := os.Stat(stage(dir)); err == nil {
				os.Rename(stage(dir), dir)
			}
		}
		// Reopen the previous state so reads keep working and the tail
		// loop retries against a live server.
		if srv, rerr := serve.New(f.cfg.Serve); rerr == nil {
			f.publish(srv)
		} else {
			f.errorf("replica: restoring pre-rebootstrap state: %v", rerr)
		}
	}
	if bundle != nil {
		if err := installCheckpoint(dataDir, bundle); err != nil {
			restore()
			return err
		}
	}
	srv, err := serve.New(f.cfg.Serve)
	if err != nil {
		restore()
		return err
	}
	f.publish(srv)
	for _, dir := range dirs {
		os.RemoveAll(stage(dir))
	}
	f.mu.Lock()
	f.stats.Rebootstraps++
	if bundle != nil {
		f.stats.BootstrapSeq = bundle.manifest.Seq
	}
	f.mu.Unlock()
	f.met.bootstraps.Inc()
	if bundle != nil {
		f.logf("replica: re-bootstrapped from checkpoint seq=%d (wal_seq=%d)",
			bundle.manifest.Seq, bundle.manifest.WALSeq)
	}
	return nil
}
