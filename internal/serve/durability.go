package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync/atomic"
	"time"

	"latenttruth/internal/core"
	"latenttruth/internal/dataset"
	"latenttruth/internal/model"
	"latenttruth/internal/obs"
	"latenttruth/internal/segment"
	"latenttruth/internal/store"
	"latenttruth/internal/stream"
	"latenttruth/internal/wal"
)

// Durability configures write-ahead logging and checkpointing. The zero
// value (empty DataDir) keeps the server memory-only: a restart then loses
// all ingested state, exactly the pre-durability behavior.
type Durability struct {
	// DataDir is the state directory; the WAL lives in DataDir/wal and
	// checkpoints in DataDir/checkpoints. Empty disables durability.
	DataDir string
	// Fsync is the WAL fsync policy (default wal.SyncInterval): "always"
	// survives power loss per acknowledged batch, "interval" bounds loss to
	// FsyncInterval, "never" leaves syncing to the OS — all three survive a
	// SIGKILL of the process, because records hit the page cache per batch.
	Fsync wal.SyncPolicy
	// FsyncInterval bounds unsynced time under the interval policy
	// (default 100ms).
	FsyncInterval time.Duration
	// SegmentBytes is the WAL segment rotation size (default 64 MiB).
	SegmentBytes int64
	// RetainCheckpoints is how many checkpoints to keep (default 3). WAL
	// segments are only deleted once every retained checkpoint covers
	// them, so recovery can always fall back to an older checkpoint.
	RetainCheckpoints int
}

// Enabled reports whether durability is configured.
func (d Durability) Enabled() bool { return d.DataDir != "" }

// withDefaults fills unset fields.
func (d Durability) withDefaults() Durability {
	if d.Fsync == "" {
		d.Fsync = wal.SyncInterval
	}
	if d.RetainCheckpoints == 0 {
		d.RetainCheckpoints = 3
	}
	return d
}

// durable is the server's durability runtime: nil when not configured.
type durable struct {
	cfg   Durability
	log   *wal.Log
	store *wal.Store
	// recovery is what startup found; immutable after New.
	recovery wal.RecoveryStats
	// qualityDropped is set when a checkpoint's policy state was discarded
	// because the configuration hash did not match.
	qualityDropped bool
	// configHash fingerprints the model-relevant configuration.
	configHash string

	// Checkpoint counters: written under Server.mu (only refits touch
	// them) but read atomically, so GET /durability is never blocked by an
	// in-flight refit — same discipline as the refit counters.
	checkpoints   atomic.Int64
	checkpointErr atomic.Int64
	lastSeq       atomic.Int64
	lastWALSeq    atomic.Uint64
	lastDurationN atomic.Int64 // nanoseconds

	// prevTriples is the newest checkpoint this process wrote on the
	// memory backend and prevRows the row count its triples.csv covers:
	// the next checkpoint copies that file (CRC-checked) and appends only
	// the rows ingested since. Nil when there is no such checkpoint (first
	// checkpoint, recovery, segment storage, or the last attempt failed).
	// Touched only under Server.mu.
	prevTriples *wal.Checkpoint
	prevRows    int
}

// configHash fingerprints every configuration field that shapes the model
// state a checkpoint captures. Restoring policy state under a different
// fingerprint would silently change inference, so recovery drops the
// accumulated quality (keeping the triples, which are config-independent)
// when the hash differs.
func configHash(c Config) string {
	h := sha256.New()
	ltm := c.LTM
	fmt.Fprintf(h, "priors=%v|iter=%d|burnin=%d|gap=%d|seed=%d|binary=%t|",
		ltm.Priors, ltm.Iterations, ltm.BurnIn, ltm.SampleGap, ltm.Seed, ltm.BinarySamples)
	names := make([]string, 0, len(ltm.SourcePriors))
	for name := range ltm.SourcePriors {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(h, "src:%q=%v|", name, ltm.SourcePriors[name])
	}
	fmt.Fprintf(h, "threshold=%v|policy=%s|fullevery=%d|shards=%d|sync=%d",
		c.Threshold, c.Policy, c.FullEvery, c.Shards, c.SyncEvery)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// openDurable recovers the durable state under cfg.Durability.DataDir and
// installs it into the server: the cumulative database, the accumulated
// quality and refit counters from the newest readable checkpoint, and the
// acknowledged-but-uncheckpointed WAL tail as pending mutations. After it
// returns, the server's in-memory state is bit-identical to the crashed
// process's at its last acknowledged batch (modulo the published snapshot,
// which the next refit reconstructs deterministically).
func (s *Server) openDurable() error {
	dcfg := s.cfg.Durability.withDefaults()
	rec, err := wal.Recover(dcfg.DataDir, wal.Options{
		SegmentBytes: dcfg.SegmentBytes,
		Sync:         dcfg.Fsync,
		SyncInterval: dcfg.FsyncInterval,
		Metrics:      s.met.walMetrics(),
	})
	if err != nil {
		return fmt.Errorf("serve: recovering %s: %w", dcfg.DataDir, err)
	}
	d := &durable{
		cfg:        dcfg,
		log:        rec.Log,
		store:      rec.Store,
		recovery:   rec.Stats,
		configHash: configHash(s.cfg),
	}
	d.checkpoints.Store(int64(rec.Store.Count()))

	// Reconcile the configured storage kind with what the directory was
	// written by: adopting a memory checkpoint under -storage=segments (or
	// vice versa) would be a silent format migration, so it errors loudly.
	// A cold directory accepts either kind.
	diskKind := rec.Storage
	if diskKind == "" && rec.Checkpoint != nil {
		diskKind = store.StorageMemory
	}
	if diskKind != "" && diskKind != s.cfg.Storage {
		rec.Log.Close()
		return fmt.Errorf("serve: %s was written by storage kind %q but the server is configured for %q; refusing to mix formats",
			dcfg.DataDir, diskKind, s.cfg.Storage)
	}
	switch s.cfg.Storage {
	case store.StorageSegments:
		segDir := wal.SegmentDir(dcfg.DataDir)
		if err := os.MkdirAll(segDir, 0o755); err != nil {
			rec.Log.Close()
			return fmt.Errorf("serve: creating segment directory: %w", err)
		}
		sb, err := store.OpenSegmentBacked(segDir, rec.Segments, rec.DB)
		if err != nil {
			rec.Log.Close()
			return fmt.Errorf("serve: opening segments under %s: %w", dcfg.DataDir, err)
		}
		s.db = sb
		if n := len(rec.Segments); n > 0 {
			st := sb.Stats()
			s.logf("serve: storage=segments: opened %d segments (%d rows on disk, %d bytes, no CSV replay)",
				n, st.OnDisk, st.SegmentBytes)
		}
	default:
		s.db = store.NewMemoryFrom(rec.DB)
	}
	s.ingest.log = rec.Log
	if cp := rec.Checkpoint; cp != nil {
		m := cp.Manifest
		s.refits.Store(m.Refits)
		s.fullRefits.Store(m.FullRefits)
		s.dirtyRefits.Store(m.DirtyRefits)
		s.walSeqCompacted.Store(m.WALSeq)
		s.totalCompacted = m.IngestedTotal
		s.ingest.restoreTotal(m.IngestedTotal)
		d.lastSeq.Store(m.Seq)
		d.lastWALSeq.Store(m.WALSeq)
		switch {
		case len(m.Policy) == 0:
			// Nothing to restore; the first refit will be full.
		case m.ConfigHash != d.configHash:
			d.qualityDropped = true
			s.warnf("serve: checkpoint %d config hash %s != %s; discarding accumulated quality (next refit is full)",
				m.Seq, m.ConfigHash, d.configHash)
		default:
			var st stream.State
			if err := json.Unmarshal(m.Policy, &st); err != nil {
				rec.Log.Close()
				return fmt.Errorf("serve: checkpoint %d policy state: %w", m.Seq, err)
			}
			online, err := stream.RestoreOnline(s.cfg.LTM, st)
			if err != nil {
				rec.Log.Close()
				return fmt.Errorf("serve: checkpoint %d policy state: %w", m.Seq, err)
			}
			online.SetSharding(s.cfg.Shards, s.cfg.SyncEvery)
			s.online = online
		}
	}
	s.dur = d
	s.repl = newReplTracker(rec.Log, s.cfg.Replication.withDefaults())
	if s.met != nil {
		// Follower lag is scraped, not maintained: the cursor set changes
		// as followers register and get evicted, so the gauge family
		// enumerates its children at exposition time.
		s.reg.GaugeVecFunc("replication_follower_lag_batches",
			"WAL records each registered follower trails the log head by.",
			[]string{"follower"}, func() []obs.Sample {
				cursors := s.repl.cursors(d.log.Stats().LastSeq)
				out := make([]obs.Sample, len(cursors))
				for i, c := range cursors {
					out[i] = obs.Sample{LabelValues: []string{c.ID}, Value: float64(c.LagBatches)}
				}
				return out
			})
	}
	// Restore the published snapshot from the checkpoint's posterior before
	// replaying the tail, so a refit marker replayed below (or the first
	// dirty refit after startup) extends the exact previous posterior the
	// checkpointed process had published. Requires restored policy state:
	// without the accumulator the posterior alone cannot continue the
	// fast-path refit chain, and the next (full) refit rebuilds everything.
	if cp := rec.Checkpoint; cp != nil && s.online != nil {
		if err := s.restoreSnapshot(cp); err != nil {
			s.warnf("serve: checkpoint %d: restoring published snapshot: %v (serving resumes at the next refit)",
				cp.Manifest.Seq, err)
		}
	}
	for _, b := range rec.Tail {
		s.ingest.replay(b)
		// A refit marker in the tail is a refit whose checkpoint never
		// landed (the checkpoint write failed or the crash beat it):
		// re-running it here reproduces the exact post-refit state — and
		// re-attempts the missing checkpoint.
		if ov, _, ok := parseRefitNote(b); ok {
			if _, err := s.refit(ov, false); err != nil && err != ErrNoData {
				s.warnf("serve: recovery: replaying refit marker seq=%d: %v", b.Seq, err)
			}
		}
	}
	if err := s.bootstrapFollowerSnapshot(); err != nil {
		s.warnf("serve: follower bootstrap snapshot: %v", err)
	}
	if rec.Stats.ColdStart {
		s.logf("serve: durability on (%s, fsync=%s): cold start", dcfg.DataDir, dcfg.Fsync)
	} else {
		s.logf("serve: recovered %s: checkpoint seq=%d wal_seq=%d, replayed %d batches (%d rows), torn=%dB corrupt=%d",
			dcfg.DataDir, rec.Stats.CheckpointSeq, rec.Stats.CheckpointWALSeq,
			rec.Stats.ReplayedBatches, rec.Stats.ReplayedRows, rec.Stats.TornBytes, rec.Stats.CorruptRecords)
	}
	return nil
}

// restoreSnapshot reconstructs the checkpointed serving snapshot: the
// dataset is rebuilt from the recovered database (checkpoint triples only
// at this point — the tail replays after), the posterior comes from the
// checkpoint's posterior.csv bit-exactly, and the quality table from the
// restored accumulator. Checkpoints without a posterior (pre-existing
// directories) restore nothing and the server starts unpublished, exactly
// the old behavior. Called during openDurable, before tail replay.
func (s *Server) restoreSnapshot(cp *wal.Checkpoint) error {
	if s.db.Len() == 0 {
		return nil
	}
	ds := model.BuildRows(s.db.Rows())
	prob, ok, err := cp.ReadPosterior(ds)
	if err != nil {
		return err
	}
	if !ok {
		return nil
	}
	m := cp.Manifest
	// Dirty snapshots inherit the method label of the full anchor whose
	// posterior they extend, so only the closed-form policies report LTMinc.
	method := "LTM"
	if mode := RefitPolicy(m.Mode); mode == RefitIncremental || mode == RefitOnline {
		method = "LTMinc"
	}
	snap, err := newSnapshot(m.Seq, ds, &model.Result{Method: method, Prob: prob},
		core.RankedQuality(s.online.Quality()), s.cfg.Threshold, RefitPolicy(m.Mode), 0, 0, 0, nil)
	if err != nil {
		return err
	}
	snap.DirtyEntities = m.DirtyEntities
	st := s.online.State()
	snap.QualityCounts, snap.QualityPriors = st.Counts, st.Priors
	s.snap.Store(snap)
	return nil
}

// checkpoint persists the just-published snapshot's inputs and advances
// the log: manifest + triples + quality land atomically in the checkpoint
// store, old checkpoints beyond the retention count are pruned, and WAL
// segments covered by every surviving checkpoint are deleted. Called under
// Server.mu right after the snapshot swap. A checkpoint failure does not
// fail the refit — the snapshot is already live and the WAL still covers
// everything — it is logged and counted for /durability.
//
// Cost note: under memory storage triples.csv holds the whole cumulative
// database, but it is not re-encoded per refit. Rows are append-only, so
// each checkpoint byte-copies the previous triples.csv this process wrote
// (verifying its CRC32C against that checkpoint's manifest while copying)
// and encodes only the rows ingested since: CSV work is O(new rows) and
// the rest is a sequential O(history) file copy. A CRC mismatch fails the
// checkpoint loudly and the next one re-encodes from Rows(), as does the
// first checkpoint of a process (no previous file of its own). Segment
// storage goes further: rows sealed by earlier checkpoints live in
// immutable segment files that are simply referenced again, and only the
// tail ingested since the previous checkpoint is sealed into one new
// segment — O(new rows) per checkpoint, copy included, with the same
// bit-identical restart guarantee. posterior.csv is still rewritten whole
// (O(facts)) by both kinds.
func (s *Server) checkpoint(snap *Snapshot) {
	d := s.dur
	start := time.Now()
	m := wal.Manifest{
		Seq:           snap.Seq,
		WALSeq:        s.walSeqCompacted.Load(),
		ConfigHash:    d.configHash,
		Refits:        s.refits.Load(),
		FullRefits:    s.fullRefits.Load(),
		DirtyRefits:   s.dirtyRefits.Load(),
		IngestedTotal: s.totalCompacted,
		Mode:          string(snap.Mode),
		DirtyEntities: snap.DirtyEntities,
	}
	state, err := json.Marshal(s.online.State())
	if err != nil {
		s.checkpointFailed(fmt.Errorf("encoding policy state: %w", err))
		return
	}
	m.Policy = state
	// Corpus coverage: the segment backend seals the rows ingested since
	// the previous checkpoint into one new immutable segment and records
	// the full (append-only) segment list in the manifest instead of a
	// CSV copy; the memory backend writes the whole corpus as triples.csv.
	var triples func(io.Writer) error
	rows := 0
	if sb, ok := s.db.(*store.SegmentBacked); ok {
		refs, err := sb.Seal(uint64(snap.Seq))
		if err != nil {
			s.checkpointFailed(fmt.Errorf("sealing segment: %w", err))
			return
		}
		m.Storage = store.StorageSegments
		m.Segments = refs
	} else {
		all := s.db.Rows()
		rows = len(all)
		triples = func(w io.Writer) error { return dataset.WriteTriplesRows(w, all) }
		if prev := d.prevTriples; prev != nil && d.prevRows <= rows {
			// Rows are append-only, so the previous triples.csv is a byte
			// prefix of this one: copy it, verifying its CRC on the way,
			// and encode only the rows ingested since.
			n := d.prevRows
			triples = func(w io.Writer) error {
				if err := prev.CopyTriples(w); err != nil {
					return err
				}
				return dataset.AppendTriplesRows(w, all[n:])
			}
		}
	}
	// Until this checkpoint is known good, the next one encodes from
	// Rows(): a failed attempt (a CRC mismatch above included) must never
	// become the prefix of a later file.
	d.prevTriples = nil
	// The posterior makes the checkpoint a full snapshot restore point:
	// recovery (and a bootstrapping follower) reconstructs the published
	// probabilities bit-exactly, so a subsequent dirty refit extends the
	// same previous posterior the primary extended.
	err = d.store.Write(m, triples,
		func(w io.Writer) error { return dataset.WriteQuality(w, s.online.Quality()) },
		func(w io.Writer) error { return dataset.WritePosterior(w, snap.Dataset, snap.Result.Prob) })
	if err != nil {
		s.checkpointFailed(err)
		return
	}
	left, err := d.store.Prune(d.cfg.RetainCheckpoints)
	if err != nil || len(left) == 0 {
		s.checkpointFailed(fmt.Errorf("pruning checkpoints: %w", err))
		return
	}
	if newest := left[len(left)-1]; triples != nil && newest.Manifest.Seq == m.Seq {
		d.prevTriples, d.prevRows = &newest, rows
	}
	// Evict dead or hopelessly lagging follower cursors first, so one
	// stuck follower cannot pin the WAL forever (it re-bootstraps from a
	// checkpoint instead); the survivors then bound the truncation floor
	// inside TruncateBefore.
	for _, name := range s.repl.evict(d.log.Stats().LastSeq) {
		s.warnf("serve: evicted replication cursor %q (stale or past max lag)", name)
	}
	// Truncate behind the OLDEST retained checkpoint so recovery can fall
	// back across the whole retention window.
	if err := d.log.TruncateBefore(left[0].Manifest.WALSeq + 1); err != nil {
		s.checkpointFailed(err)
		return
	}
	// With the new checkpoint published and older ones pruned, any segment
	// file the newest manifest does not reference is garbage — a seal
	// whose checkpoint never committed, or a stale temp. (Retained older
	// checkpoints reference prefixes of the newest list, so keeping only
	// the newest coverage is safe for fallback recovery.)
	if len(m.Segments) > 0 {
		if n, err := segment.Clean(wal.SegmentDir(d.cfg.DataDir), m.Segments); err != nil {
			s.warnf("serve: cleaning orphan segments: %v", err)
		} else if n > 0 {
			s.logf("serve: removed %d orphan segment file(s)", n)
		}
	}
	d.checkpoints.Store(int64(len(left)))
	d.lastSeq.Store(m.Seq)
	d.lastWALSeq.Store(m.WALSeq)
	dur := time.Since(start)
	d.lastDurationN.Store(int64(dur))
	if s.met != nil {
		s.met.checkpoints.Inc()
		s.met.checkpointSecs.Observe(dur.Seconds())
	}
	s.logf("serve: checkpoint seq=%d wal_seq=%d (%d retained, %s)",
		m.Seq, m.WALSeq, len(left), dur.Round(time.Millisecond))
}

// checkpointFailed records a failed checkpoint attempt.
func (s *Server) checkpointFailed(err error) {
	s.dur.checkpointErr.Add(1)
	if s.met != nil {
		s.met.checkpointErrs.Inc()
	}
	s.errorf("serve: checkpoint failed: %v", err)
}

// DurabilityStats is the GET /durability payload.
type DurabilityStats struct {
	Enabled bool   `json:"enabled"`
	DataDir string `json:"data_dir,omitempty"`
	Fsync   string `json:"fsync,omitempty"`

	WAL *wal.Stats `json:"wal,omitempty"`

	Checkpoints       int64   `json:"checkpoints,omitempty"`
	CheckpointErrors  int64   `json:"checkpoint_errors,omitempty"`
	LastCheckpointSeq int64   `json:"last_checkpoint_seq,omitempty"`
	LastCheckpointWAL uint64  `json:"last_checkpoint_wal_seq,omitempty"`
	LastCheckpointMS  float64 `json:"last_checkpoint_ms,omitempty"`

	Recovery       *wal.RecoveryStats `json:"recovery,omitempty"`
	QualityDropped bool               `json:"quality_dropped,omitempty"`

	// ReplicationCursors lists the follower positions currently pinning
	// the WAL's truncation floor (primary side of log shipping).
	ReplicationCursors []ReplicationCursor `json:"replication_cursors,omitempty"`
}

// DurabilityStats reports the WAL, checkpoint and recovery state. It
// reads atomics and the log's own synchronized snapshot — like /stats, it
// is never blocked by an in-flight refit.
func (s *Server) DurabilityStats() DurabilityStats {
	d := s.dur
	if d == nil {
		return DurabilityStats{}
	}
	walStats := d.log.Stats()
	rec := d.recovery
	return DurabilityStats{
		Enabled:            true,
		DataDir:            d.cfg.DataDir,
		Fsync:              string(d.cfg.Fsync),
		WAL:                &walStats,
		Checkpoints:        d.checkpoints.Load(),
		CheckpointErrors:   d.checkpointErr.Load(),
		LastCheckpointSeq:  d.lastSeq.Load(),
		LastCheckpointWAL:  d.lastWALSeq.Load(),
		LastCheckpointMS:   float64(d.lastDurationN.Load()) / float64(time.Millisecond),
		Recovery:           &rec,
		QualityDropped:     d.qualityDropped,
		ReplicationCursors: s.repl.cursors(walStats.LastSeq),
	}
}

// RecoveryStats returns what startup recovery found (zero value when the
// server is not durable).
func (s *Server) RecoveryStats() wal.RecoveryStats {
	if s.dur == nil {
		return wal.RecoveryStats{}
	}
	return s.dur.recovery
}
