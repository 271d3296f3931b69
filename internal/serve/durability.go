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
	// DataDir is the state directory; the WAL lives in DataDir/wal,
	// checkpoints in DataDir/checkpoints and the sealed claim segments in
	// DataDir/segments. Empty disables durability.
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
}

// configHash fingerprints every configuration field that shapes the model
// state a checkpoint captures. Restoring policy state under a different
// fingerprint would silently change inference, so recovery drops the
// accumulated quality (keeping the corpus, which is config-independent)
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
	fmt.Fprintf(h, "threshold=%v|policy=%s|fullevery=%d",
		c.Threshold, c.Policy, c.FullEvery)
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

	// Either kind opens either directory: the segments on disk are the same,
	// the kind only picks what readers scan.
	segDir := wal.SegmentDir(dcfg.DataDir)
	if err := os.MkdirAll(segDir, 0o755); err != nil {
		rec.Log.Close()
		return fmt.Errorf("serve: creating segment directory: %w", err)
	}
	db, err := store.Open(s.cfg.Storage, segDir, rec.Segments, rec.DB)
	if err != nil {
		rec.Log.Close()
		return fmt.Errorf("serve: opening segments under %s: %w", dcfg.DataDir, err)
	}
	s.db = db
	if n := len(rec.Segments); n > 0 {
		st := db.Stats()
		s.logf("serve: storage=%s: opened %d segments (%d rows on disk, %d bytes, no CSV replay)",
			s.cfg.Storage, n, st.OnDisk, st.SegmentBytes)
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
			obs.GaugeMax, []string{"follower"}, func() []obs.Sample {
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
// dataset is rebuilt from the recovered database (checkpoint rows only at
// this point — the tail replays after), the posterior comes from the
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
	// posterior they extend, so only the online policy reports LTMinc.
	method := "LTM"
	if RefitPolicy(m.Mode) == RefitOnline {
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
// the log: the rows ingested since the previous checkpoint are sealed into
// a segment, then manifest + quality + posterior land atomically in the
// checkpoint store, old checkpoints beyond the retention count are pruned,
// and WAL records and segment files no retained checkpoint needs are
// deleted. Called under Server.mu right after the snapshot swap. A
// checkpoint failure does not fail the refit — the snapshot is already
// live and the WAL still covers everything — it is logged and counted for
// /durability.
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
	// Rows sealed by earlier checkpoints stay in their immutable segments;
	// only the tail ingested since is sealed (merging trailing segments
	// when that keeps their number logarithmic).
	if m.Segments, err = s.db.Seal(uint64(snap.Seq)); err != nil {
		s.checkpointFailed(fmt.Errorf("sealing segment: %w", err))
		return
	}
	// The posterior makes the checkpoint a full snapshot restore point:
	// recovery (and a bootstrapping follower) reconstructs the published
	// probabilities bit-exactly, so a subsequent dirty refit extends the
	// same previous posterior the primary extended.
	err = d.store.Write(m, nil,
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
	// Any segment file no retained checkpoint lists is garbage: a seal
	// whose checkpoint never committed, a stale temp, or a segment merged
	// away before the oldest retained checkpoint.
	var keep []segment.Ref
	for _, cp := range left {
		keep = append(keep, cp.Manifest.Segments...)
	}
	if n, err := segment.Clean(wal.SegmentDir(d.cfg.DataDir), keep); err != nil {
		s.warnf("serve: cleaning orphan segments: %v", err)
	} else if n > 0 {
		s.logf("serve: removed %d orphan segment file(s)", n)
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
