package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"latenttruth/internal/model"
	claimseg "latenttruth/internal/segment"
)

// Layout of a data directory: the log, the checkpoints and the sealed
// claim segments live side by side so one -data-dir flag carries
// everything.
const (
	logSubdir        = "wal"
	checkpointSubdir = "checkpoints"
	segmentSubdir    = "segments"
)

// LogDir, CheckpointDir and SegmentDir return the standard subdirectories
// of a data directory.
func LogDir(dataDir string) string        { return filepath.Join(dataDir, logSubdir) }
func CheckpointDir(dataDir string) string { return filepath.Join(dataDir, checkpointSubdir) }
func SegmentDir(dataDir string) string    { return filepath.Join(dataDir, segmentSubdir) }

// HasState reports whether dataDir holds any durable state: a checkpoint
// directory or a log segment. Replication followers use it to decide
// between bootstrapping from the primary (cold directory) and resuming
// from local state (restart) without opening anything.
func HasState(dataDir string) (bool, error) {
	for _, probe := range []struct {
		dir string
		hit func(name string) bool
	}{
		{CheckpointDir(dataDir), func(name string) bool { return strings.HasPrefix(name, chkPrefix) }},
		{LogDir(dataDir), func(name string) bool { _, ok := parseSegmentName(name); return ok }},
	} {
		entries, err := os.ReadDir(probe.dir)
		if err != nil {
			if os.IsNotExist(err) {
				continue
			}
			return false, fmt.Errorf("wal: %w", err)
		}
		for _, e := range entries {
			if probe.hit(e.Name()) {
				return true, nil
			}
		}
	}
	return false, nil
}

// RecoveryStats summarizes what recovery found, for logs and the
// /durability endpoint.
type RecoveryStats struct {
	// ColdStart is true when no usable checkpoint and no log records
	// existed — a first boot.
	ColdStart bool `json:"cold_start"`
	// CheckpointSeq / CheckpointWALSeq identify the checkpoint loaded
	// (zero on cold start).
	CheckpointSeq    int64  `json:"checkpoint_seq"`
	CheckpointWALSeq uint64 `json:"checkpoint_wal_seq"`
	// CheckpointsSkipped counts checkpoints that were present but
	// unreadable (missing files, CRC mismatch, bad manifest).
	CheckpointsSkipped int `json:"checkpoints_skipped"`
	// ReplayedBatches / ReplayedRows count the log tail re-applied on top
	// of the checkpoint.
	ReplayedBatches int `json:"replayed_batches"`
	ReplayedRows    int `json:"replayed_rows"`
	// TornBytes, CorruptRecords and SegmentsDropped carry the log scan's
	// repair report (see OpenStats).
	TornBytes       int64 `json:"torn_bytes"`
	CorruptRecords  int   `json:"corrupt_records"`
	SegmentsDropped int   `json:"segments_dropped"`
}

// Recovered is the reconstructed durable state of a data directory.
type Recovered struct {
	// Log is open for appending, positioned after the newest valid record.
	Log *Log
	// Store is the checkpoint store.
	Store *Store
	// Checkpoint is the checkpoint recovery loaded, nil on cold start.
	Checkpoint *Checkpoint
	// DB is the cumulative raw database from the checkpoint (empty on cold
	// start), in original insertion order — whether it was reconstructed
	// from segments or read back from a legacy triples.csv.
	DB *model.RawDB
	// Segments lists the verified segment refs the checkpoint covers the
	// corpus with (nil for legacy triples.csv checkpoints and cold starts).
	Segments []claimseg.Ref
	// Tail is the acknowledged-but-not-checkpointed batch suffix: every
	// log record with a sequence number above the checkpoint's coverage.
	Tail []Batch
	// Stats reports what recovery found and repaired.
	Stats RecoveryStats
}

// Recover reconstructs the durable state under dataDir: it opens the
// checkpoint store and the log (repairing torn or corrupt tails), loads
// the newest checkpoint whose files verify — falling back to older ones,
// which works because segments are only truncated behind the *oldest*
// retained checkpoint — and collects the log tail to replay. opts.Dir is
// ignored; the log always lives in LogDir(dataDir).
func Recover(dataDir string, opts Options) (*Recovered, error) {
	if dataDir == "" {
		return nil, fmt.Errorf("wal: data directory is required")
	}
	store, err := OpenStore(CheckpointDir(dataDir))
	if err != nil {
		return nil, err
	}
	opts.Dir = LogDir(dataDir)
	log, openStats, err := Open(opts)
	if err != nil {
		return nil, err
	}
	rec := &Recovered{
		Log:   log,
		Store: store,
		DB:    model.NewRawDB(),
		Stats: RecoveryStats{
			TornBytes:       openStats.TornBytes,
			CorruptRecords:  openStats.CorruptRecords,
			SegmentsDropped: openStats.SegmentsDropped,
		},
	}

	cps, skipped, err := store.Checkpoints()
	if err != nil {
		log.Close()
		return nil, err
	}
	rec.Stats.CheckpointsSkipped = skipped
	for i := len(cps) - 1; i >= 0; i-- {
		var db *model.RawDB
		var rerr error
		if cps[i].Manifest.TriplesCRC != 0 {
			// A checkpoint from before segments were the only corpus
			// format; the next checkpoint seals all of its rows.
			db, rerr = cps[i].ReadTriples()
		} else {
			// The corpus is reopened from the immutable segments the
			// manifest lists, every page CRC-verified before a single row
			// is trusted.
			db, rerr = loadSegmentDB(SegmentDir(dataDir), cps[i].Manifest.Segments)
		}
		if rerr != nil {
			rec.Stats.CheckpointsSkipped++
			continue
		}
		cp := cps[i]
		rec.Checkpoint = &cp
		rec.DB = db
		rec.Segments = cp.Manifest.Segments
		break
	}
	// A directory that HAD checkpoints but where none is readable is not a
	// cold start: the WAL has been truncated behind those checkpoints, so
	// rebuilding from the surviving suffix alone would silently serve a
	// fraction of the ingested history as if it were everything.
	if rec.Checkpoint == nil && (len(cps) > 0 || skipped > 0) {
		log.Close()
		return nil, fmt.Errorf("wal: %s: no readable checkpoint among %d present; refusing to serve partial state (restore a checkpoint or move the directory aside)",
			dataDir, len(cps)+skipped)
	}

	var from uint64 = 1
	if rec.Checkpoint != nil {
		rec.Stats.CheckpointSeq = rec.Checkpoint.Manifest.Seq
		rec.Stats.CheckpointWALSeq = rec.Checkpoint.Manifest.WALSeq
		from = rec.Checkpoint.Manifest.WALSeq + 1
		// A fully truncated log must keep numbering above the checkpoint.
		log.EnsureNextSeq(from)
	}
	if err := log.Replay(from, func(b Batch) error {
		rec.Tail = append(rec.Tail, b)
		rec.Stats.ReplayedBatches++
		rec.Stats.ReplayedRows += len(b.Rows)
		return nil
	}); err != nil {
		log.Close()
		return nil, err
	}
	// The same partial-state guard for a checkpoint-less directory: if the
	// log's first surviving record is not seq 1, a prefix was truncated
	// (or lost) and the full history cannot be reconstructed.
	if rec.Checkpoint == nil && len(rec.Tail) > 0 && rec.Tail[0].Seq != 1 {
		log.Close()
		return nil, fmt.Errorf("wal: %s: log starts at seq %d with no checkpoint covering the gap; refusing to serve partial state",
			dataDir, rec.Tail[0].Seq)
	}
	rec.Stats.ColdStart = rec.Checkpoint == nil && openStats.Records == 0
	return rec, nil
}

// loadSegmentDB reconstructs the raw database from a checkpoint's segment
// refs: contiguous global-index coverage is enforced, every segment is
// opened (CRC-verifying all pages) and decoded into its index range, and
// the rows are re-added in insertion order — so the rebuilt RawDB is
// bit-identical to the one the checkpointing server held.
func loadSegmentDB(dir string, refs []claimseg.Ref) (*model.RawDB, error) {
	total := 0
	for _, ref := range refs {
		if ref.FirstRow != total {
			return nil, fmt.Errorf("wal: segment %d starts at row %d, want %d (coverage gap)", ref.ID, ref.FirstRow, total)
		}
		total += ref.Rows
	}
	rows := make([]model.Row, total)
	for _, ref := range refs {
		s, err := claimseg.Open(dir, ref)
		if err != nil {
			return nil, err
		}
		rerr := s.ReadRows(rows)
		s.Close()
		if rerr != nil {
			return nil, rerr
		}
	}
	db := model.NewRawDB()
	for i, r := range rows {
		if !db.AddRow(r) {
			return nil, fmt.Errorf("wal: segment row %d is a duplicate; segments are corrupt or mismatched", i)
		}
	}
	return db, nil
}
