package serve

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"latenttruth/internal/dataset"
	"latenttruth/internal/model"
	"latenttruth/internal/segment"
	"latenttruth/internal/store"
	"latenttruth/internal/wal"
)

// newestCheckpoint returns the newest checkpoint under s's data dir.
func newestCheckpoint(t *testing.T, s *Server) wal.Checkpoint {
	t.Helper()
	cps, _, err := s.dur.store.Checkpoints()
	if err != nil || len(cps) == 0 {
		t.Fatalf("listing checkpoints: %d found, %v", len(cps), err)
	}
	return cps[len(cps)-1]
}

// wantSealedCheckpoint asserts cp carries no triples.csv and that its
// manifest's segments cover exactly the first rows rows, contiguously,
// with every segment file present and verifying.
func wantSealedCheckpoint(t *testing.T, dataDir string, cp wal.Checkpoint, rows int) {
	t.Helper()
	if cp.Manifest.TriplesCRC != 0 {
		t.Fatalf("checkpoint %d has triples CRC %08x", cp.Manifest.Seq, cp.Manifest.TriplesCRC)
	}
	if _, err := os.Stat(filepath.Join(cp.Dir, "triples.csv")); !os.IsNotExist(err) {
		t.Fatalf("checkpoint %d has a triples.csv (err=%v)", cp.Manifest.Seq, err)
	}
	covered := 0
	for _, ref := range cp.Manifest.Segments {
		if ref.FirstRow != covered {
			t.Fatalf("checkpoint %d: segment %d starts at row %d, want %d", cp.Manifest.Seq, ref.ID, ref.FirstRow, covered)
		}
		s, err := segment.Open(wal.SegmentDir(dataDir), ref)
		if err != nil {
			t.Fatalf("checkpoint %d: %v", cp.Manifest.Seq, err)
		}
		s.Close()
		covered += ref.Rows
	}
	if covered != rows {
		t.Fatalf("checkpoint %d: segments cover %d rows, want %d", cp.Manifest.Seq, covered, rows)
	}
}

// maxLiveSegments is the bound Seal keeps the live segment count under.
func maxLiveSegments(rows int) int {
	return int(math.Ceil(math.Log2(float64(rows)))) + 1
}

// TestMemoryCheckpointSealsSegments asserts a durable memory-kind server
// checkpoints its corpus as segments, the one on-disk format: no
// triples.csv, a manifest whose segments cover every row, and a live
// segment count that stays logarithmic in the row count. Its readers
// still scan the heap rows, so the skipping counters never move.
func TestMemoryCheckpointSealsSegments(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, durableConfig(RefitDirty, dir))
	for i := 0; i < 12; i++ {
		mustIngest(t, s, batchRows(i))
		mustRefit(t, s)
		wantSealedCheckpoint(t, dir, newestCheckpoint(t, s), s.db.Len())
		if n := s.db.Stats().Segments; n > maxLiveSegments(s.db.Len()) {
			t.Fatalf("refit %d: %d live segments for %d rows", i, n, s.db.Len())
		}
	}
	if code, _ := getBody(t, ts, "/claims?entity=e03"); code != http.StatusOK {
		t.Fatalf("GET /claims: status %d", code)
	}
	st := s.db.Stats()
	if st.Kind != store.StorageMemory || st.OnDisk != s.db.Len() || st.Segments == 0 {
		t.Fatalf("storage stats %+v, want memory kind with every row on disk", st)
	}
	if st.SegmentsScanned+st.SegmentsSkipped != 0 {
		t.Fatalf("a memory-kind reader touched segments: %+v", st)
	}
}

// writeLegacyCheckpoint rewrites cp in the format servers used before
// segments were the only corpus format: the corpus as triples.csv (rows),
// no segment list, and the checkpoint's own quality and posterior files.
func writeLegacyCheckpoint(t *testing.T, dataDir string, cp wal.Checkpoint, rows []model.Row) {
	t.Helper()
	st, err := wal.OpenStore(wal.CheckpointDir(dataDir))
	if err != nil {
		t.Fatal(err)
	}
	copyPart := func(name string) func(io.Writer) error {
		data, err := os.ReadFile(filepath.Join(cp.Dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return func(w io.Writer) error { _, werr := w.Write(data); return werr }
	}
	m := cp.Manifest
	m.Segments = nil
	if err := st.Write(m, func(w io.Writer) error { return dataset.WriteTriplesRows(w, rows) },
		copyPart("quality.csv"), copyPart(wal.PosteriorName)); err != nil {
		t.Fatal(err)
	}
}

// TestLegacyTriplesCheckpointRecovers restarts, under either storage kind,
// from a data directory in the older format: a triples.csv checkpoint
// plus a WAL tail, with no segments. Recovery must restore the
// checkpointed snapshot bit-identically, stay in lockstep with an
// uninterrupted server, and seal every row at its next checkpoint.
func TestLegacyTriplesCheckpointRecovers(t *testing.T) {
	for _, kind := range []string{store.StorageMemory, store.StorageSegments} {
		t.Run(kind, func(t *testing.T) {
			dir := t.TempDir()
			ref, err := New(testConfig(RefitDirty))
			if err != nil {
				t.Fatal(err)
			}
			defer ref.Close()
			a, err := New(durableConfig(RefitDirty, dir))
			if err != nil {
				t.Fatal(err)
			}
			var last *Snapshot
			for r := 0; r < 4; r++ {
				mustIngest(t, a, batchRows(r))
				mustIngest(t, ref, batchRows(r))
				last = mustRefit(t, a)
				mustEqualSnapshots(t, mustRefit(t, ref), last)
			}
			for _, r := range []int{10, 11} {
				mustIngest(t, a, batchRows(r))
				mustIngest(t, ref, batchRows(r))
			}
			crash(a)

			// Leave only the newest checkpoint, in the legacy format.
			cp := newestCheckpoint(t, a)
			cps, _, err := a.dur.store.Checkpoints()
			if err != nil {
				t.Fatal(err)
			}
			for _, old := range cps[:len(cps)-1] {
				os.RemoveAll(old.Dir)
			}
			writeLegacyCheckpoint(t, dir, cp, a.db.Rows())
			if err := os.RemoveAll(wal.SegmentDir(dir)); err != nil {
				t.Fatal(err)
			}

			cfg := durableConfig(RefitDirty, dir)
			cfg.Storage = kind
			b, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			if rs := b.RecoveryStats(); rs.CheckpointSeq != cp.Manifest.Seq || rs.ReplayedBatches != 2 {
				t.Fatalf("recovery stats %+v, want checkpoint %d plus 2 replayed batches", rs, cp.Manifest.Seq)
			}
			if st := b.db.Stats(); st.OnDisk != 0 || st.Segments != 0 {
				t.Fatalf("a legacy checkpoint recovered with sealed rows: %+v", st)
			}
			mustEqualSnapshots(t, b.Snapshot(), last)

			mustEqualSnapshots(t, mustRefit(t, b), mustRefit(t, ref))
			wantSealedCheckpoint(t, dir, newestCheckpoint(t, b), b.db.Len())
			mustIngest(t, b, batchRows(20))
			mustIngest(t, ref, batchRows(20))
			mustEqualSnapshots(t, mustRefit(t, b), mustRefit(t, ref))
		})
	}
}

// distinctRows returns n rows no other call with a different tag shares.
func distinctRows(tag string, n int) []model.Row {
	rows := make([]model.Row, n)
	for i := range rows {
		rows[i] = model.Row{
			Entity:    fmt.Sprintf("e%02d", i%7),
			Attribute: fmt.Sprintf("%s-%d", tag, i),
			Source:    fmt.Sprintf("s%d", i%3),
		}
	}
	return rows
}

// TestCheckpointFallbackAcrossMerge writes three checkpoints whose newest
// merged away segments the two older ones still list, then corrupts the
// newest two. The cleaner must have kept every segment a retained
// checkpoint lists, and recovery from the oldest checkpoint plus the WAL
// tail must be bit-identical to an uninterrupted run.
func TestCheckpointFallbackAcrossMerge(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(RefitFull, dir)
	cfg.Durability.RetainCheckpoints = 3
	ref, err := New(testConfig(RefitFull))
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var last *Snapshot
	// 40 rows seal alone, 10 more sit beside them (40 > 10), and 40 more
	// merge both (10 <= 40, then 40 <= 50) into one 90-row segment.
	for i, n := range []int{40, 10, 40} {
		rows := distinctRows(fmt.Sprint("b", i), n)
		mustIngest(t, a, rows)
		mustIngest(t, ref, rows)
		last = mustRefit(t, a)
		mustEqualSnapshots(t, mustRefit(t, ref), last)
	}
	tail := distinctRows("tail", 5)
	mustIngest(t, a, tail)
	mustIngest(t, ref, tail)
	crash(a)

	cps, _, err := a.dur.store.Checkpoints()
	if err != nil || len(cps) != 3 {
		t.Fatalf("%d checkpoints (err=%v), want 3", len(cps), err)
	}
	oldest, newest := cps[0].Manifest.Segments, cps[2].Manifest.Segments
	if len(oldest) != 1 || len(cps[1].Manifest.Segments) != 2 || len(newest) != 1 || newest[0].Rows != 90 {
		t.Fatalf("segment lists %v / %v / %v, want a merge into one 90-row segment",
			oldest, cps[1].Manifest.Segments, newest)
	}
	for _, cp := range cps {
		for _, r := range cp.Manifest.Segments {
			if _, err := os.Stat(filepath.Join(wal.SegmentDir(dir), r.Filename())); err != nil {
				t.Fatalf("checkpoint %d lists a cleaned segment: %v", cp.Manifest.Seq, err)
			}
		}
	}
	for _, cp := range cps[1:] {
		if err := os.WriteFile(filepath.Join(cp.Dir, "MANIFEST.json"), []byte("{"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if rs := b.RecoveryStats(); rs.CheckpointSeq != cps[0].Manifest.Seq || rs.CheckpointsSkipped != 2 {
		t.Fatalf("recovery stats %+v, want checkpoint %d with 2 skipped", rs, cps[0].Manifest.Seq)
	}
	// The WAL tail's refit markers re-ran the two lost refits.
	mustEqualSnapshots(t, b.Snapshot(), last)
	mustEqualSnapshots(t, mustRefit(t, b), mustRefit(t, ref))
	wantSealedCheckpoint(t, dir, newestCheckpoint(t, b), b.db.Len())
}

// TestFailedCheckpointAfterMergingSeal fails a checkpoint after its seal
// merged segments: the checkpoint directory is replaced by a regular file,
// so Seal advances the backend's segment list and then Store.Write fails.
// The failure must be counted, publish nothing and leave no temporary
// directory. The next checkpoint must list the merged segment, the cleaner
// must keep the segments the older checkpoint lists, and restarts from
// either checkpoint must match an uninterrupted run.
func TestFailedCheckpointAfterMergingSeal(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(RefitFull, dir)
	ref, err := New(testConfig(RefitFull))
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	step := func(s *Server, rows []model.Row) *Snapshot {
		t.Helper()
		mustIngest(t, s, rows)
		mustIngest(t, ref, rows)
		snap := mustRefit(t, s)
		mustEqualSnapshots(t, mustRefit(t, ref), snap)
		return snap
	}
	// 40 rows seal alone and 10 more sit beside them.
	step(a, distinctRows("b0", 40))
	step(a, distinctRows("b1", 10))
	good := newestCheckpoint(t, a)
	if len(good.Manifest.Segments) != 2 {
		t.Fatalf("checkpoint %d lists %v, want two segments", good.Manifest.Seq, good.Manifest.Segments)
	}

	// 40 more merge all three runs into one 90-row segment, whose
	// checkpoint then cannot be written.
	chkDir := wal.CheckpointDir(dir)
	if err := os.Rename(chkDir, chkDir+".aside"); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(chkDir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	failed := step(a, distinctRows("b2", 40))
	if err := os.Remove(chkDir); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(chkDir+".aside", chkDir); err != nil {
		t.Fatal(err)
	}
	if n := a.DurabilityStats().CheckpointErrors; n != 1 {
		t.Fatalf("checkpoint_errors = %d after a failed write, want 1", n)
	}
	if cp := newestCheckpoint(t, a); cp.Manifest.Seq != good.Manifest.Seq {
		t.Fatalf("newest checkpoint %d, want %d unchanged", cp.Manifest.Seq, good.Manifest.Seq)
	}
	if st := a.db.Stats(); st.Segments != 1 || st.OnDisk != 90 {
		t.Fatalf("storage stats %+v, want the failed checkpoint's seal merged into one 90-row segment", st)
	}

	last := step(a, distinctRows("b3", 5))
	cp := newestCheckpoint(t, a)
	if cp.Manifest.Seq != last.Seq || cp.Manifest.Seq <= failed.Seq {
		t.Fatalf("newest checkpoint %d, want %d", cp.Manifest.Seq, last.Seq)
	}
	wantSealedCheckpoint(t, dir, cp, a.db.Len())
	if segs := cp.Manifest.Segments; len(segs) != 2 || segs[0].Rows != 90 {
		t.Fatalf("checkpoint %d lists %v, want the merged 90-row segment and the new tail", cp.Manifest.Seq, segs)
	}
	wantSealedCheckpoint(t, dir, good, 50)
	if n := a.DurabilityStats().CheckpointErrors; n != 1 {
		t.Fatalf("checkpoint_errors = %d after a good checkpoint, want 1", n)
	}
	entries, err := os.ReadDir(chkDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".tmp-") {
			t.Fatalf("the failed checkpoint left %s behind", e.Name())
		}
	}
	tail := distinctRows("tail", 3)
	mustIngest(t, a, tail)
	mustIngest(t, ref, tail)
	crash(a)

	// A restart recovers from the newest checkpoint plus the WAL tail.
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.RecoveryStats().CheckpointSeq; got != last.Seq {
		t.Fatalf("recovered from checkpoint %d, want %d", got, last.Seq)
	}
	mustEqualSnapshots(t, b.Snapshot(), last)
	crash(b)

	// With the newest manifest corrupt, the older checkpoint's segments
	// are still there, and its WAL tail re-runs every later refit.
	if err := os.WriteFile(filepath.Join(cp.Dir, "MANIFEST.json"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := c.RecoveryStats().CheckpointSeq; got != good.Manifest.Seq {
		t.Fatalf("fell back to checkpoint %d, want %d", got, good.Manifest.Seq)
	}
	mustEqualSnapshots(t, c.Snapshot(), last)
	mustEqualSnapshots(t, mustRefit(t, c), mustRefit(t, ref))
}

// TestStorageKindSwitchRestart writes a data directory under one storage
// kind and restarts it under the other: the segments on disk are the same
// either way, so the restarted server serves byte-identical /truth,
// /records and /quality and stays in lockstep with an uninterrupted run.
func TestStorageKindSwitchRestart(t *testing.T) {
	for _, tc := range []struct{ write, reopen string }{
		{store.StorageMemory, store.StorageSegments},
		{store.StorageSegments, store.StorageMemory},
	} {
		t.Run(tc.write+"_then_"+tc.reopen, func(t *testing.T) {
			dir := t.TempDir()
			ref, err := New(testConfig(RefitDirty))
			if err != nil {
				t.Fatal(err)
			}
			defer ref.Close()
			cfg := durableConfig(RefitDirty, dir)
			cfg.Storage = tc.write
			a, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for r := 0; r < 4; r++ {
				mustIngest(t, a, batchRows(r))
				mustIngest(t, ref, batchRows(r))
				mustEqualSnapshots(t, mustRefit(t, a), mustRefit(t, ref))
			}
			mustIngest(t, a, batchRows(10))
			mustIngest(t, ref, batchRows(10))
			paths := []string{"/truth", "/records?limit=100", "/quality"}
			tsA := httptest.NewServer(a.Handler())
			before := make(map[string]string)
			for _, p := range paths {
				_, body := getBody(t, tsA, p)
				before[p] = string(fittedAtRe.ReplaceAll(body, []byte(`"fitted_at":"T"`)))
			}
			tsA.Close()
			crash(a)

			cfg.Storage = tc.reopen
			b, tsB := newTestServer(t, cfg)
			if st := b.db.Stats(); st.Kind != tc.reopen || st.OnDisk == 0 {
				t.Fatalf("restarted storage stats %+v, want kind %s with sealed rows", st, tc.reopen)
			}
			for _, p := range paths {
				code, body := getBody(t, tsB, p)
				if got := string(fittedAtRe.ReplaceAll(body, []byte(`"fitted_at":"T"`))); code != http.StatusOK || got != before[p] {
					t.Fatalf("GET %s after restart as %s (status %d):\n got %s\nwant %s", p, tc.reopen, code, got, before[p])
				}
			}
			mustEqualSnapshots(t, mustRefit(t, b), mustRefit(t, ref))
		})
	}
}
