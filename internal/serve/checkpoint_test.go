package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"latenttruth/internal/dataset"
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

// wantTriplesEncoded asserts cp's triples.csv is byte-identical to a
// from-scratch encoding of s's rows and passes its own CRC check.
func wantTriplesEncoded(t *testing.T, s *Server, cp wal.Checkpoint) {
	t.Helper()
	got, err := os.ReadFile(filepath.Join(cp.Dir, "triples.csv"))
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := dataset.WriteTriplesRows(&want, s.db.Rows()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("checkpoint %d: triples.csv (%d bytes) differs from WriteTriplesRows(Rows()) (%d bytes)",
			cp.Manifest.Seq, len(got), want.Len())
	}
	if _, err := cp.ReadTriples(); err != nil {
		t.Fatalf("checkpoint %d: %v", cp.Manifest.Seq, err)
	}
}

// checkpointErrors reads checkpoint_errors from GET /durability.
func checkpointErrors(t *testing.T, url string) int64 {
	t.Helper()
	resp, err := http.Get(url + "/durability")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		CheckpointErrors int64 `json:"checkpoint_errors"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return body.CheckpointErrors
}

// TestCheckpointTriplesAppend drives memory-backend checkpoints through
// the append path: after the first (encoded) checkpoint, each one copies
// its predecessor's triples.csv and appends the new rows, and must still
// equal a from-scratch encoding byte for byte. A byte flipped in the
// previous file must fail the next checkpoint (counted in /durability)
// without publishing the corruption, and the checkpoint after that must
// re-encode from Rows() and be valid again — as must a restart from it.
func TestCheckpointTriplesAppend(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(RefitDirty, dir)
	cfg.FullEvery = 4 // mix full and dirty refits; both checkpoint the same way
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	url := newHTTPServer(t, s)

	const refits = 8
	for i := 0; i < refits; i++ {
		mustIngest(t, s, batchRows(i))
		mustRefit(t, s)
		cp := newestCheckpoint(t, s)
		wantTriplesEncoded(t, s, cp)
		if s.dur.prevTriples == nil || s.dur.prevTriples.Manifest.Seq != cp.Manifest.Seq ||
			s.dur.prevRows != s.db.Len() {
			t.Fatalf("refit %d: next checkpoint would not append to checkpoint %d", i, cp.Manifest.Seq)
		}
	}
	if n := checkpointErrors(t, url); n != 0 {
		t.Fatalf("checkpoint_errors = %d before corruption", n)
	}

	// Corrupt one byte of the file the next checkpoint copies.
	prev := newestCheckpoint(t, s)
	path := filepath.Join(prev.Dir, "triples.csv")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x20
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	mustIngest(t, s, batchRows(refits))
	failed := mustRefit(t, s) // the refit publishes; only its checkpoint fails
	if n := checkpointErrors(t, url); n != 1 {
		t.Fatalf("checkpoint_errors = %d after a corrupt predecessor, want 1", n)
	}
	if cp := newestCheckpoint(t, s); cp.Manifest.Seq != prev.Manifest.Seq {
		t.Fatalf("checkpoint %d was published from a corrupt predecessor %d", cp.Manifest.Seq, prev.Manifest.Seq)
	}
	if s.dur.prevTriples != nil {
		t.Fatal("a failed checkpoint left an append source behind")
	}
	entries, err := os.ReadDir(filepath.Dir(prev.Dir))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".tmp-") {
			t.Fatalf("the failed checkpoint left %s behind", e.Name())
		}
	}

	// The next checkpoint re-encodes from Rows() and is valid.
	mustIngest(t, s, batchRows(refits+1))
	last := mustRefit(t, s)
	cp := newestCheckpoint(t, s)
	if cp.Manifest.Seq != last.Seq || cp.Manifest.Seq <= failed.Seq {
		t.Fatalf("newest checkpoint %d, want %d", cp.Manifest.Seq, last.Seq)
	}
	wantTriplesEncoded(t, s, cp)
	if n := checkpointErrors(t, url); n != 1 {
		t.Fatalf("checkpoint_errors = %d after recovery, want 1", n)
	}
	s.Close()

	// A restart recovers from that checkpoint to the same serving state.
	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.RecoveryStats().CheckpointSeq; got != last.Seq {
		t.Fatalf("recovered from checkpoint %d, want %d", got, last.Seq)
	}
	mustEqualSnapshots(t, s2.Snapshot(), last)
}
