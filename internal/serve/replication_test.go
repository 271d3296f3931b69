package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"mime"
	"mime/multipart"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"latenttruth/internal/wal"
)

// replConfig is a durable manual-refit primary config with fast eviction
// bounds for the tests that need them.
func replConfig(dir string) Config {
	cfg := durableConfig(RefitFull, dir)
	cfg.Replication = Replication{LongPoll: 2 * time.Second}
	return cfg
}

// fetchCheckpointParts downloads /replication/checkpoint and returns the
// parts by file name.
func fetchCheckpointParts(t *testing.T, url string) map[string][]byte {
	t.Helper()
	resp, err := http.Get(url + "/replication/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /replication/checkpoint: status %d", resp.StatusCode)
	}
	_, params, err := mime.ParseMediaType(resp.Header.Get("Content-Type"))
	if err != nil {
		t.Fatal(err)
	}
	mr := multipart.NewReader(resp.Body, params["boundary"])
	parts := map[string][]byte{}
	for {
		p, err := mr.NextPart()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(p)
		if err != nil {
			t.Fatal(err)
		}
		parts[p.FileName()] = data
	}
	return parts
}

// pollWAL fetches /replication/wal and decodes the framed records.
func pollWAL(t *testing.T, url string, from uint64, id string) []wal.Batch {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/replication/wal?from=%d&follower=%s&wait=0s", url, from, id))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /replication/wal: status %d", resp.StatusCode)
	}
	var out []wal.Batch
	br := bufio.NewReader(resp.Body)
	for {
		b, err := wal.DecodeBatch(br)
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
}

func TestReplicationCheckpointEndpoint(t *testing.T) {
	s, ts := newTestServer(t, replConfig(t.TempDir()))

	// Before the first refit there is nothing to bootstrap from.
	resp, err := http.Get(ts.URL + "/replication/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pre-refit checkpoint status %d, want 404", resp.StatusCode)
	}

	mustIngest(t, s, batchRows(0))
	mustIngest(t, s, batchRows(1))
	mustRefit(t, s)

	parts := fetchCheckpointParts(t, ts.URL)
	var m wal.Manifest
	if err := json.Unmarshal(parts["MANIFEST.json"], &m); err != nil {
		t.Fatalf("manifest: %v", err)
	}
	if m.Seq != 1 || len(m.Segments) != 1 {
		t.Fatalf("manifest seq %d with %d segments, want seq 1 with 1 segment", m.Seq, len(m.Segments))
	}
	if len(parts) != 4 {
		t.Fatalf("checkpoint has %d parts, want 4 (manifest, quality, posterior, segment): %v", len(parts), parts)
	}
	// The streamed files verify against the manifest's CRCs and segment
	// refs — the same checks a bootstrapping follower performs.
	onDisk, err := os.ReadFile(filepath.Join(wal.SegmentDir(s.cfg.Durability.DataDir), m.Segments[0].Filename()))
	if err != nil || !bytes.Equal(parts[m.Segments[0].Filename()], onDisk) {
		t.Fatalf("segment part %s differs from the sealed file (err=%v)", m.Segments[0].Filename(), err)
	}
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	if got := crc32.Checksum(parts["quality.csv"], castagnoli); got != m.QualityCRC {
		t.Fatalf("quality CRC %08x, manifest %08x", got, m.QualityCRC)
	}
	if got := crc32.Checksum(parts["posterior.csv"], castagnoli); got != m.PosteriorCRC {
		t.Fatalf("posterior CRC %08x, manifest %08x", got, m.PosteriorCRC)
	}

	// Memory-only servers don't expose the endpoint at all.
	_, mts := newTestServer(t, testConfig(RefitFull))
	resp2, err := http.Get(mts.URL + "/replication/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("memory-only checkpoint status %d, want 404", resp2.StatusCode)
	}
}

func TestReplicationWALEndpoint(t *testing.T) {
	s, ts := newTestServer(t, replConfig(t.TempDir()))
	mustIngest(t, s, batchRows(0))
	mustRefit(t, s) // marker at seq 2
	mustIngest(t, s, batchRows(1))

	got := pollWAL(t, ts.URL, 1, "f1")
	if len(got) != 3 {
		t.Fatalf("replayed %d records, want 3 (batch, marker, batch)", len(got))
	}
	if got[0].Seq != 1 || got[1].Seq != 2 || got[2].Seq != 3 {
		t.Fatalf("sequences %d,%d,%d", got[0].Seq, got[1].Seq, got[2].Seq)
	}
	if ov, _, ok := parseRefitNote(got[1]); !ok || ov != "" {
		t.Fatalf("record 2 is not a bare refit marker: %+v", got[1])
	}
	if len(got[0].Rows) != len(batchRows(0)) {
		t.Fatalf("batch 1 carries %d rows, want %d", len(got[0].Rows), len(batchRows(0)))
	}

	// from= filters; a caught-up follower gets an empty 200.
	if got := pollWAL(t, ts.URL, 3, "f1"); len(got) != 1 || got[0].Seq != 3 {
		t.Fatalf("from=3 returned %+v", got)
	}
	if got := pollWAL(t, ts.URL, 4, "f1"); len(got) != 0 {
		t.Fatalf("caught-up poll returned %d records", len(got))
	}

	// The follower's cursor is registered at from-1 and visible.
	st := s.DurabilityStats()
	if len(st.ReplicationCursors) != 1 || st.ReplicationCursors[0].ID != "f1" ||
		st.ReplicationCursors[0].AckedSeq != 3 {
		t.Fatalf("replication cursors %+v", st.ReplicationCursors)
	}

	// Bad requests.
	for _, q := range []string{"", "?from=0", "?from=x", "?from=1&wait=bogus"} {
		resp, err := http.Get(ts.URL + "/replication/wal" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("GET /replication/wal%s: status %d, want 400", q, resp.StatusCode)
		}
	}
}

func TestReplicationWALLongPollWakesOnIngest(t *testing.T) {
	s, ts := newTestServer(t, replConfig(t.TempDir()))
	mustIngest(t, s, batchRows(0))
	mustRefit(t, s)

	type result struct {
		batches []wal.Batch
		elapsed time.Duration
	}
	done := make(chan result, 1)
	go func() {
		start := time.Now()
		resp, err := http.Get(ts.URL + "/replication/wal?from=3&wait=5s")
		if err != nil {
			done <- result{}
			return
		}
		defer resp.Body.Close()
		var out []wal.Batch
		br := bufio.NewReader(resp.Body)
		for {
			b, derr := wal.DecodeBatch(br)
			if derr != nil {
				break
			}
			out = append(out, b)
		}
		done <- result{batches: out, elapsed: time.Since(start)}
	}()

	time.Sleep(150 * time.Millisecond) // let the poll park
	mustIngest(t, s, batchRows(7))

	select {
	case r := <-done:
		if len(r.batches) != 1 || r.batches[0].Seq != 3 {
			t.Fatalf("long poll returned %+v", r.batches)
		}
		if r.elapsed >= 5*time.Second {
			t.Fatalf("long poll only returned at the deadline (%s), not on ingest", r.elapsed)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("long poll never returned after ingest")
	}
}

func TestReplicationTruncationGapIs410(t *testing.T) {
	dir := t.TempDir()
	cfg := replConfig(dir)
	cfg.Durability.SegmentBytes = 4 << 10
	cfg.Durability.RetainCheckpoints = 1
	s, ts := newTestServer(t, cfg)

	// Enough batches and refits that truncation discards early segments.
	for i := 0; i < 40; i++ {
		mustIngest(t, s, batchRows(i))
		if i%8 == 7 {
			mustRefit(t, s)
		}
	}
	mustRefit(t, s)
	st := s.DurabilityStats()
	if st.WAL.FirstSeq <= 1 {
		t.Skipf("no truncation happened (first_seq=%d); segment size too large for this corpus", st.WAL.FirstSeq)
	}

	resp, err := http.Get(ts.URL + "/replication/wal?from=1&wait=0s")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("truncated-history poll status %d, want 410", resp.StatusCode)
	}
	// The surviving history still streams.
	if got := pollWAL(t, ts.URL, st.WAL.FirstSeq, "late"); len(got) == 0 {
		t.Fatal("poll at first_seq returned nothing")
	}
}

func TestReplicationCursorPinsAndEviction(t *testing.T) {
	dir := t.TempDir()
	cfg := replConfig(dir)
	cfg.Durability.SegmentBytes = 4 << 10
	cfg.Durability.RetainCheckpoints = 1
	cfg.Replication.MaxLagBatches = 8
	cfg.Replication.CursorTTL = time.Hour // lag, not staleness, evicts here
	s, ts := newTestServer(t, cfg)

	mustIngest(t, s, batchRows(0))
	mustRefit(t, s)
	pollWAL(t, ts.URL, 1, "slow") // cursor registered at 0

	// While the follower is within the lag bound its history is pinned.
	mustIngest(t, s, batchRows(1))
	mustRefit(t, s)
	if got := pollWAL(t, ts.URL, 1, "slow"); len(got) == 0 || got[0].Seq != 1 {
		t.Fatalf("pinned history unavailable: %+v", got)
	}

	// Push the log far past MaxLagBatches without further polls: the next
	// checkpoint evicts the cursor and truncation proceeds.
	for i := 2; i < 30; i++ {
		mustIngest(t, s, batchRows(i))
		if i%4 == 0 {
			mustRefit(t, s)
		}
	}
	mustRefit(t, s)
	if cs := s.DurabilityStats().ReplicationCursors; len(cs) != 0 {
		t.Fatalf("lagging cursor survived eviction: %+v", cs)
	}
}

func TestFollowerModeRejectsWritesAndRefits(t *testing.T) {
	cfg := replConfig(t.TempDir())
	cfg.FollowerOf = "http://primary.example:8080"
	s, ts := newTestServer(t, cfg)

	if _, err := s.Ingest(batchRows(0)); err != ErrFollower {
		t.Fatalf("Ingest on follower: %v, want ErrFollower", err)
	}
	if _, err := s.Refit(""); err != ErrFollower {
		t.Fatalf("Refit on follower: %v, want ErrFollower", err)
	}

	resp := postClaims(t, ts.URL, batchRows(0))
	var body struct {
		Error   string `json:"error"`
		Primary string `json:"primary"`
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST /claims on follower: status %d, want 503", resp.StatusCode)
	}
	decodeJSON(t, resp, &body)
	if body.Primary != "http://primary.example:8080" {
		t.Fatalf("claims rejection payload %+v", body)
	}
	resp2, err := http.Post(ts.URL+"/refit", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST /refit on follower: status %d, want 503", resp2.StatusCode)
	}
}

func TestFollowerModeRequiresDurability(t *testing.T) {
	cfg := testConfig(RefitFull)
	cfg.FollowerOf = "http://primary.example:8080"
	if _, err := New(cfg); err == nil {
		t.Fatal("follower without durability was accepted")
	}
}

// TestApplyReplicatedMirrorsPrimary drives a follower directly through
// ApplyReplicated with the primary's own log records and asserts the
// snapshots come out bit-identical, marker for marker.
func TestApplyReplicatedMirrorsPrimary(t *testing.T) {
	prim, _ := newTestServer(t, replConfig(t.TempDir()))
	folCfg := replConfig(t.TempDir())
	folCfg.FollowerOf = "http://primary.invalid"
	fol, _ := newTestServer(t, folCfg)

	for i := 0; i < 3; i++ {
		mustIngest(t, prim, batchRows(i))
		if i%2 == 1 {
			mustRefit(t, prim)
		}
	}
	mustRefit(t, prim)

	// Ship the primary's WAL verbatim.
	var shipped []wal.Batch
	if err := prim.dur.log.Replay(1, func(b wal.Batch) error {
		shipped = append(shipped, b)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, b := range shipped {
		if err := fol.ApplyReplicated(b); err != nil {
			t.Fatalf("ApplyReplicated(seq=%d): %v", b.Seq, err)
		}
	}
	mustEqualSnapshots(t, fol.Snapshot(), prim.Snapshot())
	if next := fol.NextReplicationSeq(); next != shipped[len(shipped)-1].Seq+1 {
		t.Fatalf("NextReplicationSeq = %d, want %d", next, shipped[len(shipped)-1].Seq+1)
	}

	// Out-of-order and gapped records are rejected, not applied.
	if err := fol.ApplyReplicated(wal.Batch{Seq: shipped[len(shipped)-1].Seq + 5, Rows: batchRows(9)}); err == nil {
		t.Fatal("gapped record applied")
	}
}

// TestReplicationWireFormatMatchesLog confirms what the endpoint streams
// is byte-identical to the log's on-disk framing: a follower can append
// the received frames to its own log without re-encoding.
func TestReplicationWireFormatMatchesLog(t *testing.T) {
	s, ts := newTestServer(t, replConfig(t.TempDir()))
	mustIngest(t, s, batchRows(3))
	mustRefit(t, s)

	resp, err := http.Get(ts.URL + "/replication/wal?from=1&wait=0s")
	if err != nil {
		t.Fatal(err)
	}
	wire, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var local []byte
	if err := s.dur.log.Replay(1, func(b wal.Batch) error {
		local = wal.EncodeBatch(local, b)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wire, local) {
		t.Fatalf("wire bytes (%d) differ from log framing (%d)", len(wire), len(local))
	}
}
