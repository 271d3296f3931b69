package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"latenttruth/internal/store"
	"latenttruth/internal/wal"
)

// segmentConfig returns a manual-refit config on the segment backend.
func segmentConfig(policy RefitPolicy, dir string) Config {
	cfg := durableConfig(policy, dir)
	cfg.Storage = store.StorageSegments
	return cfg
}

// getBody fetches path from ts and returns the status code and body.
func getBody(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// fittedAtRe masks the one wall-clock field in snapshot responses.
var fittedAtRe = regexp.MustCompile(`"fitted_at":"[^"]*"`)

// TestSegmentBackendBitIdentical is the storage acceptance property: a
// segment-backed server and a memory server fed the identical schedule
// publish bit-identical snapshots and serve byte-identical /truth,
// /quality, /records and /claims responses, across every refit policy.
// /stats is compared modulo its timing fields and the storage block,
// which reports the (deliberately different) physical shape.
func TestSegmentBackendBitIdentical(t *testing.T) {
	for _, policy := range []RefitPolicy{RefitFull, RefitOnline, RefitDirty} {
		t.Run(string(policy), func(t *testing.T) {
			mem, err := New(durableConfig(policy, t.TempDir()))
			if err != nil {
				t.Fatal(err)
			}
			defer mem.Close()
			seg, err := New(segmentConfig(policy, t.TempDir()))
			if err != nil {
				t.Fatal(err)
			}
			defer seg.Close()

			for r := 0; r < 5; r++ {
				mustIngest(t, mem, batchRows(r))
				mustIngest(t, seg, batchRows(r))
				mustEqualSnapshots(t, mustRefit(t, seg), mustRefit(t, mem))
			}

			tsMem := httptest.NewServer(mem.Handler())
			defer tsMem.Close()
			tsSeg := httptest.NewServer(seg.Handler())
			defer tsSeg.Close()
			for _, path := range []string{
				"/truth",
				"/truth?min_prob=0.4&limit=20",
				"/quality",
				"/records?limit=100",
				"/claims",
				"/claims?entity=e03",
				"/claims?prefix=e0",
				"/claims?source=s1&limit=5",
			} {
				cm, bm := getBody(t, tsMem, path)
				cs, bs := getBody(t, tsSeg, path)
				if cm != http.StatusOK || cs != http.StatusOK {
					t.Fatalf("GET %s: status memory=%d segments=%d", path, cm, cs)
				}
				// fitted_at is the one wall-clock field; everything else
				// must match byte for byte.
				bm = fittedAtRe.ReplaceAll(bm, []byte(`"fitted_at":"T"`))
				bs = fittedAtRe.ReplaceAll(bs, []byte(`"fitted_at":"T"`))
				if string(bm) != string(bs) {
					t.Fatalf("GET %s differs across backends:\nmemory:   %s\nsegments: %s", path, bm, bs)
				}
			}

			// /stats must agree on everything except uptime/timings and the
			// storage block (which reports the physical shape by design).
			var sm, ss map[string]any
			_, bm := getBody(t, tsMem, "/stats")
			_, bs := getBody(t, tsSeg, "/stats")
			if err := json.Unmarshal(bm, &sm); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(bs, &ss); err != nil {
				t.Fatal(err)
			}
			segStorage := ss["storage"].(map[string]any)
			if segStorage["kind"] != store.StorageSegments || segStorage["disk_rows"].(float64) == 0 {
				t.Fatalf("segment server /stats storage block: %v", segStorage)
			}
			if memKind := sm["storage"].(map[string]any)["kind"]; memKind != store.StorageMemory {
				t.Fatalf("memory server /stats storage kind: %v", memKind)
			}
			for _, k := range []string{"storage", "uptime_s", "last_refit_ms", "freshness_ms"} {
				delete(sm, k)
				delete(ss, k)
			}
			if !reflect.DeepEqual(sm, ss) {
				t.Fatalf("/stats differs across backends:\nmemory:   %v\nsegments: %v", sm, ss)
			}
		})
	}
}

// TestSegmentRecoveryReplaysOnlyTail is the recovery acceptance scenario:
// checkpoints seal segments (no triples.csv), a crash-restart reopens the
// segments and replays only the acknowledged-but-uncompacted WAL tail,
// and the recovered server stays in bit-identical lockstep with an
// uninterrupted reference.
func TestSegmentRecoveryReplaysOnlyTail(t *testing.T) {
	dir := t.TempDir()
	ref, err := New(testConfig(RefitFull))
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	a, err := New(segmentConfig(RefitFull, dir))
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 3; r++ {
		mustIngest(t, a, batchRows(r))
		mustIngest(t, ref, batchRows(r))
		mustRefit(t, a)
		mustRefit(t, ref)
	}
	// After a checkpoint every compacted row is sealed on disk.
	st := a.db.Stats()
	if st.Kind != store.StorageSegments || st.OnDisk != a.db.Len() || st.Segments == 0 {
		t.Fatalf("post-checkpoint storage stats: %+v (db len %d)", st, a.db.Len())
	}
	// Segment checkpoints write no triples.csv: the segments ARE the corpus.
	cps, err := os.ReadDir(wal.CheckpointDir(dir))
	if err != nil || len(cps) == 0 {
		t.Fatalf("no checkpoints (err=%v)", err)
	}
	newest := cps[len(cps)-1].Name()
	if _, err := os.Stat(filepath.Join(wal.CheckpointDir(dir), newest, "triples.csv")); !os.IsNotExist(err) {
		t.Fatalf("segment checkpoint %s has a triples.csv (err=%v)", newest, err)
	}
	segs, err := os.ReadDir(wal.SegmentDir(dir))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segment files (err=%v)", err)
	}

	// Two acknowledged batches that only exist in the WAL tail.
	mustIngest(t, a, batchRows(10))
	mustIngest(t, a, batchRows(11))
	mustIngest(t, ref, batchRows(10))
	mustIngest(t, ref, batchRows(11))
	crash(a)

	b, err := New(segmentConfig(RefitFull, dir))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	rs := b.RecoveryStats()
	if rs.ColdStart || rs.ReplayedBatches != 2 {
		t.Fatalf("recovery stats %+v, want 2 replayed batches", rs)
	}
	// The corpus came back from segments, not CSV, fully covered on disk.
	bst := b.db.Stats()
	if bst.Kind != store.StorageSegments || bst.OnDisk != b.db.Len() || bst.OnDisk != st.OnDisk {
		t.Fatalf("post-recovery storage stats: %+v, want %d rows on disk", bst, st.OnDisk)
	}
	mustEqualSnapshots(t, mustRefit(t, b), mustRefit(t, ref))
	// Lockstep continues: each later checkpoint seals the new rows,
	// merging trailing segments so the live count stays logarithmic.
	for r := 20; r < 30; r++ {
		mustIngest(t, b, batchRows(r))
		mustIngest(t, ref, batchRows(r))
		mustEqualSnapshots(t, mustRefit(t, b), mustRefit(t, ref))
		if st := b.db.Stats(); st.OnDisk != b.db.Len() || st.Segments > maxLiveSegments(st.OnDisk) {
			t.Fatalf("after refit %d: %d live segments for %d rows (bound %d), %d rows on disk",
				r, st.Segments, b.db.Len(), maxLiveSegments(b.db.Len()), st.OnDisk)
		}
	}
}

// TestSegmentCorruptionRefusesToOpen flips one byte of a sealed segment
// and asserts the restart fails loudly instead of serving corrupt rows.
func TestSegmentCorruptionRefusesToOpen(t *testing.T) {
	dir := t.TempDir()
	a, err := New(segmentConfig(RefitFull, dir))
	if err != nil {
		t.Fatal(err)
	}
	mustIngest(t, a, batchRows(0))
	mustRefit(t, a)
	crash(a)

	segs, err := os.ReadDir(wal.SegmentDir(dir))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segment files (err=%v)", err)
	}
	path := filepath.Join(wal.SegmentDir(dir), segs[0].Name())
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/3] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(segmentConfig(RefitFull, dir)); err == nil {
		t.Fatal("restart over a corrupt segment succeeded")
	} else if !strings.Contains(err.Error(), "checkpoint") {
		t.Fatalf("corruption error should mention the unreadable checkpoint state: %v", err)
	}
}

// TestStorageConfigValidation pins the construction-time guard rails.
func TestStorageConfigValidation(t *testing.T) {
	if _, err := New(Config{Storage: store.StorageSegments}); err == nil ||
		!strings.Contains(err.Error(), "DataDir") {
		t.Fatalf("segments without a data dir: %v", err)
	}
	if _, err := New(Config{Storage: "papyrus"}); err == nil ||
		!strings.Contains(err.Error(), "unknown storage kind") {
		t.Fatalf("unknown storage kind: %v", err)
	}
}

// wantEnvelope asserts the response is the standard error envelope with
// the given status and stable code, and a non-empty human message.
func wantEnvelope(t *testing.T, resp *http.Response, status int, code string) {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != status {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d, want %d: %s", resp.StatusCode, status, body)
	}
	var env map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("decoding error envelope: %v", err)
	}
	if env["code"] != code {
		t.Fatalf("error code %v, want %q (envelope %v)", env["code"], code, env)
	}
	if msg, _ := env["error"].(string); msg == "" {
		t.Fatalf("error envelope without a message: %v", env)
	}
}

// mustGet GETs path or fails.
func mustGet(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestErrorEnvelopeTable drives every distinct 4xx/5xx path of the HTTP
// API and asserts each returns the {"error","code"} envelope with its
// stable code.
func TestErrorEnvelopeTable(t *testing.T) {
	s, ts := newTestServer(t, testConfig(RefitFull))

	post := func(path, body string) *http.Response {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Before any data or snapshot.
	wantEnvelope(t, mustGet(t, ts.URL+"/truth"), http.StatusServiceUnavailable, codeNotReady)
	wantEnvelope(t, mustGet(t, ts.URL+"/quality"), http.StatusServiceUnavailable, codeNotReady)
	wantEnvelope(t, mustGet(t, ts.URL+"/records?entity=x"), http.StatusServiceUnavailable, codeNotReady)
	wantEnvelope(t, mustGet(t, ts.URL+"/partition/quality"), http.StatusServiceUnavailable, codeNotReady)
	wantEnvelope(t, post("/refit", ""), http.StatusConflict, codeNoData)
	wantEnvelope(t, post("/claims", "{not json"), http.StatusBadRequest, codeBadRequest)
	wantEnvelope(t, post("/claims", `{"claims":[]}`), http.StatusBadRequest, codeBadRequest)
	wantEnvelope(t, post("/claims", `[{"entity":"","attribute":"a","source":"s"}]`),
		http.StatusBadRequest, codeBadRequest)
	wantEnvelope(t, post("/refit?policy=nope", ""), http.StatusBadRequest, codeBadRequest)
	wantEnvelope(t, mustGet(t, ts.URL+"/claims?entity=a&prefix=b"), http.StatusBadRequest, codeBadRequest)
	wantEnvelope(t, mustGet(t, ts.URL+"/claims?limit=many"), http.StatusBadRequest, codeBadRequest)

	// With a snapshot: name misses, bad query params, stale cursors.
	mustIngest(t, s, batchRows(0))
	mustRefit(t, s)
	wantEnvelope(t, mustGet(t, ts.URL+"/records?entity=no-such-entity"), http.StatusNotFound, codeNotFound)
	wantEnvelope(t, mustGet(t, ts.URL+"/truth?entity=no-such-entity"), http.StatusNotFound, codeNotFound)
	wantEnvelope(t, mustGet(t, ts.URL+"/truth?limit=many"), http.StatusBadRequest, codeBadRequest)
	wantEnvelope(t, mustGet(t, ts.URL+"/truth?min_prob=high"), http.StatusBadRequest, codeBadRequest)
	wantEnvelope(t, mustGet(t, ts.URL+"/truth?cursor=garbage"), http.StatusBadRequest, codeBadRequest)

	var page struct {
		NextCursor string `json:"next_cursor"`
	}
	decodeJSON(t, mustGet(t, ts.URL+"/truth?limit=1"), &page)
	if page.NextCursor == "" {
		t.Fatal("no cursor to go stale")
	}
	mustIngest(t, s, batchRows(1))
	mustRefit(t, s)
	staleResp := mustGet(t, ts.URL+"/truth?limit=1&cursor="+page.NextCursor)
	wantEnvelope(t, staleResp, http.StatusGone, codeStaleCursor)

	// Replication feed errors (durable memory server).
	dm, tsDur := newTestServer(t, durableConfig(RefitFull, t.TempDir()))
	mustIngest(t, dm, batchRows(0))
	mustRefit(t, dm)
	wantEnvelope(t, mustGet(t, tsDur.URL+"/replication/wal"), http.StatusBadRequest, codeBadRequest)
	wantEnvelope(t, mustGet(t, tsDur.URL+"/replication/wal?from=1&wait=bogus"), http.StatusBadRequest, codeBadRequest)
	wantEnvelope(t, mustGet(t, tsDur.URL+"/replication/wal?from=999"), http.StatusConflict, codeFollowerAhead)

	// WAL history truncated behind the retention window: 410.
	trCfg := durableConfig(RefitFull, t.TempDir())
	trCfg.Durability.RetainCheckpoints = 1
	trCfg.Durability.SegmentBytes = 4 << 10 // roll often so truncation can bite
	tr, tsTr := newTestServer(t, trCfg)
	for r := 0; r < 40; r++ {
		mustIngest(t, tr, batchRows(r))
		if r%8 == 7 {
			mustRefit(t, tr)
		}
	}
	mustRefit(t, tr)
	if tr.DurabilityStats().WAL.FirstSeq > 1 {
		wantEnvelope(t, mustGet(t, tsTr.URL+"/replication/wal?from=1&wait=0s"),
			http.StatusGone, codeWALTruncated)
	} else {
		t.Log("no WAL truncation happened; skipping the 410 case")
	}

	// Follower mode: writes are redirected with the primary's address.
	fCfg := durableConfig(RefitFull, t.TempDir())
	fCfg.FollowerOf = "http://primary.example:8080"
	f, err := New(fCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tsF := httptest.NewServer(f.Handler())
	defer tsF.Close()
	followerResp, err := http.Post(tsF.URL+"/claims", "application/json", strings.NewReader(`[{"entity":"e","attribute":"a","source":"s"}]`))
	if err != nil {
		t.Fatal(err)
	}
	var env map[string]any
	decodeJSON(t, followerResp, &env)
	if followerResp.StatusCode != http.StatusServiceUnavailable ||
		env["code"] != codeFollowerReadonly || env["primary"] != fCfg.FollowerOf {
		t.Fatalf("follower rejection: status %d, envelope %v", followerResp.StatusCode, env)
	}
}

// TestClaimsEndpointPushdown exercises GET /claims filters end to end on
// the segment backend, including the skipping counters it should move.
func TestClaimsEndpointPushdown(t *testing.T) {
	s, ts := newTestServer(t, segmentConfig(RefitFull, t.TempDir()))
	for r := 0; r < 4; r++ {
		mustIngest(t, s, batchRows(r))
		mustRefit(t, s) // checkpoint → seal: rows live in segments
	}
	var out struct {
		Count  int                                          `json:"count"`
		Claims []struct{ Entity, Attribute, Source string } `json:"claims"`
	}
	decodeJSON(t, mustGet(t, ts.URL+"/claims?entity=e03"), &out)
	if out.Count == 0 {
		t.Fatal("no claims for e03")
	}
	for _, c := range out.Claims {
		if c.Entity != "e03" {
			t.Fatalf("entity filter leaked %+v", c)
		}
	}
	decodeJSON(t, mustGet(t, ts.URL+"/claims?prefix=e0&source=s1"), &out)
	for _, c := range out.Claims {
		if !strings.HasPrefix(c.Entity, "e0") || c.Source != "s1" {
			t.Fatalf("prefix+source filter leaked %+v", c)
		}
	}
	var stats struct {
		Storage store.StorageStats `json:"storage"`
	}
	decodeJSON(t, mustGet(t, ts.URL+"/stats"), &stats)
	if stats.Storage.SegmentsScanned+stats.Storage.SegmentsSkipped == 0 {
		t.Fatalf("scans moved no skipping counters: %+v", stats.Storage)
	}
}

// TestStorageGaugesExposed asserts the storage gauge families appear in
// /metrics with the backend's live values.
func TestStorageGaugesExposed(t *testing.T) {
	s, ts := newTestServer(t, segmentConfig(RefitFull, t.TempDir()))
	mustIngest(t, s, batchRows(0))
	mustRefit(t, s)
	_, body := getBody(t, ts, "/metrics")
	text := string(body)
	st := s.db.Stats()
	for metric, want := range map[string]int{
		"storage_resident_rows": st.Resident,
		"storage_disk_rows":     st.OnDisk,
		"storage_segments":      st.Segments,
	} {
		if !strings.Contains(text, fmt.Sprintf("%s %d", metric, want)) {
			t.Fatalf("/metrics missing %s %d:\n%s", metric, want, text)
		}
	}
}
