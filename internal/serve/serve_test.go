package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"latenttruth/internal/core"
	"latenttruth/internal/model"
	"latenttruth/internal/query"
	"latenttruth/internal/store"
	"latenttruth/internal/synth"
)

// testCorpus generates a small conflicting corpus cheap enough to Gibbs-fit
// many times per test.
func testCorpus(t *testing.T, seed int64) *synth.Corpus {
	t.Helper()
	c, err := synth.Generate(synth.CorpusSpec{
		Name: "servetest", NumEntities: 60,
		TrueAttrWeights:  []float64{0.6, 0.3, 0.1},
		FalseCandWeights: []float64{0.5, 0.4, 0.1},
		LabelEntities:    10,
		Seed:             seed,
		Sources: []synth.SourceProfile{
			{Name: "good", Coverage: 0.9, Sensitivity: 0.95, FPR: 0.02},
			{Name: "lazy", Coverage: 0.8, Sensitivity: 0.5, FPR: 0.02},
			{Name: "messy", Coverage: 0.8, Sensitivity: 0.85, FPR: 0.35},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// positiveRows extracts the raw (entity, attribute, source) triples of a
// dataset's positive claims — the wire form a client would POST.
func positiveRows(ds *model.Dataset) []model.Row {
	var rows []model.Row
	for _, c := range ds.Claims {
		if !c.Observation {
			continue
		}
		f := ds.Facts[c.Fact]
		rows = append(rows, model.Row{
			Entity:    ds.Entities[f.Entity],
			Attribute: f.Attribute,
			Source:    ds.Sources[c.Source],
		})
	}
	return rows
}

// testConfig returns a manual-refit config with a fast sampler.
func testConfig(policy RefitPolicy) Config {
	return Config{
		LTM:           core.Config{Iterations: 40, Seed: 1},
		Policy:        policy,
		FullEvery:     3,
		RefitInterval: -1, // manual refits only
	}
}

// newTestServer builds a server plus its HTTP front end.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

// postClaims POSTs rows as a JSON envelope and returns the response.
func postClaims(t *testing.T, url string, rows []model.Row) *http.Response {
	t.Helper()
	type claim struct{ Entity, Attribute, Source string }
	claims := make([]map[string]string, len(rows))
	for i, r := range rows {
		claims[i] = map[string]string{"entity": r.Entity, "attribute": r.Attribute, "source": r.Source}
	}
	body, err := json.Marshal(map[string]any{"claims": claims})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/claims", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// decodeJSON decodes and closes a response body.
func decodeJSON(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// wantStatus fails unless the response has the given code.
func wantStatus(t *testing.T, resp *http.Response, code int) {
	t.Helper()
	if resp.StatusCode != code {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("status %d, want %d: %s", resp.StatusCode, code, body)
	}
}

func TestServerEndToEnd(t *testing.T) {
	c := testCorpus(t, 1)
	s, ts := newTestServer(t, testConfig(RefitFull))

	// Before any data: reads are 503, healthz reports not ready.
	resp, err := http.Get(ts.URL + "/truth")
	if err != nil {
		t.Fatal(err)
	}
	wantStatus(t, resp, http.StatusServiceUnavailable)
	resp.Body.Close()

	var health struct {
		Status string `json:"status"`
		Ready  bool   `json:"ready"`
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	wantStatus(t, resp, http.StatusOK)
	decodeJSON(t, resp, &health)
	if health.Status != "ok" || health.Ready {
		t.Fatalf("healthz before data = %+v", health)
	}

	// Refit with nothing ingested is a conflict.
	resp, err = http.Post(ts.URL+"/refit", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	wantStatus(t, resp, http.StatusConflict)
	resp.Body.Close()

	// Ingest the corpus and force the first refit.
	rows := positiveRows(c.Dataset)
	resp = postClaims(t, ts.URL, rows)
	wantStatus(t, resp, http.StatusAccepted)
	var ing struct {
		Accepted int   `json:"accepted"`
		Pending  int   `json:"pending"`
		Total    int64 `json:"total"`
	}
	decodeJSON(t, resp, &ing)
	if ing.Accepted != len(rows) || ing.Pending < len(rows) {
		t.Fatalf("ingest response %+v for %d rows", ing, len(rows))
	}

	var refit struct {
		Seq   int64       `json:"seq"`
		Mode  RefitPolicy `json:"mode"`
		Facts int         `json:"facts"`
	}
	resp, err = http.Post(ts.URL+"/refit", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	wantStatus(t, resp, http.StatusOK)
	decodeJSON(t, resp, &refit)
	if refit.Seq != 1 || refit.Mode != RefitFull || refit.Facts == 0 {
		t.Fatalf("first refit = %+v", refit)
	}

	// The served truth table is complete and self-consistent.
	var truth struct {
		Seq   int64      `json:"seq"`
		Facts int        `json:"facts"`
		Rows  []TruthRow `json:"rows"`
	}
	resp, err = http.Get(ts.URL + "/truth")
	if err != nil {
		t.Fatal(err)
	}
	wantStatus(t, resp, http.StatusOK)
	decodeJSON(t, resp, &truth)
	if truth.Seq != 1 || truth.Facts != len(truth.Rows) || truth.Facts == 0 {
		t.Fatalf("truth: seq=%d facts=%d rows=%d", truth.Seq, truth.Facts, len(truth.Rows))
	}
	sn := s.Snapshot()
	if truth.Facts != sn.Dataset.NumFacts() {
		t.Fatalf("served %d facts, snapshot has %d", truth.Facts, sn.Dataset.NumFacts())
	}
	for _, row := range truth.Rows {
		if row.Entity == "" || row.Attribute == "" || row.Probability < 0 || row.Probability > 1 {
			t.Fatalf("bad truth row %+v", row)
		}
	}

	// Entity and fact filters.
	ent := truth.Rows[0].Entity
	resp, err = http.Get(ts.URL + "/truth?entity=" + urlQuery(ent))
	if err != nil {
		t.Fatal(err)
	}
	wantStatus(t, resp, http.StatusOK)
	var entTruth struct {
		Facts int        `json:"facts"`
		Rows  []TruthRow `json:"rows"`
	}
	decodeJSON(t, resp, &entTruth)
	if entTruth.Facts == 0 {
		t.Fatalf("no rows for entity %q", ent)
	}
	for _, row := range entTruth.Rows {
		if row.Entity != ent {
			t.Fatalf("entity filter leaked row %+v", row)
		}
	}
	resp, err = http.Get(ts.URL + "/truth?entity=" + urlQuery(ent) + "&attribute=" + urlQuery(entTruth.Rows[0].Attribute))
	if err != nil {
		t.Fatal(err)
	}
	wantStatus(t, resp, http.StatusOK)
	resp.Body.Close()
	for _, bad := range []string{
		"/truth?entity=no-such-entity",
		"/truth?entity=" + urlQuery(ent) + "&attribute=no-such-attr",
		"/records?entity=no-such-entity",
	} {
		resp, err = http.Get(ts.URL + bad)
		if err != nil {
			t.Fatal(err)
		}
		wantStatus(t, resp, http.StatusNotFound)
		resp.Body.Close()
	}
	resp, err = http.Get(ts.URL + "/truth?attribute=orphaned")
	if err != nil {
		t.Fatal(err)
	}
	wantStatus(t, resp, http.StatusBadRequest)
	resp.Body.Close()

	// Quality is ranked by decreasing sensitivity and covers the sources.
	var qual struct {
		Sources []struct {
			Source      string  `json:"source"`
			Sensitivity float64 `json:"sensitivity"`
			Specificity float64 `json:"specificity"`
		} `json:"sources"`
	}
	resp, err = http.Get(ts.URL + "/quality")
	if err != nil {
		t.Fatal(err)
	}
	wantStatus(t, resp, http.StatusOK)
	decodeJSON(t, resp, &qual)
	if len(qual.Sources) != sn.Dataset.NumSources() {
		t.Fatalf("%d quality rows for %d sources", len(qual.Sources), sn.Dataset.NumSources())
	}
	for i := 1; i < len(qual.Sources); i++ {
		if qual.Sources[i].Sensitivity > qual.Sources[i-1].Sensitivity {
			t.Fatalf("quality not ranked: %v", qual.Sources)
		}
	}

	// Records serve the cached integration output.
	var recResp struct {
		Record struct {
			Entity     string `json:"entity"`
			Attributes []struct {
				Value string `json:"value"`
			} `json:"attributes"`
		} `json:"record"`
	}
	resp, err = http.Get(ts.URL + "/records?entity=" + urlQuery(ent))
	if err != nil {
		t.Fatal(err)
	}
	wantStatus(t, resp, http.StatusOK)
	decodeJSON(t, resp, &recResp)
	if recResp.Record.Entity != ent {
		t.Fatalf("record for %q, want %q", recResp.Record.Entity, ent)
	}

	// Stats reflect the snapshot.
	var stats statsResponse
	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	wantStatus(t, resp, http.StatusOK)
	decodeJSON(t, resp, &stats)
	if !stats.Ready || stats.Seq != 1 || stats.Refits != 1 || stats.FullRefits != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.Facts != sn.Stats.Facts || stats.Claims != sn.Stats.Claims {
		t.Fatalf("stats facts/claims = %d/%d, snapshot %d/%d",
			stats.Facts, stats.Claims, sn.Stats.Facts, sn.Stats.Claims)
	}

	// A refit with no new data still publishes a fresh snapshot.
	resp, err = http.Post(ts.URL+"/refit", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	wantStatus(t, resp, http.StatusOK)
	decodeJSON(t, resp, &refit)
	if refit.Seq != 2 {
		t.Fatalf("second refit seq = %d", refit.Seq)
	}
}

func TestServerRejectsBadIngest(t *testing.T) {
	_, ts := newTestServer(t, testConfig(RefitFull))
	for name, body := range map[string]string{
		"malformed":   `{"claims": [`,
		"empty batch": `{"claims": []}`,
		"empty field": `{"claims": [{"entity":"e","attribute":"","source":"s"}]}`,
		"not json":    `hello`,
	} {
		resp, err := http.Post(ts.URL+"/claims", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
		resp.Body.Close()
	}
	// A bare JSON array is accepted too.
	resp, err := http.Post(ts.URL+"/claims", "application/json",
		strings.NewReader(`[{"entity":"e","attribute":"a","source":"s"}]`))
	if err != nil {
		t.Fatal(err)
	}
	wantStatus(t, resp, http.StatusAccepted)
	resp.Body.Close()

	for _, policy := range []string{"bogus", "incremental"} {
		resp, err = http.Post(ts.URL+"/refit?policy="+policy, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		wantStatus(t, resp, http.StatusBadRequest)
		resp.Body.Close()
	}
}

// The incremental policy this test once covered is gone; the online
// policy keeps its subtest under the original name.
func TestServerIncrementalAndOnlinePolicies(t *testing.T) {
	t.Run(string(RefitOnline), func(t *testing.T) {
		c := testCorpus(t, 2)
		batches := store.SplitEntities(c.Dataset, 4)
		s, err := New(testConfig(RefitOnline))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()

		// FullEvery = 3: expected modes per refit are full, online, online,
		// full, ...
		want := []RefitPolicy{RefitFull, RefitOnline, RefitOnline, RefitFull}
		for i, b := range batches {
			if _, err := s.Ingest(positiveRows(b)); err != nil {
				t.Fatal(err)
			}
			sn, err := s.Refit("")
			if err != nil {
				t.Fatalf("refit %d: %v", i, err)
			}
			if sn.Mode != want[i] {
				t.Fatalf("refit %d mode = %s, want %s", i, sn.Mode, want[i])
			}
			if sn.Seq != int64(i+1) {
				t.Fatalf("refit %d seq = %d", i, sn.Seq)
			}
			if err := sn.Result.Validate(); err != nil {
				t.Fatal(err)
			}
			if len(sn.Result.Prob) != sn.Dataset.NumFacts() {
				t.Fatalf("refit %d: %d probs for %d facts", i, len(sn.Result.Prob), sn.Dataset.NumFacts())
			}
			if len(sn.Quality) == 0 {
				t.Fatalf("refit %d: empty quality table", i)
			}
		}
		rs := s.Refits()
		if rs.Refits != 4 || rs.FullRefits != 2 {
			t.Fatalf("counters = %+v", rs)
		}
	})
}

func TestServerPolicyOverride(t *testing.T) {
	c := testCorpus(t, 3)
	s, err := New(testConfig(RefitOnline))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Ingest(positiveRows(c.Dataset)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Refit(""); err != nil {
		t.Fatal(err)
	}
	// An explicit full override mid-stream re-anchors regardless of policy.
	sn, err := s.Refit(RefitFull)
	if err != nil {
		t.Fatal(err)
	}
	if sn.Mode != RefitFull {
		t.Fatalf("override mode = %s", sn.Mode)
	}
}

// TestOnlineSkipsDuplicateBatches: a retried POST of an already-compacted
// batch must not feed the quality accumulator twice — only rows new to the
// cumulative database count.
func TestOnlineSkipsDuplicateBatches(t *testing.T) {
	c := testCorpus(t, 6)
	s, err := New(testConfig(RefitOnline))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rows := positiveRows(c.Dataset)
	if _, err := s.Ingest(rows); err != nil {
		t.Fatal(err)
	}
	first, err := s.Refit("")
	if err != nil {
		t.Fatal(err)
	}
	if first.Compacted != len(rows) {
		t.Fatalf("first refit compacted %d of %d rows", first.Compacted, len(rows))
	}
	// Retry the identical batch: everything is a duplicate.
	if _, err := s.Ingest(rows); err != nil {
		t.Fatal(err)
	}
	sn, err := s.Refit("")
	if err != nil {
		t.Fatal(err)
	}
	if sn.Compacted != 0 {
		t.Fatalf("duplicate batch compacted %d rows, want 0", sn.Compacted)
	}
	if sn.Stats != first.Stats {
		t.Fatalf("duplicate batch changed the dataset: %+v vs %+v", sn.Stats, first.Stats)
	}
}

func TestSnapshotInvariants(t *testing.T) {
	c := testCorpus(t, 4)
	s, err := New(testConfig(RefitFull))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Ingest(positiveRows(c.Dataset)); err != nil {
		t.Fatal(err)
	}
	sn, err := s.Refit("")
	if err != nil {
		t.Fatal(err)
	}
	checkSnapshotComplete(t, sn)

	// Point lookups agree with the full table.
	for _, row := range sn.AllTruth() {
		got, err := sn.Truth(row.Entity, row.Attribute)
		if err != nil || got != row {
			t.Fatalf("Truth(%q, %q) = %+v/%v, want %+v", row.Entity, row.Attribute, got, err, row)
		}
	}
	ent := sn.Dataset.Entities[0]
	rows, err := sn.EntityTruth(ent)
	if err != nil || len(rows) != len(sn.Dataset.FactsByEntity[0]) {
		t.Fatalf("EntityTruth(%q) = %d rows/%v", ent, len(rows), err)
	}
	if _, err := sn.Record(ent); err != nil {
		t.Fatalf("Record(%q) missing: %v", ent, err)
	}
}

// checkSnapshotComplete asserts the structural invariants every published
// snapshot must satisfy — the "no torn reads" contract.
func checkSnapshotComplete(t *testing.T, sn *Snapshot) {
	t.Helper()
	if sn == nil {
		t.Fatal("nil snapshot")
	}
	nf := sn.Dataset.NumFacts()
	if len(sn.Result.Prob) != nf {
		t.Fatalf("snapshot %d: %d probs for %d facts", sn.Seq, len(sn.Result.Prob), nf)
	}
	if len(sn.Records) != sn.Dataset.NumEntities() {
		t.Fatalf("snapshot %d: %d records for %d entities", sn.Seq, len(sn.Records), sn.Dataset.NumEntities())
	}
	if len(sn.entityByName) != sn.Dataset.NumEntities() {
		t.Fatalf("snapshot %d: entity index has %d entries for %d entities",
			sn.Seq, len(sn.entityByName), sn.Dataset.NumEntities())
	}
	checkSnapshotLookups(t, sn)
	if got := store.Summarize(sn.Dataset); got != sn.Stats {
		t.Fatalf("snapshot %d: stats %+v, recomputed %+v", sn.Seq, sn.Stats, got)
	}
	if err := sn.Result.Validate(); err != nil {
		t.Fatalf("snapshot %d: %v", sn.Seq, err)
	}
}

// checkSnapshotLookups asserts every name the snapshot serves resolves to
// its own id: each (entity, attribute) through Truth and QueryTruth to its
// fact, each entity through the entity index to its id; an unknown entity
// fails with ErrNoEntity and a known entity's unknown attribute with
// ErrNoFact.
func checkSnapshotLookups(t *testing.T, sn *Snapshot) {
	t.Helper()
	ds := sn.Dataset
	for e, name := range ds.Entities {
		if got, ok := sn.entityByName[name]; !ok || got != e {
			t.Fatalf("snapshot %d: entity %q resolves to %d/%v, want %d", sn.Seq, name, got, ok, e)
		}
	}
	for _, f := range ds.Facts {
		ent := ds.Entities[f.Entity]
		if got, err := sn.Truth(ent, f.Attribute); err != nil || got != sn.row(f.ID) {
			t.Fatalf("snapshot %d: Truth(%q, %q) = %+v/%v, want fact %d", sn.Seq, ent, f.Attribute, got, err, f.ID)
		}
		rows, err := sn.QueryTruth(query.TruthOptions{Entity: ent, Attribute: f.Attribute})
		if err != nil {
			t.Fatalf("snapshot %d: QueryTruth(%q, %q): %v", sn.Seq, ent, f.Attribute, err)
		}
		if row, ok := rows.Next(); !ok || row.Fact != f.ID {
			t.Fatalf("snapshot %d: QueryTruth(%q, %q) = %+v/%v, want fact %d", sn.Seq, ent, f.Attribute, row, ok, f.ID)
		}
		if _, ok := rows.Next(); ok {
			t.Fatalf("snapshot %d: QueryTruth(%q, %q) yields more than one row", sn.Seq, ent, f.Attribute)
		}
	}
	if _, err := sn.Truth("\x00no-such-entity", "a"); !errors.Is(err, ErrNoEntity) {
		t.Fatalf("snapshot %d: unknown entity: %v, want ErrNoEntity", sn.Seq, err)
	}
	if _, err := sn.QueryTruth(query.TruthOptions{Entity: "\x00no-such-entity", Attribute: "a"}); !errors.Is(err, ErrNoEntity) {
		t.Fatalf("snapshot %d: unknown entity query: %v, want ErrNoEntity", sn.Seq, err)
	}
	if len(ds.Entities) > 0 {
		ent := ds.Entities[0]
		if _, err := sn.Truth(ent, "\x00no-such-attribute"); !errors.Is(err, ErrNoFact) {
			t.Fatalf("snapshot %d: unknown attribute: %v, want ErrNoFact", sn.Seq, err)
		}
		if _, err := sn.QueryTruth(query.TruthOptions{Entity: ent, Attribute: "\x00no-such-attribute"}); !errors.Is(err, ErrNoFact) {
			t.Fatalf("snapshot %d: unknown attribute query: %v, want ErrNoFact", sn.Seq, err)
		}
	}
}

func TestServerBackgroundRefitLoop(t *testing.T) {
	c := testCorpus(t, 5)
	cfg := testConfig(RefitFull)
	cfg.RefitInterval = 20 * time.Millisecond
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Start()
	if _, err := s.Ingest(positiveRows(c.Dataset)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.Snapshot() == nil {
		if time.Now().After(deadline) {
			t.Fatal("background loop never produced a snapshot")
		}
		time.Sleep(5 * time.Millisecond)
	}
	checkSnapshotComplete(t, s.Snapshot())
}

func TestIngestAfterCloseFails(t *testing.T) {
	s, err := New(testConfig(RefitFull))
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := s.Ingest([]model.Row{{Entity: "e", Attribute: "a", Source: "s"}}); err == nil {
		t.Fatal("ingest after close succeeded")
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	for _, policy := range []RefitPolicy{"bogus", "incremental"} {
		if _, err := New(Config{Policy: policy}); err == nil {
			t.Fatalf("bad policy %q accepted", policy)
		}
	}
	if _, err := New(Config{Threshold: 1.5}); err == nil {
		t.Fatal("bad threshold accepted")
	}
	if _, err := New(Config{FullEvery: -1}); err == nil {
		t.Fatal("negative FullEvery accepted")
	}
}

// urlQuery escapes a query parameter value.
func urlQuery(s string) string { return url.QueryEscape(s) }
