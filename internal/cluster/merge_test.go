package cluster

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"testing"

	"latenttruth/internal/core"
	"latenttruth/internal/model"
	"latenttruth/internal/obs"
	"latenttruth/internal/serve"
	"latenttruth/internal/store"
	"latenttruth/internal/wal"
)

var testPriors = core.Priors{FP: 1, TN: 9, TP: 9, FN: 1, True: 1, Fls: 1}

func pq(seq int64, counts map[string][2][2]float64) serve.PartitionQuality {
	return serve.PartitionQuality{Seq: seq, Threshold: 0.5, Priors: testPriors, Counts: counts}
}

// TestMergeQualitySinglePartitionIdentity: merging one partition's counts
// reproduces exactly the rows the shared closed form gives on those
// counts — bit-identical, including the Table 8 ranking.
func TestMergeQualitySinglePartitionIdentity(t *testing.T) {
	counts := map[string][2][2]float64{
		"good":  {{30.2, 0.8}, {1.1, 40.9}},
		"messy": {{20.7, 10.3}, {3.9, 33.1}},
	}
	merged, err := MergeQuality([]serve.PartitionQuality{pq(3, counts)})
	if err != nil {
		t.Fatal(err)
	}
	want := core.RankedQuality([]model.SourceQuality{
		core.QualityFromCounts("good", counts["good"], testPriors),
		core.QualityFromCounts("messy", counts["messy"], testPriors),
	})
	if !reflect.DeepEqual(merged, want) {
		t.Fatalf("merged %+v != closed form %+v", merged, want)
	}
}

// TestMergeQualityEqualsJointCounts: splitting a count table between
// partitions and merging gives bit-identical quality to the closed form
// over the partition-order sum — mergeCounts is the fold, QualityFromCounts
// the read-off, so the equality is exact, not approximate.
func TestMergeQualityEqualsJointCounts(t *testing.T) {
	p0 := map[string][2][2]float64{
		"good":   {{10.25, 0.5}, {0.125, 20.75}},
		"shared": {{5.5, 1.25}, {0.75, 7.875}},
	}
	p1 := map[string][2][2]float64{
		"shared": {{4.125, 2.5}, {1.5, 9.25}},
		"other":  {{8.875, 3.75}, {2.25, 11.5}},
	}
	merged, err := MergeQuality([]serve.PartitionQuality{pq(2, p0), pq(2, p1)})
	if err != nil {
		t.Fatal(err)
	}
	joint := mergeCounts(nil, p0)
	joint = mergeCounts(joint, p1)
	byName := make(map[string]int)
	for i, row := range merged {
		byName[row.Source] = i
	}
	if len(merged) != 3 {
		t.Fatalf("got %d sources, want 3: %+v", len(merged), merged)
	}
	for name, e := range joint {
		want := core.QualityFromCounts(name, e, testPriors)
		got := merged[byName[name]]
		if got != want {
			t.Fatalf("source %s: merged %+v != joint closed form %+v", name, got, want)
		}
	}
	// The shared source's cells really are sums, not either side's.
	wantShared := [2][2]float64{{5.5 + 4.125, 1.25 + 2.5}, {0.75 + 1.5, 7.875 + 9.25}}
	if joint["shared"] != wantShared {
		t.Fatalf("shared counts %v, want %v", joint["shared"], wantShared)
	}
}

func TestMergeQualityRejectsConfigDrift(t *testing.T) {
	c := map[string][2][2]float64{"s": {{1, 1}, {1, 1}}}
	bad := pq(1, c)
	bad.Priors.TP++
	if _, err := MergeQuality([]serve.PartitionQuality{pq(1, c), bad}); err == nil {
		t.Fatal("mismatched priors must not merge")
	}
	bad = pq(1, c)
	bad.Threshold = 0.7
	if _, err := MergeQuality([]serve.PartitionQuality{pq(1, c), bad}); err == nil {
		t.Fatal("mismatched thresholds must not merge")
	}
	if _, err := MergeQuality(nil); err == nil {
		t.Fatal("empty merge must fail")
	}
}

// renderStats renders /stats from an exposition, decoded as JSON the way
// a client sees it.
func renderStats(t *testing.T, expo []byte) map[string]any {
	t.Helper()
	fams, err := obs.ParseExposition(bytes.NewReader(expo))
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(serve.RenderStats(fams))
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// mergedStats renders /stats from the merge of expos, as the router does
// before it swaps in the sources union.
func mergedStats(t *testing.T, expos ...[]byte) map[string]any {
	t.Helper()
	merged, err := obs.Merge(expos)
	if err != nil {
		t.Fatal(err)
	}
	return renderStats(t, merged)
}

// exposition is the server's GET /metrics body.
func exposition(t *testing.T, s *serve.Server) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestStatsMergeFieldByField renders /stats from the merge of two live
// partitions' expositions and asserts every field by value against the
// partitions' own renderings: ready is an AND, seq and uptime take the
// min, freshness and last refit time the max, mode, policy, version and
// commit read "mixed" exactly when the partitions disagree, sources falls
// back to the max (the router swaps in the union of quality names when
// every partition serves one), and every other count sums — in the
// storage block too, whose kind is the common value or "mixed".
func TestStatsMergeFieldByField(t *testing.T) {
	corpus := clusterCorpus(t)
	batches := chunkRows(positiveClaimRows(corpus.Dataset), 4)
	cfg1 := clusterServeConfig(serve.RefitDirty)
	cfg1.Storage = store.StorageSegments
	cfg1.Durability = serve.Durability{DataDir: t.TempDir(), Fsync: wal.SyncNever}
	var parts []*serve.Server
	for _, cfg := range []serve.Config{clusterServeConfig(serve.RefitFull), cfg1, clusterServeConfig(serve.RefitFull)} {
		s, err := serve.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		parts = append(parts, s)
	}
	ingest := func(s *serve.Server, rows []model.Row) {
		if _, err := s.Ingest(rows); err != nil {
			t.Fatal(err)
		}
	}
	refit := func(s *serve.Server) {
		if _, err := s.Refit(""); err != nil {
			t.Fatal(err)
		}
	}
	// Partition 0: one full refit, then a pending batch. Partition 1: a
	// full anchor and a dirty refit on the segment backend, then a scoped
	// claims read that moves its segment scan counters. Partition 2 never
	// refits.
	ingest(parts[0], batches[0])
	refit(parts[0])
	ingest(parts[0], batches[1])
	ingest(parts[1], batches[2])
	refit(parts[1])
	ingest(parts[1], batches[3])
	refit(parts[1])
	parts[1].Handler().ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet,
		"/claims?entity="+url.QueryEscape(batches[3][0].Entity), nil))

	e0 := exposition(t, parts[0])
	// Partition 1 runs another build: its version differs, its commit not.
	e1 := bytes.Replace(exposition(t, parts[1]),
		[]byte(`version="`+obs.Version+`"`), []byte(`version="`+obs.Version+`-next"`), 1)
	p0, p1 := renderStats(t, e0), renderStats(t, e1)
	s0, s1 := p0["storage"].(map[string]any), p1["storage"].(map[string]any)
	if p0["mode"] == p1["mode"] || p0["policy"] == p1["policy"] || p0["version"] == p1["version"] ||
		p0["seq"] == p1["seq"] || s0["kind"] == s1["kind"] || s1["segments_scanned"].(float64) == 0 {
		t.Fatalf("partitions too alike to exercise the rules:\n%v\n%v", p0, p1)
	}

	num := func(m map[string]any, f string) float64 { return m[f].(float64) }
	want := map[string]any{
		"ready":         true,
		"seq":           math.Min(num(p0, "seq"), num(p1, "seq")),
		"uptime_s":      math.Min(num(p0, "uptime_s"), num(p1, "uptime_s")),
		"freshness_ms":  math.Max(num(p0, "freshness_ms"), num(p1, "freshness_ms")),
		"last_refit_ms": math.Max(num(p0, "last_refit_ms"), num(p1, "last_refit_ms")),
		"mode":          "mixed",
		"policy":        "mixed",
		"version":       "mixed",
		"commit":        obs.Commit,
		"sources":       math.Max(num(p0, "sources"), num(p1, "sources")),
	}
	storage := map[string]any{"kind": "mixed"}
	for f := range s0 {
		if _, ok := storage[f]; !ok {
			storage[f] = num(s0, f) + num(s1, f)
		}
	}
	want["storage"] = storage
	for f := range p0 {
		if _, ok := want[f]; !ok {
			want[f] = num(p0, f) + num(p1, f)
		}
	}
	got := mergedStats(t, e0, e1)
	for f, w := range want {
		if !reflect.DeepEqual(got[f], w) {
			t.Errorf("merged %q = %v, want %v (partitions %v and %v)", f, got[f], w, p0[f], p1[f])
		}
	}
	for f := range got {
		if _, ok := want[f]; !ok {
			t.Errorf("merged /stats has unexpected field %q", f)
		}
	}
	for _, f := range []string{"pending", "ingested_total", "refits", "full_refits", "dirty_refits", "dirty_entities", "claims"} {
		if num(p0, f) == 0 && num(p1, f) == 0 {
			t.Errorf("%q is zero on both partitions; its sum is untested", f)
		}
	}

	// A partition with no snapshot yet makes the cluster not ready and
	// contributes no mode; agreeing labels keep their common value.
	got = mergedStats(t, e0, exposition(t, parts[2]))
	if got["ready"] != false || got["mode"] != p0["mode"] || got["policy"] != p0["policy"] ||
		got["version"] != p0["version"] || got["storage"].(map[string]any)["kind"] != s0["kind"] {
		t.Errorf("merge with an unfitted partition: %v", got)
	}
}
