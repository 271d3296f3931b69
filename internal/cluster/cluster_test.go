package cluster

// The in-process multi-primary fixture: K real serve.Servers behind real
// HTTP listeners, one Router in front, and a single-primary reference
// fitted on the identical claim stream. The suites prove the equivalence
// ladder from doc.go — (a) routed responses are the exact merge of the
// partitions' own responses for any K, (b) K=1 is value-identical to a
// single primary, (c) K>1 matches the single-primary reference up to the
// documented cross-partition Gibbs drift — and the fault-injection test
// shows a killed partition 503s only its own range and recovers
// bit-identically from its own WAL.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"sort"
	"testing"
	"time"

	"latenttruth/internal/core"
	"latenttruth/internal/model"
	"latenttruth/internal/serve"
	"latenttruth/internal/synth"
	"latenttruth/internal/wal"
)

// Drift bounds for grade (c) of the equivalence ladder: K>1 partitions
// run uncoupled Gibbs chains over disjoint entity subsets, so per-fact
// probabilities and the merged quality table may differ from a single
// joint fit by chain noise, not by reconciliation error. Measured on the
// 60-entity corpus across K∈{2,4} and every refit policy the worst
// per-fact probability gap is 0.088 and the worst quality-metric gap
// 0.004; the bounds carry headroom over that.
const (
	probDriftBound    = 0.15
	qualityDriftBound = 0.02
)

// clusterCorpus mirrors the serve test corpus: small enough to Gibbs-fit
// dozens of times, conflicting enough that source quality separates.
func clusterCorpus(t *testing.T) *synth.Corpus {
	t.Helper()
	c, err := synth.Generate(synth.CorpusSpec{
		Name: "clustertest", NumEntities: 60,
		TrueAttrWeights:  []float64{0.6, 0.3, 0.1},
		FalseCandWeights: []float64{0.5, 0.4, 0.1},
		LabelEntities:    10,
		Seed:             7,
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

// positiveClaimRows extracts the positive claims as wire-form rows.
func positiveClaimRows(ds *model.Dataset) []model.Row {
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

// chunkRows splits rows into n roughly equal ingest batches.
func chunkRows(rows []model.Row, n int) [][]model.Row {
	per := (len(rows) + n - 1) / n
	var out [][]model.Row
	for len(rows) > 0 {
		cut := per
		if cut > len(rows) {
			cut = len(rows)
		}
		out = append(out, rows[:cut])
		rows = rows[cut:]
	}
	return out
}

func clusterServeConfig(policy serve.RefitPolicy) serve.Config {
	return serve.Config{
		LTM:           core.Config{Iterations: 40, Seed: 1},
		Policy:        policy,
		FullEvery:     3,
		RefitInterval: -1, // manual refits only
	}
}

// testPrimary is one partition's primary: a real serve.Server behind a
// real TCP listener, killable and restartable on the same address.
type testPrimary struct {
	addr    string
	dataDir string
	srv     *serve.Server
	hs      *http.Server
}

type testCluster struct {
	t         *testing.T
	cfg       serve.Config
	primaries []*testPrimary
	router    *httptest.Server
}

// newTestCluster starts K primaries plus a router over them. With
// durable set, each primary gets its own data directory — its private
// WAL and checkpoints — so it can be killed and restarted.
func newTestCluster(t *testing.T, k int, policy serve.RefitPolicy, durable bool) *testCluster {
	t.Helper()
	tc := &testCluster{t: t, cfg: clusterServeConfig(policy)}
	urls := make([]string, k)
	for i := 0; i < k; i++ {
		p := &testPrimary{}
		if durable {
			p.dataDir = t.TempDir()
		}
		tc.primaries = append(tc.primaries, p)
		tc.startPrimary(i)
		urls[i] = "http://" + p.addr
	}
	rt, err := NewRouter(Config{Partitions: urls})
	if err != nil {
		t.Fatal(err)
	}
	tc.router = httptest.NewServer(rt.Handler())
	t.Cleanup(func() {
		tc.router.Close()
		for i := range tc.primaries {
			tc.stopPrimary(i)
		}
	})
	return tc
}

// startPrimary boots (or reboots) partition i. On a reboot the primary
// reuses its previous address — the router's partition map is static —
// and recovers from its own data directory.
func (tc *testCluster) startPrimary(i int) {
	tc.t.Helper()
	p := tc.primaries[i]
	cfg := tc.cfg
	if p.dataDir != "" {
		cfg.Durability = serve.Durability{DataDir: p.dataDir, Fsync: wal.SyncNever}
	}
	srv, err := serve.New(cfg)
	if err != nil {
		tc.t.Fatal(err)
	}
	addr := p.addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	var ln net.Listener
	for attempt := 0; ; attempt++ {
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if attempt > 100 {
			srv.Close()
			tc.t.Fatalf("listen %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	p.addr = ln.Addr().String()
	p.srv = srv
	p.hs = &http.Server{Handler: srv.Handler()}
	go p.hs.Serve(ln)
}

// stopPrimary kills partition i: the listener and every open connection
// drop immediately, the way a crashed process disappears from the
// network.
func (tc *testCluster) stopPrimary(i int) {
	p := tc.primaries[i]
	if p.hs != nil {
		p.hs.Close()
		p.hs = nil
	}
	if p.srv != nil {
		p.srv.Close()
		p.srv = nil
	}
}

func (tc *testCluster) url(i int) string { return "http://" + tc.primaries[i].addr }

// --- HTTP helpers ---

func httpGet(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", url, err)
	}
	return resp.StatusCode, body
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	code, body := httpGet(t, url)
	if code != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, code, body)
	}
	if err := json.Unmarshal(body, v); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
}

func postClaims(t *testing.T, base string, rows []model.Row) (int, []byte) {
	t.Helper()
	claims := make([]map[string]string, len(rows))
	for i, r := range rows {
		claims[i] = map[string]string{"entity": r.Entity, "attribute": r.Attribute, "source": r.Source}
	}
	payload, err := json.Marshal(map[string]any{"claims": claims})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/claims", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatalf("POST %s/claims: %v", base, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func mustIngest(t *testing.T, base string, rows []model.Row) {
	t.Helper()
	if code, body := postClaims(t, base, rows); code != http.StatusAccepted {
		t.Fatalf("POST %s/claims: status %d: %s", base, code, body)
	}
}

func mustRefit(t *testing.T, base string) {
	t.Helper()
	resp, err := http.Post(base+"/refit", "application/json", nil)
	if err != nil {
		t.Fatalf("POST %s/refit: %v", base, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s/refit: status %d: %s", base, resp.StatusCode, body)
	}
}

// --- decoded wire shapes ---

type truthResponse struct {
	Seq       int64            `json:"seq"`
	Mode      string           `json:"mode"`
	Threshold float64          `json:"threshold"`
	Facts     int              `json:"facts"`
	Rows      []serve.TruthRow `json:"rows"`
}

type qualityRow struct {
	Source      string  `json:"source"`
	Sensitivity float64 `json:"sensitivity"`
	Specificity float64 `json:"specificity"`
	Precision   float64 `json:"precision"`
	Accuracy    float64 `json:"accuracy"`
}

type qualityResponse struct {
	Seq     int64        `json:"seq"`
	Sources []qualityRow `json:"sources"`
}

func toQualityRows(qs []model.SourceQuality) []qualityRow {
	out := make([]qualityRow, len(qs))
	for i, q := range qs {
		out[i] = qualityRow{q.Source, q.Sensitivity, q.Specificity, q.Precision, q.Accuracy}
	}
	return out
}

// newReferenceServer is the single-primary ground truth the cluster is
// compared against.
func newReferenceServer(t *testing.T, cfg serve.Config) string {
	t.Helper()
	s, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() { hs.Close(); s.Close() })
	return hs.URL
}

// TestClusterEquivalence drives the identical claim stream — same
// batches, same order, same refit cadence — into a single-primary
// reference and a K-partition cluster, for every K × refit policy, then
// asserts the equivalence ladder.
func TestClusterEquivalence(t *testing.T) {
	corpus := clusterCorpus(t)
	batches := chunkRows(positiveClaimRows(corpus.Dataset), 3)
	policies := []serve.RefitPolicy{
		serve.RefitFull, serve.RefitOnline, serve.RefitDirty,
	}
	for _, k := range []int{1, 2, 4} {
		for _, policy := range policies {
			t.Run(fmt.Sprintf("k%d_%s", k, policy), func(t *testing.T) {
				refURL := newReferenceServer(t, clusterServeConfig(policy))
				tc := newTestCluster(t, k, policy, false)
				for _, b := range batches {
					mustIngest(t, refURL, b)
					mustRefit(t, refURL)
					mustIngest(t, tc.router.URL, b)
					mustRefit(t, tc.router.URL)
				}
				assertClusterMatchesReference(t, tc, refURL, k)
			})
		}
	}
}

func assertClusterMatchesReference(t *testing.T, tc *testCluster, refURL string, k int) {
	t.Helper()
	var refTruth, routedTruth truthResponse
	getJSON(t, refURL+"/truth", &refTruth)
	getJSON(t, tc.router.URL+"/truth", &routedTruth)
	var refQual, routedQual qualityResponse
	getJSON(t, refURL+"/quality", &refQual)
	getJSON(t, tc.router.URL+"/quality", &routedQual)
	var refStats, routedStats map[string]any
	getJSON(t, refURL+"/stats", &refStats)
	getJSON(t, tc.router.URL+"/stats", &routedStats)

	if k == 1 {
		// Grade (b): a one-partition cluster is the single primary. The
		// router proxies, so every decoded value — probabilities
		// included, bit for bit after the exact float64 JSON round trip —
		// must match the reference, which ran the same deterministic fit.
		if !reflect.DeepEqual(routedTruth, refTruth) {
			t.Fatalf("k=1 /truth differs from single primary:\nrouted %+v\nref    %+v", routedTruth, refTruth)
		}
		if !reflect.DeepEqual(routedQual, refQual) {
			t.Fatalf("k=1 /quality differs from single primary:\nrouted %+v\nref    %+v", routedQual, refQual)
		}
		for _, f := range []string{"seq", "claims", "entities", "facts", "sources", "positive_claims"} {
			if !reflect.DeepEqual(routedStats[f], refStats[f]) {
				t.Fatalf("k=1 stats %q: routed %v != reference %v", f, routedStats[f], refStats[f])
			}
		}
		return
	}

	// The comparisons below are vacuous for a partition that owns no
	// entities — fail loudly if the corpus ever under-fills the hash.
	for i := 0; i < k; i++ {
		var st map[string]any
		getJSON(t, tc.url(i)+"/stats", &st)
		if n, _ := st["entities"].(float64); n == 0 {
			t.Fatalf("partition %d owns no entities; corpus too small for k=%d", i, k)
		}
	}

	// Grade (a): router losslessness. The routed table must be exactly
	// the (entity, attribute)-sorted concatenation of what the partitions
	// themselves serve — nothing dropped, invented, or perturbed.
	var want []serve.TruthRow
	partMinSeq := int64(math.MaxInt64)
	for i := 0; i < k; i++ {
		var part truthResponse
		getJSON(t, tc.url(i)+"/truth", &part)
		want = append(want, part.Rows...)
		if part.Seq < partMinSeq {
			partMinSeq = part.Seq
		}
		if part.Threshold != refTruth.Threshold {
			t.Fatalf("partition %d threshold %v != reference %v", i, part.Threshold, refTruth.Threshold)
		}
	}
	sort.Slice(want, func(a, b int) bool {
		if want[a].Entity != want[b].Entity {
			return want[a].Entity < want[b].Entity
		}
		return want[a].Attribute < want[b].Attribute
	})
	if !reflect.DeepEqual(routedTruth.Rows, want) {
		t.Fatalf("routed /truth is not the exact merge of the partitions' truths (%d routed rows, %d merged)",
			len(routedTruth.Rows), len(want))
	}
	if routedTruth.Seq != partMinSeq {
		t.Fatalf("routed seq %d != partition floor %d", routedTruth.Seq, partMinSeq)
	}
	if routedTruth.Facts != len(want) {
		t.Fatalf("routed facts %d != merged row count %d", routedTruth.Facts, len(want))
	}

	// Routed /quality must be bit-identical to merging the partitions'
	// published count bases ourselves — the router adds no arithmetic of
	// its own beyond MergeQuality.
	parts := make([]serve.PartitionQuality, k)
	for i := 0; i < k; i++ {
		getJSON(t, tc.url(i)+"/partition/quality", &parts[i])
	}
	merged, err := MergeQuality(parts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(routedQual.Sources, toQualityRows(merged)) {
		t.Fatalf("routed /quality is not MergeQuality over the partitions' bases:\nrouted %+v\nmerged %+v",
			routedQual.Sources, toQualityRows(merged))
	}

	// Grade (c): against the single-primary reference. Fact sets and
	// threshold-side decisions away from the margin must agree exactly;
	// probabilities drift only by independent-chain noise.
	refRows := make(map[string]serve.TruthRow, len(refTruth.Rows))
	for _, r := range refTruth.Rows {
		refRows[r.Entity+"\x00"+r.Attribute] = r
	}
	if len(routedTruth.Rows) != len(refTruth.Rows) {
		t.Fatalf("fact count: cluster %d != single primary %d", len(routedTruth.Rows), len(refTruth.Rows))
	}
	maxDrift := 0.0
	for _, r := range routedTruth.Rows {
		ref, ok := refRows[r.Entity+"\x00"+r.Attribute]
		if !ok {
			t.Fatalf("fact %s/%s not served by the single primary", r.Entity, r.Attribute)
		}
		d := math.Abs(r.Probability - ref.Probability)
		if d > maxDrift {
			maxDrift = d
		}
		if d > probDriftBound {
			t.Errorf("fact %s/%s: probability drift %.4f (cluster %.4f, single %.4f) exceeds bound %.2f",
				r.Entity, r.Attribute, d, r.Probability, ref.Probability, probDriftBound)
		}
		// Within probDriftBound of the threshold a flip is chain noise;
		// beyond it the decision must match.
		if math.Abs(ref.Probability-refTruth.Threshold) > probDriftBound && r.Predicted != ref.Predicted {
			t.Errorf("fact %s/%s: decision %v != single primary's %v at margin %.4f",
				r.Entity, r.Attribute, r.Predicted, ref.Predicted, math.Abs(ref.Probability-refTruth.Threshold))
		}
	}
	t.Logf("k=%d: max /truth probability drift vs single primary: %.4f (bound %.2f)", k, maxDrift, probDriftBound)

	refQ := make(map[string]qualityRow, len(refQual.Sources))
	for _, q := range refQual.Sources {
		refQ[q.Source] = q
	}
	if len(routedQual.Sources) != len(refQual.Sources) {
		t.Fatalf("source count: cluster %d != single primary %d", len(routedQual.Sources), len(refQual.Sources))
	}
	maxQDrift := 0.0
	for _, q := range routedQual.Sources {
		rq, ok := refQ[q.Source]
		if !ok {
			t.Fatalf("source %q not in the single primary's quality table", q.Source)
		}
		for _, d := range []float64{
			q.Sensitivity - rq.Sensitivity, q.Specificity - rq.Specificity,
			q.Precision - rq.Precision, q.Accuracy - rq.Accuracy,
		} {
			if a := math.Abs(d); a > maxQDrift {
				maxQDrift = a
			}
		}
	}
	if maxQDrift > qualityDriftBound {
		t.Errorf("max /quality drift %.4f exceeds bound %.2f", maxQDrift, qualityDriftBound)
	}
	t.Logf("k=%d: max /quality drift vs single primary: %.4f (bound %.2f)", k, maxQDrift, qualityDriftBound)

	// Routed /stats corpus totals are exact: claims decompose
	// claim-by-claim across partitions, entities and facts are
	// partition-disjoint, and sources is the union of per-partition
	// source sets — all equal to the reference's own counters.
	for _, f := range []string{"claims", "positive_claims", "negative_claims", "entities", "facts", "sources"} {
		if !reflect.DeepEqual(routedStats[f], refStats[f]) {
			t.Errorf("stats %q: routed %v != reference %v", f, routedStats[f], refStats[f])
		}
	}
	if got, _ := routedStats["partitions"].(float64); int(got) != k {
		t.Errorf("stats partitions = %v, want %d", routedStats["partitions"], k)
	}
	if routedStats["ready"] != true {
		t.Errorf("cluster not ready after refits: %v", routedStats["ready"])
	}
}

// TestClusterFaultInjection kills one of two durable primaries
// mid-service and asserts the ISSUE's degradation contract: requests
// touching the dead range 503 with the partition id while the surviving
// range keeps ingesting and serving; after a restart the partition
// recovers bit-identically from its own WAL and checkpoints, and the
// cluster is whole again.
func TestClusterFaultInjection(t *testing.T) {
	corpus := clusterCorpus(t)
	rows := positiveClaimRows(corpus.Dataset)
	tc := newTestCluster(t, 2, serve.RefitFull, true)
	mustIngest(t, tc.router.URL, rows)
	mustRefit(t, tc.router.URL)

	// One live entity on each side of the hash split.
	var e0, e1 string
	for _, r := range rows {
		if PartitionOf(r.Entity, 2) == 0 && e0 == "" {
			e0 = r.Entity
		}
		if PartitionOf(r.Entity, 2) == 1 && e1 == "" {
			e1 = r.Entity
		}
	}
	if e0 == "" || e1 == "" {
		t.Fatal("corpus does not populate both partitions")
	}

	// Pre-crash state of partition 1, and of the whole routed table.
	var before truthResponse
	getJSON(t, tc.url(1)+"/truth", &before)
	code, beforeQual := httpGet(t, tc.url(1)+"/partition/quality")
	if code != http.StatusOK {
		t.Fatalf("partition/quality before kill: status %d: %s", code, beforeQual)
	}
	var routedBefore truthResponse
	getJSON(t, tc.router.URL+"/truth", &routedBefore)

	tc.stopPrimary(1)

	// Writes into the dead range fail with the partition id.
	code, body := postClaims(t, tc.router.URL, []model.Row{{Entity: e1, Attribute: "outage-attr", Source: "good"}})
	if code != http.StatusServiceUnavailable {
		t.Fatalf("write to dead range: status %d, want 503: %s", code, body)
	}
	var errBody map[string]any
	if err := json.Unmarshal(body, &errBody); err != nil {
		t.Fatalf("decode 503 body: %v", err)
	}
	if p, _ := errBody["partition"].(float64); int(p) != 1 {
		t.Fatalf("503 must name partition 1: %s", body)
	}

	// The surviving range keeps accepting writes and answering
	// entity-scoped reads.
	if code, body := postClaims(t, tc.router.URL, []model.Row{{Entity: e0, Attribute: "outage-attr", Source: "good"}}); code != http.StatusAccepted {
		t.Fatalf("write to live range during outage: status %d: %s", code, body)
	}
	var aliveTruth truthResponse
	getJSON(t, tc.router.URL+"/truth?entity="+url.QueryEscape(e0), &aliveTruth)
	if len(aliveTruth.Rows) == 0 {
		t.Fatal("live partition served no rows during the outage")
	}

	// Reads needing the dead range — its entities, or any full-table
	// scatter — degrade to 503 with the partition id.
	for _, path := range []string{
		"/truth?entity=" + url.QueryEscape(e1), "/truth", "/quality", "/records", "/stats",
	} {
		code, body := httpGet(t, tc.router.URL+path)
		if code != http.StatusServiceUnavailable {
			t.Fatalf("GET %s during outage: status %d, want 503: %s", path, code, body)
		}
		var eb map[string]any
		if err := json.Unmarshal(body, &eb); err != nil {
			t.Fatalf("GET %s: decode 503 body: %v", path, err)
		}
		if p, _ := eb["partition"].(float64); int(p) != 1 {
			t.Fatalf("GET %s: 503 must name partition 1: %s", path, body)
		}
	}

	// The topology endpoint reports the outage without failing.
	var topo struct {
		Members []struct {
			Partition int  `json:"partition"`
			Up        bool `json:"up"`
		} `json:"members"`
	}
	getJSON(t, tc.router.URL+"/cluster", &topo)
	if len(topo.Members) != 2 || !topo.Members[0].Up || topo.Members[1].Up {
		t.Fatalf("topology should show partition 1 down: %+v", topo.Members)
	}

	// Restart partition 1 on the same address: recovery runs from its
	// own WAL and checkpoints before the listener accepts.
	tc.startPrimary(1)

	var after truthResponse
	getJSON(t, tc.url(1)+"/truth", &after)
	if !reflect.DeepEqual(after, before) {
		t.Fatalf("partition 1 /truth not identical after recovery:\nbefore %+v\nafter  %+v", before, after)
	}
	code, afterQual := httpGet(t, tc.url(1)+"/partition/quality")
	if code != http.StatusOK {
		t.Fatalf("partition/quality after restart: status %d: %s", code, afterQual)
	}
	if !bytes.Equal(afterQual, beforeQual) {
		t.Fatalf("partition 1 quality basis not bit-identical after recovery:\nbefore %s\nafter  %s", beforeQual, afterQual)
	}

	// Whole again: the routed table matches the pre-kill merge exactly
	// (partition 0's outage-time claim is pending, not yet refit).
	var routedAfter truthResponse
	getJSON(t, tc.router.URL+"/truth", &routedAfter)
	if !reflect.DeepEqual(routedAfter, routedBefore) {
		t.Fatal("routed /truth after recovery differs from the pre-kill table")
	}

	// And the claim ingested during the outage converges on the next
	// refit.
	mustRefit(t, tc.router.URL)
	var final truthResponse
	getJSON(t, tc.router.URL+"/truth?entity="+url.QueryEscape(e0)+"&attribute=outage-attr", &final)
	if len(final.Rows) != 1 {
		t.Fatalf("claim ingested during the outage not served after recovery refit: %+v", final.Rows)
	}
}

// routedHealth is the router's /healthz body.
type routedHealth struct {
	Status     string            `json:"status"`
	Ready      bool              `json:"ready"`
	Seq        int64             `json:"seq"`
	Partitions []partitionHealth `json:"partitions"`
}

// TestRouterHealthz: the router's /healthz is always 200, is ready only
// once every partition has published a snapshot, reports the partitions'
// minimum seq, and marks a stopped partition down with its error.
func TestRouterHealthz(t *testing.T) {
	rows := positiveClaimRows(clusterCorpus(t).Dataset)
	tc := newTestCluster(t, 2, serve.RefitFull, false)
	owned := make([][]model.Row, 2)
	for _, r := range rows {
		p := PartitionOf(r.Entity, 2)
		owned[p] = append(owned[p], r)
	}
	if len(owned[0]) == 0 || len(owned[1]) == 0 {
		t.Fatal("corpus does not populate both partitions")
	}
	health := func() routedHealth {
		t.Helper()
		var h routedHealth
		getJSON(t, tc.router.URL+"/healthz", &h)
		if h.Status != "ok" || len(h.Partitions) != 2 {
			t.Fatalf("healthz %+v", h)
		}
		return h
	}

	if h := health(); h.Ready || h.Seq != 0 {
		t.Fatalf("before any refit: %+v, want not ready at seq 0", h)
	}
	// Partition 0 refits twice, partition 1 not yet: not ready, floor 0.
	mustIngest(t, tc.url(0), owned[0])
	mustRefit(t, tc.url(0))
	mustIngest(t, tc.url(0), owned[0][:1])
	mustRefit(t, tc.url(0))
	if h := health(); h.Ready || h.Seq != 0 || h.Partitions[0].Seq != 2 || !h.Partitions[0].Ready {
		t.Fatalf("one partition refitted: %+v, want not ready at seq 0", h)
	}
	// Both refitted: ready, and seq is the minimum of 2 and 1.
	mustIngest(t, tc.url(1), owned[1])
	mustRefit(t, tc.url(1))
	if h := health(); !h.Ready || h.Seq != 1 {
		t.Fatalf("both partitions refitted: %+v, want ready at seq 1", h)
	}

	tc.stopPrimary(1)
	h := health()
	if h.Ready {
		t.Fatalf("stopped partition: %+v, want not ready", h)
	}
	if p := h.Partitions[1]; p.Up || p.Error == "" {
		t.Fatalf("stopped partition reported %+v, want up=false with an error", p)
	}
	if p := h.Partitions[0]; !p.Up || !p.Ready || p.Seq != 2 {
		t.Fatalf("live partition reported %+v", p)
	}
}

// TestRouterScatteredRecords: the full-table /records at K=2 is the
// union of the partitions' record tables with every entity once, sorted
// by entity name; ?limit= cuts the merged table, and count matches.
func TestRouterScatteredRecords(t *testing.T) {
	rows := positiveClaimRows(clusterCorpus(t).Dataset)
	tc := newTestCluster(t, 2, serve.RefitFull, false)
	mustIngest(t, tc.router.URL, rows)
	mustRefit(t, tc.router.URL)

	type recordsResponse struct {
		Records []json.RawMessage `json:"records"`
		Count   int               `json:"count"`
	}
	entities := func(resp recordsResponse) []string {
		t.Helper()
		if resp.Count != len(resp.Records) {
			t.Fatalf("count %d for %d records", resp.Count, len(resp.Records))
		}
		names := make([]string, len(resp.Records))
		for i, raw := range resp.Records {
			names[i] = recordKey(raw)
		}
		return names
	}
	var all recordsResponse
	getJSON(t, tc.router.URL+"/records", &all)
	got := entities(all)

	want := map[string]bool{}
	for _, r := range rows {
		want[r.Entity] = true
	}
	if len(got) != len(want) {
		t.Fatalf("%d records for %d entities", len(got), len(want))
	}
	for i, e := range got {
		if !want[e] {
			t.Fatalf("record %d: entity %q is missing or repeated", i, e)
		}
		delete(want, e)
		if i > 0 && got[i-1] >= e {
			t.Fatalf("records not sorted by entity: %q before %q", got[i-1], e)
		}
	}

	var limited recordsResponse
	getJSON(t, tc.router.URL+"/records?limit=5", &limited)
	if entities(limited); !reflect.DeepEqual(limited.Records, all.Records[:5]) {
		t.Fatalf("limit=5 is not the first 5 of the merged table")
	}
}

// TestRouterScatterParams exercises the query-parameter contract of the
// scatter path on a live 2-partition cluster: topk and limit are global
// (post-merge), filters pass through, cursors are rejected, aggregation
// merges losslessly, and entity scoping proxies the owner verbatim.
func TestRouterScatterParams(t *testing.T) {
	corpus := clusterCorpus(t)
	rows := positiveClaimRows(corpus.Dataset)
	tc := newTestCluster(t, 2, serve.RefitFull, false)
	mustIngest(t, tc.router.URL, rows)
	mustRefit(t, tc.router.URL)

	var baseline truthResponse
	getJSON(t, tc.router.URL+"/truth", &baseline)
	if len(baseline.Rows) < 10 {
		t.Fatalf("corpus too small to exercise query params: %d rows", len(baseline.Rows))
	}

	// topk: globally re-ranked by descending probability, ties by
	// (entity, attribute) — identical to cutting the sorted baseline.
	wantTop := append([]serve.TruthRow(nil), baseline.Rows...)
	sort.SliceStable(wantTop, func(a, b int) bool {
		if wantTop[a].Probability != wantTop[b].Probability {
			return wantTop[a].Probability > wantTop[b].Probability
		}
		if wantTop[a].Entity != wantTop[b].Entity {
			return wantTop[a].Entity < wantTop[b].Entity
		}
		return wantTop[a].Attribute < wantTop[b].Attribute
	})
	var topk truthResponse
	getJSON(t, tc.router.URL+"/truth?topk=5", &topk)
	if !reflect.DeepEqual(topk.Rows, wantTop[:5]) {
		t.Fatalf("topk=5 is not the global top 5:\n got %+v\nwant %+v", topk.Rows, wantTop[:5])
	}

	// limit: the first n of the globally sorted table, not of any
	// partition's local order.
	var limited truthResponse
	getJSON(t, tc.router.URL+"/truth?limit=7", &limited)
	if !reflect.DeepEqual(limited.Rows, baseline.Rows[:7]) {
		t.Fatalf("limit=7 is not the global sorted prefix")
	}

	// min_prob: a pure filter commutes with the partition union.
	var wantFiltered []serve.TruthRow
	for _, r := range baseline.Rows {
		if r.Probability >= 0.8 {
			wantFiltered = append(wantFiltered, r)
		}
	}
	var filtered truthResponse
	getJSON(t, tc.router.URL+"/truth?min_prob=0.8", &filtered)
	if !reflect.DeepEqual(filtered.Rows, wantFiltered) {
		t.Fatalf("min_prob=0.8: got %d rows, want %d", len(filtered.Rows), len(wantFiltered))
	}

	// Cursors are per-partition state and cannot scatter.
	for _, path := range []string{"/truth?cursor=abc", "/records?cursor=abc"} {
		if code, _ := httpGet(t, tc.router.URL+path); code != http.StatusBadRequest {
			t.Fatalf("GET %s: want 400, got %d", path, code)
		}
	}
	// A parameter every partition rejects comes back as the client's 400,
	// not a 503 outage.
	if code, body := httpGet(t, tc.router.URL+"/truth?agg=source&limit=3"); code != http.StatusBadRequest {
		t.Fatalf("agg+limit: want 400 passthrough, got %d: %s", code, body)
	}

	type aggResponse struct {
		Seq    int64 `json:"seq"`
		Groups []struct {
			Key            string  `json:"key"`
			Facts          int     `json:"facts"`
			Predicted      int     `json:"predicted"`
			MeanProb       float64 `json:"mean_prob"`
			MaxProb        float64 `json:"max_prob"`
			PositiveClaims int     `json:"positive_claims"`
			NegativeClaims int     `json:"negative_claims"`
		} `json:"groups"`
	}

	// agg=entity: entities are partition-disjoint, so the routed groups
	// are exactly the key-sorted concatenation of the partitions' groups.
	var routedEnt, p0Ent, p1Ent aggResponse
	getJSON(t, tc.router.URL+"/truth?agg=entity", &routedEnt)
	getJSON(t, tc.url(0)+"/truth?agg=entity", &p0Ent)
	getJSON(t, tc.url(1)+"/truth?agg=entity", &p1Ent)
	wantEnt := append(append([]struct {
		Key            string  `json:"key"`
		Facts          int     `json:"facts"`
		Predicted      int     `json:"predicted"`
		MeanProb       float64 `json:"mean_prob"`
		MaxProb        float64 `json:"max_prob"`
		PositiveClaims int     `json:"positive_claims"`
		NegativeClaims int     `json:"negative_claims"`
	}(nil), p0Ent.Groups...), p1Ent.Groups...)
	sort.Slice(wantEnt, func(a, b int) bool { return wantEnt[a].Key < wantEnt[b].Key })
	if !reflect.DeepEqual(routedEnt.Groups, wantEnt) {
		t.Fatalf("agg=entity is not the concatenation of partition groups (%d routed, %d merged)",
			len(routedEnt.Groups), len(wantEnt))
	}

	// agg=source: sources span partitions; sums add, max_prob maxes, and
	// mean_prob is the facts-weighted mean — recomputed here
	// independently from the partitions' own responses.
	var routedSrc, p0Src, p1Src aggResponse
	getJSON(t, tc.router.URL+"/truth?agg=source", &routedSrc)
	getJSON(t, tc.url(0)+"/truth?agg=source", &p0Src)
	getJSON(t, tc.url(1)+"/truth?agg=source", &p1Src)
	type srcExpect struct {
		facts, predicted, pos, neg int
		probSum, maxProb           float64
	}
	want := make(map[string]*srcExpect)
	for _, part := range []aggResponse{p0Src, p1Src} {
		for _, g := range part.Groups {
			e := want[g.Key]
			if e == nil {
				e = &srcExpect{}
				want[g.Key] = e
			}
			e.facts += g.Facts
			e.predicted += g.Predicted
			e.pos += g.PositiveClaims
			e.neg += g.NegativeClaims
			e.probSum += g.MeanProb * float64(g.Facts)
			if g.MaxProb > e.maxProb {
				e.maxProb = g.MaxProb
			}
		}
	}
	if len(routedSrc.Groups) != len(want) {
		t.Fatalf("agg=source: %d routed groups, want %d", len(routedSrc.Groups), len(want))
	}
	for _, g := range routedSrc.Groups {
		e := want[g.Key]
		if e == nil {
			t.Fatalf("agg=source: unexpected group %q", g.Key)
		}
		if g.Facts != e.facts || g.Predicted != e.predicted ||
			g.PositiveClaims != e.pos || g.NegativeClaims != e.neg || g.MaxProb != e.maxProb {
			t.Fatalf("agg=source %q: routed %+v != independent merge %+v", g.Key, g, *e)
		}
		if math.Abs(g.MeanProb-e.probSum/float64(e.facts)) > 1e-12 {
			t.Fatalf("agg=source %q: mean_prob %.12f != weighted mean %.12f", g.Key, g.MeanProb, e.probSum/float64(e.facts))
		}
	}

	// Entity scoping proxies the owner byte-for-byte.
	entity := baseline.Rows[0].Entity
	owner := PartitionOf(entity, 2)
	_, routedBytes := httpGet(t, tc.router.URL+"/truth?entity="+url.QueryEscape(entity))
	code, ownerBytes := httpGet(t, tc.url(owner)+"/truth?entity="+url.QueryEscape(entity))
	if code != http.StatusOK || !bytes.Equal(routedBytes, ownerBytes) {
		t.Fatalf("entity-scoped /truth is not a verbatim proxy of partition %d", owner)
	}
	if code, _ := httpGet(t, tc.router.URL+"/truth?entity=no-such-entity-anywhere"); code != http.StatusNotFound {
		t.Fatalf("unknown entity should keep the owner's 404, got %d", code)
	}
}

// TestClusterIngestValidation: a malformed batch is rejected whole at the
// router — no partition sees any part of it.
func TestClusterIngestValidation(t *testing.T) {
	tc := newTestCluster(t, 2, serve.RefitFull, false)
	code, body := postClaims(t, tc.router.URL, []model.Row{
		{Entity: "ok", Attribute: "a", Source: "s"},
		{Entity: "", Attribute: "a", Source: "s"},
	})
	if code != http.StatusBadRequest {
		t.Fatalf("malformed batch: status %d, want 400: %s", code, body)
	}
	for i := 0; i < 2; i++ {
		var st map[string]any
		getJSON(t, tc.url(i)+"/stats", &st)
		if p, _ := st["pending"].(float64); p != 0 {
			t.Fatalf("partition %d ingested part of a rejected batch: pending=%v", i, p)
		}
	}
}
