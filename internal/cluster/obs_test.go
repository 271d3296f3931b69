package cluster

// Observability coverage for the cluster layer: the router's merged GET
// /metrics is exercised on the in-process cluster harness — valid
// exposition, counters summed, gauges merged by rule, router families
// appended.

import (
	"bytes"
	"math"
	"net/http"
	"testing"

	"latenttruth/internal/obs"
	"latenttruth/internal/serve"
)

// scrapeProm fetches and parses url's Prometheus exposition.
func scrapeProm(t *testing.T, url string) []*obs.ParsedFamily {
	t.Helper()
	code, body := httpGet(t, url)
	if code != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, code, body)
	}
	fams, err := obs.ParseExposition(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("GET %s: exposition does not parse: %v", url, err)
	}
	return fams
}

// promFamily finds a family by name, or nil.
func promFamily(fams []*obs.ParsedFamily, name string) *obs.ParsedFamily {
	for _, f := range fams {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// famSum adds every plain sample of a counter or gauge family.
func famSum(f *obs.ParsedFamily) float64 {
	var sum float64
	for _, s := range f.Samples {
		if s.Suffix == "" {
			sum += s.Value
		}
	}
	return sum
}

// TestClusterMetricsMergedExposition drives ingest and refits through the
// router of a durable 2-partition cluster, then asserts the router's GET
// /metrics: a parseable exposition whose counters are the sum of the
// partitions', whose gauges follow their rules, whose histograms keep
// the count == +Inf-bucket invariant, with the router's own families
// appended.
func TestClusterMetricsMergedExposition(t *testing.T) {
	const k = 2
	corpus := clusterCorpus(t)
	batches := chunkRows(positiveClaimRows(corpus.Dataset), 2)
	tc := newTestCluster(t, k, serve.RefitFull, true)
	for _, b := range batches {
		mustIngest(t, tc.router.URL, b)
		mustRefit(t, tc.router.URL)
	}

	// Direct partition scrapes first: monotone counters make them lower
	// bounds for the merged scrape taken afterwards, and gauges that only
	// move on refit (seq, dirty set) are exact.
	var partRequests float64
	minSeq := math.Inf(1)
	for i := 0; i < k; i++ {
		fams := scrapeProm(t, tc.url(i)+"/metrics")
		reqs := promFamily(fams, "http_requests_total")
		if reqs == nil {
			t.Fatalf("partition %d exposes no http_requests_total", i)
		}
		partRequests += famSum(reqs)
		seq := promFamily(fams, "snapshot_seq")
		if seq == nil || len(seq.Samples) != 1 {
			t.Fatalf("partition %d snapshot_seq missing or multi-sample: %+v", i, seq)
		}
		minSeq = math.Min(minSeq, seq.Samples[0].Value)
	}

	resp, err := http.Get(tc.router.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("router /metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("router /metrics Content-Type %q", ct)
	}
	merged, err := obs.ParseExposition(resp.Body)
	if err != nil {
		t.Fatalf("merged exposition does not parse: %v", err)
	}

	// Counters sum across partitions. refit_total is exact: every routed
	// /refit fans out to all k partitions, and nothing else refits.
	refits := promFamily(merged, "refit_total")
	if refits == nil {
		t.Fatal("merged exposition has no refit_total")
	}
	if got, want := famSum(refits), float64(k*len(batches)); got != want {
		t.Errorf("merged refit_total = %v, want %v (k=%d partitions x %d routed refits)", got, want, k, len(batches))
	}
	// http_requests_total only grows, so the merged sum must dominate the
	// earlier direct scrapes' total.
	reqs := promFamily(merged, "http_requests_total")
	if reqs == nil {
		t.Fatal("merged exposition has no http_requests_total")
	}
	if got := famSum(reqs); got < partRequests {
		t.Errorf("merged http_requests_total = %v < %v summed from direct partition scrapes", got, partRequests)
	}

	// Gauge rules: snapshot_seq is a GaugeMin (the refit round every
	// partition has reached) and build_info a GaugeSum whose constant-1
	// children count members per (version, commit) — one build here.
	seq := promFamily(merged, "snapshot_seq")
	if seq == nil || len(seq.Samples) != 1 {
		t.Fatalf("merged snapshot_seq missing or multi-sample: %+v", seq)
	}
	if seq.Samples[0].Value != minSeq {
		t.Errorf("merged snapshot_seq = %v, want partition minimum %v", seq.Samples[0].Value, minSeq)
	}
	build := promFamily(merged, "build_info")
	if build == nil || len(build.Samples) != 1 {
		t.Fatalf("merged build_info missing or split across builds: %+v", build)
	}
	if build.Samples[0].Value != float64(k) {
		t.Errorf("merged build_info = %v, want %d (one member per partition, same build)", build.Samples[0].Value, k)
	}

	// Histogram invariant survives the union re-bucketing: per labelset,
	// _count equals the +Inf bucket.
	hist := promFamily(merged, "http_request_seconds")
	if hist == nil || hist.Kind != obs.KindHistogram {
		t.Fatal("merged exposition has no http_request_seconds histogram")
	}
	counts := make(map[string]float64)
	infs := make(map[string]float64)
	for _, s := range hist.Samples {
		key := ""
		for _, l := range s.Labels {
			if l.Name != "le" {
				key += l.Name + "=" + l.Value + ","
			}
		}
		switch {
		case s.Suffix == "_count":
			counts[key] = s.Value
		case s.Suffix == "_bucket" && hasLabel(s.Labels, "le", "+Inf"):
			infs[key] = s.Value
		}
	}
	if len(counts) == 0 {
		t.Fatal("merged http_request_seconds has no _count samples")
	}
	for key, c := range counts {
		if infs[key] != c {
			t.Errorf("series {%s}: _count %v != +Inf bucket %v", key, c, infs[key])
		}
	}

	// The router's own families ride behind the merge: the fan-out legs
	// of this very scrape are observed before the registry is written.
	fanout := promFamily(merged, "cluster_fanout_seconds")
	if fanout == nil || len(fanout.Samples) == 0 {
		t.Fatal("router appended no cluster_fanout_seconds samples")
	}
	if promFamily(merged, "router_http_requests_total") == nil {
		t.Fatal("router appended no router_http_requests_total family")
	}
}

func hasLabel(labels []obs.Label, name, value string) bool {
	for _, l := range labels {
		if l.Name == name && l.Value == value {
			return true
		}
	}
	return false
}
