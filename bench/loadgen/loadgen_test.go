package loadgen

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"latenttruth/internal/model"
	"latenttruth/internal/obs"
)

// TestOpenLoopTimesFromDue: a server that stalls one request for 200 ms
// delays every request queued behind it on the connection, and each must
// report its latency from when it was due, not from when the connection
// freed up — otherwise the stall would be hidden (coordinated omission).
func TestOpenLoopTimesFromDue(t *testing.T) {
	const stall = 200 * time.Millisecond
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/stall" {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()

	s := newSession(srv.URL, nil)
	defer s.close()
	calls := []call{{Route: "stall", Method: http.MethodGet, Target: "/stall", Batch: -1}}
	for k := 1; k <= 15; k++ {
		calls = append(calls, call{Route: "fast", Method: http.MethodGet, Target: "/fast",
			Due: time.Duration(k) * 10 * time.Millisecond, Batch: -1})
	}
	res := s.openLoop(calls, nil)
	for k := 1; k < len(res); k++ {
		queued := stall - calls[k].Due // time left of the stall when k was due
		if got := res[k].Done - res[k].Due; got < queued-5*time.Millisecond {
			t.Errorf("request due at %v: latency %v, want at least %v (the stall it waited out)",
				calls[k].Due, got, queued)
		}
		// A generator that waited for replies would hand k over only when
		// the stall ended, queued late by the whole remaining stall.
		if res[k].Late > queued/2 {
			t.Errorf("request due at %v handed over %v late; the generator must not wait for replies", calls[k].Due, res[k].Late)
		}
	}
	if f := s.failed.Load(); f != 0 {
		t.Fatalf("%d requests failed", f)
	}
}

func TestPercentileRule(t *testing.T) {
	ramp := func(n int) dist {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return newDist(xs)
	}
	d := ramp(100)
	if d.quantile(0.5) != 50 || d.quantile(0.9) != 90 || d.quantile(1) != 100 {
		t.Fatalf("nearest-rank p50/p90/max = %v/%v/%v, want 50/90/100", d.quantile(0.5), d.quantile(0.9), d.quantile(1))
	}
	// The highest percentile reported is the highest one with at least ten
	// samples beyond it.
	for _, tc := range []struct {
		n     int
		tails []string
	}{{100, nil}, {999, nil}, {1000, []string{"p99"}}, {9999, []string{"p99"}}, {10000, []string{"p99", "p999"}}} {
		var got []string
		for _, v := range ramp(tc.n).tails() {
			got = append(got, v.Name)
		}
		if !reflect.DeepEqual(got, tc.tails) {
			t.Errorf("n=%d: tails %v, want %v", tc.n, got, tc.tails)
		}
	}

	var r Result
	d = ramp(1000)
	r.addPercentiles("read", "_ms", d, d.quantile(0.5), d.quantile(0.9))
	want := map[string]float64{"read_p50_ms": 500, "read_p90_ms": 900, "read_p99_ms": 990}
	if len(r.Values) != len(want) {
		t.Fatalf("values %+v, want %v", r.Values, want)
	}
	for _, v := range r.Values {
		if v.Value != want[v.Name] || v.N != 1000 || v.Unit != "ms" {
			t.Errorf("%+v, want value %v, n=1000, unit ms", v, want[v.Name])
		}
	}

	// Quartiles and medians are Python's statistics.quantiles(n=4) and
	// statistics.median, which the run-to-run spread is judged by.
	for _, tc := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3.1, 0.5, 2.2}, 0.5, 2.2, 3.1},
		{[]float64{5, 1}, 0, 3, 6},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 || median(tc.xs) != tc.m {
			t.Errorf("%v: q1=%v median=%v q3=%v, want %v %v %v", tc.xs, q1, median(tc.xs), q3, tc.q1, tc.m, tc.q3)
		}
	}
}

func TestCorpusSplit(t *testing.T) {
	a, err := NewCorpus(7, 20_000, 3_000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewCorpus(7, 20_000, 3_000)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Preload, b.Preload) || !reflect.DeepEqual(a.Batches, b.Batches) || !reflect.DeepEqual(a.Probes, b.Probes) {
		t.Fatal("same seed split the corpus differently")
	}
	// preload ∪ stream is exactly the corpus's positive rows, each once.
	seen := make(map[model.Row]int)
	for _, r := range a.Preload {
		seen[r]++
	}
	stream := 0
	for _, b := range a.Batches {
		stream += len(b)
		for _, r := range b {
			seen[r]++
		}
	}
	if stream < 3_000 {
		t.Fatalf("stream has %d rows, want at least 3000", stream)
	}
	ds := a.DS
	if len(seen) != ds.NumPositiveClaims() {
		t.Fatalf("split holds %d distinct rows, corpus has %d positive claims", len(seen), ds.NumPositiveClaims())
	}
	for _, c := range ds.Claims {
		f := ds.Facts[c.Fact]
		r := model.Row{Entity: ds.Entities[f.Entity], Attribute: f.Attribute, Source: ds.Sources[c.Source]}
		if c.Observation && seen[r] != 1 {
			t.Fatalf("row %v appears %d times in the split", r, seen[r])
		}
	}

	// Every probe is the first row of its fact: the fact has no preload row
	// and no earlier stream row.
	type fact struct{ e, a string }
	known := make(map[fact]bool)
	for _, r := range a.Preload {
		known[fact{r.Entity, r.Attribute}] = true
	}
	probes := 0
	for i, batch := range a.Batches {
		for j := range batch {
			r := &batch[j]
			k := fact{r.Entity, r.Attribute}
			if a.Probes[i] == r {
				probes++
				if known[k] {
					t.Fatalf("batch %d probe %v is not the first row of its fact", i, *r)
				}
			}
			known[k] = true
		}
		if a.Probes[i] == nil && i < len(a.Batches)-1 {
			t.Fatalf("batch %d has no probe", i)
		}
	}
	if probes < len(a.Batches)-1 {
		t.Fatalf("%d probes over %d batches", probes, len(a.Batches))
	}
}

// TestRegistryDeltas: per-layer deltas are read through the Prometheus
// exposition GET /metrics serves, parsed by obs.ParseExposition.
func TestRegistryDeltas(t *testing.T) {
	reg := obs.NewRegistry()
	phase := reg.HistogramVec("refit_phase_seconds", "", nil, "phase")
	refits := reg.CounterVec("refit_total", "", "mode")
	phase.With("fit").Observe(1)
	refits.With("full").Inc()

	metrics := func() map[string]float64 {
		rec := httptest.NewRecorder()
		obs.MetricsHandler(reg)(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		m, err := parseScrape(rec.Body)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	before := metrics()
	phase.With("fit").Observe(0.25)
	phase.With("fit").Observe(0.75)
	refits.With("dirty").Add(2)
	d := deltas{before, metrics()}
	if got := d.meanOf("refit_phase_seconds", "{phase=fit}", 1e3); got != 500 {
		t.Errorf("fit mean over the delta = %v ms, want 500", got)
	}
	if got := d.sum("refit_total{"); got != 2 {
		t.Errorf("refits over the delta = %v, want 2", got)
	}
	direct, err := scrape(reg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct, d.after) {
		t.Errorf("registry scrape %v differs from GET /metrics %v", direct, d.after)
	}
}

// editFirstPost wraps a handler so the first POST /claims it serves has
// its claim list rewritten by edit.
func editFirstPost(t *testing.T, edit func([]map[string]string) []map[string]string) func(http.Handler) http.Handler {
	var once sync.Once
	return func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost && r.URL.Path == "/claims" {
				once.Do(func() {
					var body struct {
						Claims []map[string]string `json:"claims"`
					}
					raw, err := io.ReadAll(r.Body)
					if err == nil {
						err = json.Unmarshal(raw, &body)
					}
					if err != nil {
						t.Error(err)
						return
					}
					body.Claims = edit(body.Claims)
					raw, _ = json.Marshal(body)
					r.Body, r.ContentLength = io.NopCloser(bytes.NewReader(raw)), int64(len(raw))
				})
			}
			h.ServeHTTP(w, r)
		})
	}
}

// TestGateCatchesLoss: a server that acknowledges a batch but drops one of
// its rows, or drops a probe's fact, fails the named correctness checks.
func TestGateCatchesLoss(t *testing.T) {
	o := toyOptions(t, WriteDirty)
	o.Seconds = 1
	c, err := NewCorpus(o.Seed, o.PreloadClaims, specs[WriteDirty].streamRows(o.Seconds))
	if err != nil {
		t.Fatal(err)
	}
	probe := c.Probes[0] // the first write of the window carries batch 0
	for _, tc := range []struct {
		name  string
		edit  func([]map[string]string) []map[string]string
		check string
	}{
		{"drop one acked row", func(cs []map[string]string) []map[string]string { return cs[:len(cs)-1] }, "ingested_total"},
		{"drop a probe", func(cs []map[string]string) []map[string]string {
			var kept []map[string]string
			for _, c := range cs {
				if c["entity"] != probe.Entity || c["attribute"] != probe.Attribute {
					kept = append(kept, c)
				}
			}
			return kept
		}, "probes"},
	} {
		o.wrap = editFirstPost(t, tc.edit)
		res, err := Traced(o, nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		found := false
		for _, c := range res.Checks {
			found = found || strings.HasPrefix(c, tc.check+":")
		}
		if res.Correct || !found {
			t.Errorf("%s: failed checks %q, want %q among them", tc.name, res.Checks, tc.check)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	run := func(workload string, vals map[string]float64) *Result {
		r := &Result{Workload: workload, Valid: true}
		for name, v := range vals {
			r.add(name, v, 1)
		}
		return r
	}
	var a, b []*Result
	for i := range 10 {
		x := float64(i % 3) // steady: ±1% around 100
		a = append(a, run("w", map[string]float64{
			"latency_p50_ms": 100 + x, "latency_p90_ms": 100 + x, "setup_s": 100 + x,
			"server_rss_mb": 100 + 40*x, "accuracy": 0.9}))
		b = append(b, run("w", map[string]float64{
			"latency_p50_ms": 100 + x, // unchanged
			"latency_p90_ms": 150 + x, // 50% worse
			"setup_s":        50 + x,  // better in every pair
			"server_rss_mb":  100 + x, // baseline spread exceeds the bound
			"accuracy":       0.9}))
	}
	want := map[string]string{
		"latency_p50_ms": verdictWithin, "latency_p90_ms": verdictRegression,
		"setup_s": verdictGain, "server_rss_mb": verdictUnresolved, "accuracy": verdictWithin,
	}
	for _, r := range CompareRows(a, b) {
		if r.Verdict != want[r.Metric] {
			t.Errorf("%s: verdict %q (change %+.2f, spread %.2f, wins %d/%d), want %q",
				r.Metric, r.Verdict, r.Change, r.Spread, r.Wins, r.Pairs, want[r.Metric])
		}
	}
	if err := Compare(io.Discard, a, b); err == nil || !strings.Contains(err.Error(), "latency_p90_ms") {
		t.Errorf("Compare error %v, want the regression named", err)
	}
}

// TestBenchmarkJSON keeps the repository's BENCHMARK.json in step with
// the metric and workload tables the benchmark reports from.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []Metric                     `json:"end_to_end"`
		PerLayer  []Metric                     `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, Workloads) {
		t.Errorf("BENCHMARK.json workloads %v, want %v", names, Workloads)
	}
	if !reflect.DeepEqual(bj.EndToEnd, EndToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %+v, want %+v", bj.EndToEnd, EndToEnd)
	}
	if !reflect.DeepEqual(bj.PerLayer, PerLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from the PerLayer table")
	}
}
