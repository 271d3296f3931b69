package obs

import (
	"bytes"
	"encoding/json"
	"log"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// --- histogram bucket + quantile math ---

func TestHistogramBucketAssignment(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 4, 100} {
		h.Observe(v)
	}
	// Buckets are ≤-inclusive: 0.5,1 → le=1; 1.5,2 → le=2; 3,4 → le=4; 100 → +Inf.
	cum, count, sum := h.Snapshot()
	if want := []uint64{2, 4, 6, 7}; len(cum) != 4 || cum[0] != want[0] || cum[1] != want[1] || cum[2] != want[2] || cum[3] != want[3] {
		t.Fatalf("cumulative = %v, want %v", cum, want)
	}
	if count != 7 {
		t.Fatalf("count = %d, want 7", count)
	}
	if want := 0.5 + 1 + 1.5 + 2 + 3 + 4 + 100; math.Abs(sum-want) > 1e-9 {
		t.Fatalf("sum = %v, want %v", sum, want)
	}
}

func TestHistogramQuantileInterpolation(t *testing.T) {
	h := newHistogram([]float64{10, 20, 40})
	// 10 observations in (0,10], 10 in (10,20].
	for i := 0; i < 10; i++ {
		h.Observe(5)
		h.Observe(15)
	}
	cases := []struct{ q, want float64 }{
		{0.5, 10},  // rank 10 = exactly the last of bucket one → its upper bound
		{0.25, 5},  // rank 5 of 10 inside (0,10] → 0 + 10*(5/10)
		{0.75, 15}, // rank 15: 5 into bucket two of 10 → 10 + 10*(5/10)
		{1.0, 20},  // rank 20 = top of bucket two
		{0.05, 1},  // rank 1 of 10 in the first bucket → 10*(1/10)
	}
	for _, c := range cases {
		if got := h.Quantile(c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestHistogramQuantileEdges(t *testing.T) {
	h := newHistogram([]float64{1, 2})
	if got := h.Quantile(0.99); got != 0 {
		t.Fatalf("empty histogram quantile = %v, want 0", got)
	}
	h.Observe(100) // lands in +Inf bucket
	if got := h.Quantile(0.99); got != 2 {
		t.Fatalf("+Inf-bucket quantile = %v, want largest finite bound 2", got)
	}
}

// TestHistogramConcurrentObservationsNeverLost is the -race property
// test: every observation from every writer is visible in the bucket
// counts and the sum once the writers join.
func TestHistogramConcurrentObservationsNeverLost(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("t_seconds", "test", []float64{0.001, 0.01, 0.1, 1})
	c := r.Counter("t_total", "test")
	const writers, per = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(i%4) * 0.004)
				c.Inc()
			}
		}(w)
	}
	wg.Wait()
	if got := h.Count(); got != writers*per {
		t.Fatalf("histogram count = %d, want %d (observations lost)", got, writers*per)
	}
	wantSum := float64(writers) * per / 4 * (0 + 0.004 + 0.008 + 0.012)
	if got := h.Sum(); math.Abs(got-wantSum) > 1e-6 {
		t.Fatalf("histogram sum = %v, want %v", got, wantSum)
	}
	if got := c.Value(); got != writers*per {
		t.Fatalf("counter = %d, want %d", got, writers*per)
	}
	// The exposed _count equals the +Inf bucket by construction.
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "t_seconds_count 40000") {
		t.Fatalf("exposition missing exact count:\n%s", buf.String())
	}
}

// --- exposition format ---

func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("requests_total", "Requests served.").Add(3)
	v := r.CounterVec("errors_total", "Errors by route.", "route")
	v.With("/truth").Add(2)
	v.With("/qual\"ity\n").Inc()
	r.Gauge("in_flight", "In-flight requests.", GaugeSum).Set(1.5)
	r.GaugeFunc("uptime_seconds", "Uptime.", GaugeMin, func() float64 { return 42 })
	r.CounterFunc("lifetime_total", "Lifetime.", func() float64 { return 9 })
	h := r.Histogram("latency_seconds", "Latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# HELP errors_total Errors by route.
# TYPE errors_total counter
errors_total{route="/qual\"ity\n"} 1
errors_total{route="/truth"} 2
# HELP in_flight In-flight requests.
# TYPE in_flight gauge
# MERGE in_flight sum
in_flight 1.5
# HELP latency_seconds Latency.
# TYPE latency_seconds histogram
latency_seconds_bucket{le="0.1"} 1
latency_seconds_bucket{le="1"} 2
latency_seconds_bucket{le="+Inf"} 3
latency_seconds_sum 5.55
latency_seconds_count 3
# HELP lifetime_total Lifetime.
# TYPE lifetime_total counter
lifetime_total 9
# HELP requests_total Requests served.
# TYPE requests_total counter
requests_total 3
# HELP uptime_seconds Uptime.
# TYPE uptime_seconds gauge
# MERGE uptime_seconds min
uptime_seconds 42
`
	if got := buf.String(); got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestParseRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "A.").Add(7)
	r.GaugeVec("lag", "Lag.", GaugeMax, "follower").With("f 1").Set(12)
	r.Histogram("h_seconds", "H.", []float64{0.5}).Observe(0.25)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := ParseExposition(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]*ParsedFamily{}
	for _, f := range fams {
		byName[f.Name] = f
	}
	if f := byName["a_total"]; f == nil || f.Kind != KindCounter || len(f.Samples) != 1 || f.Samples[0].Value != 7 {
		t.Fatalf("a_total parsed wrong: %+v", byName["a_total"])
	}
	lag := byName["lag"]
	if lag == nil || lag.Kind != KindGauge || lag.Rule != GaugeMax || len(lag.Samples) != 1 {
		t.Fatalf("lag parsed wrong: %+v", lag)
	}
	if ls := lag.Samples[0].Labels; len(ls) != 1 || ls[0] != (Label{"follower", "f 1"}) {
		t.Fatalf("lag labels = %+v", lag.Samples[0].Labels)
	}
	h := byName["h_seconds"]
	if h == nil || h.Kind != KindHistogram || len(h.Samples) != 4 {
		t.Fatalf("h_seconds parsed wrong: %+v", h)
	}
	suffixes := map[string]int{}
	for _, s := range h.Samples {
		suffixes[s.Suffix]++
	}
	if suffixes["_bucket"] != 2 || suffixes["_sum"] != 1 || suffixes["_count"] != 1 {
		t.Fatalf("h_seconds suffixes = %v", suffixes)
	}
}

// --- merge rules ---

func expose(build func(r *Registry)) []byte {
	r := NewRegistry()
	build(r)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func TestMergeCountersAndHistogramsSum(t *testing.T) {
	a := expose(func(r *Registry) {
		r.Counter("req_total", "R.").Add(3)
		h := r.Histogram("lat_seconds", "L.", []float64{0.1, 1})
		h.Observe(0.05)
		h.Observe(0.5)
	})
	b := expose(func(r *Registry) {
		r.Counter("req_total", "R.").Add(4)
		h := r.Histogram("lat_seconds", "L.", []float64{0.1, 1})
		h.Observe(2)
	})
	out, err := Merge([][]byte{a, b})
	if err != nil {
		t.Fatal(err)
	}
	text := string(out)
	for _, want := range []string{
		"req_total 7",
		`lat_seconds_bucket{le="0.1"} 1`,
		`lat_seconds_bucket{le="1"} 2`,
		`lat_seconds_bucket{le="+Inf"} 3`,
		"lat_seconds_count 3",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("merged output missing %q:\n%s", want, text)
		}
	}
	if !strings.Contains(text, "lat_seconds_sum 2.55") {
		t.Errorf("merged sum wrong:\n%s", text)
	}
}

func TestMergeGaugeRules(t *testing.T) {
	a := expose(func(r *Registry) {
		r.Gauge("in_flight", "I.", GaugeSum).Set(2)
		r.Gauge("uptime_seconds", "U.", GaugeMin).Set(100)
		r.Gauge("lag", "L.", GaugeMax).Set(5)
	})
	b := expose(func(r *Registry) {
		r.Gauge("in_flight", "I.", GaugeSum).Set(3)
		r.Gauge("uptime_seconds", "U.", GaugeMin).Set(40)
		r.Gauge("lag", "L.", GaugeMax).Set(9)
	})
	out, err := Merge([][]byte{a, b})
	if err != nil {
		t.Fatal(err)
	}
	text := string(out)
	for _, want := range []string{"in_flight 5", "uptime_seconds 40", "lag 9", "# MERGE lag max"} {
		if !strings.Contains(text, want) {
			t.Errorf("merged output missing %q:\n%s", want, text)
		}
	}
}

// A gauge whose exposition carries no # MERGE line cannot be merged, and
// neither can one whose partitions disagree on its rule; both errors name
// the family.
func TestMergeUnknownGaugeErrors(t *testing.T) {
	a := []byte("# HELP mystery M.\n# TYPE mystery gauge\nmystery 1\n")
	_, err := Merge([][]byte{a})
	if err == nil || !strings.Contains(err.Error(), "mystery") {
		t.Fatalf("want loud no-rule error naming the family, got %v", err)
	}
	b := expose(func(r *Registry) { r.Gauge("mystery", "M.", GaugeSum).Set(1) })
	c := expose(func(r *Registry) { r.Gauge("mystery", "M.", GaugeMax).Set(1) })
	_, err = Merge([][]byte{b, c})
	if err == nil || !strings.Contains(err.Error(), "mystery") {
		t.Fatalf("want loud rule-conflict error naming the family, got %v", err)
	}
}

// Registering a gauge with an empty or unknown rule is a wiring bug.
func TestGaugeRequiresValidRule(t *testing.T) {
	for _, rule := range []GaugeRule{"", "avg"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Gauge with rule %q did not panic", rule)
				}
			}()
			NewRegistry().Gauge("g", "G.", rule)
		}()
	}
}

// TestParseRejectsMalformedPreambles: a family needs a TYPE line (a lone
// HELP used to parse into a kindless family whose merge output did not
// reparse), at most one, and a MERGE line only directly under a gauge's
// preamble with a known rule.
func TestParseRejectsMalformedPreambles(t *testing.T) {
	for name, text := range map[string]string{
		"help without type":   "# HELP 0",
		"sample without type": "# HELP x X.\nx 1\n",
		"second type":         "# TYPE x counter\n# TYPE x gauge\n",
		"merge on counter":    "# TYPE x counter\n# MERGE x sum\n",
		"merge after sample":  "# TYPE x gauge\nx 1\n# MERGE x sum\n",
		"merge for other":     "# TYPE x gauge\n# MERGE y sum\n",
		"unknown rule":        "# TYPE x gauge\n# MERGE x avg\n",
		"second merge":        "# TYPE x gauge\n# MERGE x sum\n# MERGE x sum\n",
	} {
		if _, err := ParseExposition(strings.NewReader(text)); err == nil {
			t.Errorf("%s: %q parsed without error", name, text)
		}
	}
	if _, err := ParseExposition(strings.NewReader("# HELP 0")); err == nil || !strings.Contains(err.Error(), "0") {
		t.Errorf("a lone HELP must fail naming its family, got %v", err)
	}
}

func TestMergeUnionRebucketLowerBound(t *testing.T) {
	// Source A has bounds {1, 4}; source B has {2, 4}. At the union
	// bound 2, A contributes its count at its next-lower bound 1.
	a := expose(func(r *Registry) {
		h := r.Histogram("m_seconds", "M.", []float64{1, 4})
		h.Observe(0.5) // ≤1
		h.Observe(3)   // ≤4
	})
	b := expose(func(r *Registry) {
		h := r.Histogram("m_seconds", "M.", []float64{2, 4})
		h.Observe(1.5) // ≤2
	})
	out, err := Merge([][]byte{a, b})
	if err != nil {
		t.Fatal(err)
	}
	text := string(out)
	for _, want := range []string{
		`m_seconds_bucket{le="1"} 1`, // A's 1 + B's step at 1 (0)
		`m_seconds_bucket{le="2"} 2`, // A's step at 2 (count@1 = 1) + B's 1
		`m_seconds_bucket{le="4"} 3`,
		`m_seconds_bucket{le="+Inf"} 3`,
		"m_seconds_count 3",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("merged output missing %q:\n%s", want, text)
		}
	}
}

func TestMergeKindConflictErrors(t *testing.T) {
	a := expose(func(r *Registry) { r.Counter("x", "X.").Inc() })
	b := expose(func(r *Registry) { r.Gauge("x", "X.", GaugeSum).Set(1) })
	if _, err := Merge([][]byte{a, b}); err == nil {
		t.Fatal("want kind-conflict error, got nil")
	}
}

// Merged output is itself parseable — the router can sit behind another
// router.
func TestMergeOutputReparses(t *testing.T) {
	a := expose(func(r *Registry) {
		r.Counter("c_total", "C.").Inc()
		r.Histogram("h_seconds", "H.", []float64{1}).Observe(0.5)
		r.Gauge("g", "G.", GaugeMax).Set(2)
	})
	out, err := Merge([][]byte{a, a})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseExposition(bytes.NewReader(out)); err != nil {
		t.Fatalf("merged output does not reparse: %v", err)
	}
}

// --- logger ---

func TestLoggerLevelGating(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(log.New(&buf, "", 0), LevelWarn)
	l.Debugf("d")
	l.Infof("i")
	l.Warnf("w %d", 1)
	l.Errorf("e")
	if got := buf.String(); got != "w 1\ne\n" {
		t.Fatalf("gated output = %q", got)
	}
	l.SetLevel(LevelDebug)
	buf.Reset()
	l.Debugf("d2")
	if got := buf.String(); got != "d2\n" {
		t.Fatalf("after SetLevel: %q", got)
	}
}

func TestLoggerNilSafe(t *testing.T) {
	var l *Logger
	l.Infof("dropped")
	l.Event(LevelError, "x", "k", "v")
	if l.Enabled(LevelError) {
		t.Fatal("nil logger claims enabled")
	}
	if NewLogger(nil, LevelInfo) != nil {
		t.Fatal("NewLogger(nil) should be nil")
	}
}

func TestLoggerEventKeyValue(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(log.New(&buf, "", 0), LevelInfo)
	l.Event(LevelInfo, "refit", "policy", "dirty", "dirty", 12, "msg", "two words")
	want := `event=refit level=info policy=dirty dirty=12 msg="two words"` + "\n"
	if got := buf.String(); got != want {
		t.Fatalf("event output = %q, want %q", got, want)
	}
}

func TestParseLevel(t *testing.T) {
	for s, want := range map[string]Level{"debug": LevelDebug, "info": LevelInfo, "warn": LevelWarn, "error": LevelError} {
		got, err := ParseLevel(s)
		if err != nil || got != want {
			t.Fatalf("ParseLevel(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Fatal("want error for unknown level")
	}
}

// --- spans ---

func TestSpanEmitsJSONEvent(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(log.New(&buf, "", 0), LevelInfo)
	sp := StartSpan(l, "refit", "drain")
	time.Sleep(time.Millisecond)
	sp.Phase("fit")
	sp.SetAttr("policy", "dirty").SetAttr("dirty", 3)
	sp.Phase("publish")
	total := sp.End()
	if total <= 0 {
		t.Fatal("total duration not positive")
	}
	line := strings.TrimSpace(buf.String())
	var ev struct {
		Span    string             `json:"span"`
		ID      string             `json:"id"`
		TotalMs float64            `json:"total_ms"`
		Phases  map[string]float64 `json:"phases"`
		Policy  string             `json:"policy"`
		Dirty   int                `json:"dirty"`
	}
	if err := json.Unmarshal([]byte(line), &ev); err != nil {
		t.Fatalf("span event is not one JSON line: %v\n%s", err, line)
	}
	if ev.Span != "refit" || len(ev.ID) != 16 || ev.Policy != "dirty" || ev.Dirty != 3 {
		t.Fatalf("span event fields wrong: %+v", ev)
	}
	for _, ph := range []string{"drain", "fit", "publish"} {
		if _, ok := ev.Phases[ph]; !ok {
			t.Fatalf("span event missing phase %s: %+v", ph, ev)
		}
	}
	if ev.Phases["drain"] < 0.5 {
		t.Fatalf("drain phase should have ≥1ms, got %v", ev.Phases["drain"])
	}
	if ev.TotalMs < ev.Phases["drain"] {
		t.Fatalf("total %v < drain %v", ev.TotalMs, ev.Phases["drain"])
	}
}

func TestSpanNilLoggerStillTimes(t *testing.T) {
	sp := StartSpan(nil, "x", "p")
	sp.Phase("q")
	if sp.End() < 0 {
		t.Fatal("negative duration")
	}
	if d := sp.PhaseDurations(); len(d) != 2 {
		t.Fatalf("phases = %v", d)
	}
}
