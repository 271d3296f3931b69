package loadgen

// Metric describes one reported number: its unit, which direction is
// better, and — for gated metrics — the share of the baseline median by
// which it may worsen before a change counts as a regression.
type Metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// EndToEnd are the metrics every workload's untraced run reports, as
// BENCHMARK.json lists them. latency_* is the workload's user-facing
// latency: entity lookups on read_snapshot and mixed_segments, write
// freshness on write_dirty, the full-refit round trip on refit_full.
var EndToEnd = []Metric{
	{"setup_s", "s", lower, 0.25},
	{"latency_p50_ms", "ms", lower, 0.25},
	{"latency_p90_ms", "ms", lower, 0.25},
	{"accuracy", "ratio", higher, 0.01},
	{"server_rss_mb", "MB", lower, 0.1},
}

// Named are the per-workload metrics the untraced run prints and the
// comparator gates; a workload reports those its traffic defines. The
// bounds sit above the spreads measured between runs of one commit (see
// bench/README.md); a metric whose spread is wider compares as
// unresolved.
var Named = []Metric{
	{"ingest_p50_ms", "ms", lower, 0.25},
	{"ingest_p90_ms", "ms", lower, 0.25},
	{"freshness_p50_ms", "ms", lower, 0.25},
	{"freshness_p90_ms", "ms", lower, 0.25},
	{"read_p50_ms", "ms", lower, 0.25},
	{"read_p90_ms", "ms", lower, 0.25},
	// A one-step drop halves the rate, so any drop trips this bound.
	{"sustained_claims_per_s", "claims/s", higher, 0.25},
	{"full_refit_s", "s", lower, 0.15},
	{"server_cpu_s", "s", lower, 0.15},
	{"error_ratio", "ratio", lower, 0},
}

// httpRoutes are the routes the traced run reports handler and transport
// time for. Every traced run reaches each of them: the window's traffic,
// then a short sweep of every route, then the final POST /refit.
var httpRoutes = []string{
	"post_claims", "truth_entity", "records_entity", "truth_source",
	"truth_topk", "truth_agg", "claims_entity", "healthz", "post_refit",
}

// replayRoutes are the read routes replayed against the final state
// without HTTP; gap.<route>_us is handler time minus replay time.
var replayRoutes = []string{
	"truth_entity", "records_entity", "truth_source", "truth_topk", "truth_agg", "claims_entity",
}

// PerLayer are the metrics the traced run reports, for every workload.
var PerLayer = perLayer()

func perLayer() []Metric {
	var ms []Metric
	add := func(name, unit, better string) { ms = append(ms, Metric{Name: name, Unit: unit, Better: better}) }
	for _, r := range httpRoutes {
		add("http."+r+".handler_ms_p50", "ms", lower)
		add("http."+r+".transport_ms_p50", "ms", lower)
	}
	add("refit.count", "count", higher)
	add("refit.busy_share", "ratio", lower)
	add("refit.drain_ms_mean", "ms", lower)
	add("refit.fit_ms_mean", "ms", lower)
	add("refit.publish_ms_mean", "ms", lower)
	add("refit.dirty_entities_mean", "count", lower)
	add("refit.gap_ms_mean", "ms", lower)
	add("wal.append_us_mean", "us", lower)
	add("wal.fsync_us_mean", "us", lower)
	add("wal.fsync_count", "count", lower)
	add("wal.checkpoint_ms_mean", "ms", lower)
	add("wal.checkpoint_mb_mean", "MB", lower)
	add("store.extend_dirty_ms", "ms", lower)
	add("store.extend_useful_ratio", "ratio", higher)
	add("store.scan_entity_us", "us", lower)
	add("store.segments_skipped_ratio", "ratio", higher)
	add("store.resident_rows", "count", lower)
	add("model.build_ms", "ms", lower)
	add("core.compile_ms", "ms", lower)
	add("core.sweep_ns_per_claim", "ns", lower)
	add("integrate.merge_ms", "ms", lower)
	for _, r := range []string{"truth_entity", "records_entity", "truth_source", "truth_topk", "agg_source"} {
		add("query."+r+"_us", "us", lower)
	}
	for _, r := range replayRoutes {
		add("gap."+r+"_us", "us", lower)
	}
	add("trace.overhead_pct", "%", lower)
	add("loadgen.late_ms_p90", "ms", lower)
	add("loadgen.late_ms_max", "ms", lower)
	return ms
}

// metricInfo finds a metric's description across all tables.
func metricInfo(name string) (Metric, bool) {
	for _, table := range [][]Metric{EndToEnd, Named, PerLayer} {
		for _, m := range table {
			if m.Name == name {
				return m, true
			}
		}
	}
	return Metric{}, false
}
