package serve

import (
	"time"

	"latenttruth/internal/obs"
	"latenttruth/internal/store"
	"latenttruth/internal/wal"
)

// ObsConfig tunes the server's observability surface. The zero value is
// fully instrumented with defaults — metrics cost a handful of atomic
// adds per operation, cheap enough to leave on everywhere.
type ObsConfig struct {
	// Disabled turns off metric collection and the HTTP middleware. The
	// registry still exists and still serves the scrape-time families
	// GET /stats is rendered from (build info, uptime, snapshot, refit,
	// corpus and storage state, encode failures), but nothing on the
	// ingest/refit/WAL paths records — this is the uninstrumented
	// comparator the instrumentation-overhead benchmark measures against.
	Disabled bool
	// SlowRequest logs any request slower than this as a structured warn
	// event with its route, status and duration. Zero disables.
	SlowRequest time.Duration
	// LogLevel gates the server's logger (default info).
	LogLevel obs.Level
}

// serveMetrics is the server's instrument set. A nil *serveMetrics (the
// ObsConfig.Disabled state) makes every helper a no-op, so call sites
// never branch.
type serveMetrics struct {
	ingestRows     *obs.Counter
	ingestBatches  *obs.Counter
	ingestRejected *obs.Counter

	refits        *obs.CounterVec // {mode}
	refitErrors   *obs.Counter
	refitSeconds  *obs.Histogram
	refitPhase    *obs.HistogramVec // {phase}
	decisionFlips *obs.Counter

	checkpoints    *obs.Counter
	checkpointErrs *obs.Counter
	checkpointSecs *obs.Histogram

	walAppend *obs.Histogram
	walFsync  *obs.Histogram
	walRolls  *obs.Counter

	longpollSecs *obs.Histogram
}

// walBuckets resolves the microsecond scale of WAL appends and fsyncs,
// which the request-latency ladder (starting at 100µs) would flatten.
var walBuckets = []float64{
	0.000001, 0.000005, 0.00001, 0.00005, 0.0001, 0.0005,
	0.001, 0.005, 0.025, 0.1, 0.5,
}

func newServeMetrics(r *obs.Registry) *serveMetrics {
	return &serveMetrics{
		ingestRows: r.Counter("ingest_rows_total",
			"Claim rows accepted into the mutation log."),
		ingestBatches: r.Counter("ingest_batches_total",
			"Claim batches accepted into the mutation log."),
		ingestRejected: r.Counter("ingest_rejected_batches_total",
			"Claim batches rejected by validation or WAL append failure."),
		refits: r.CounterVec("refit_total",
			"Published refits, by the mode that produced the snapshot.", "mode"),
		refitErrors: r.Counter("refit_errors_total",
			"Refit attempts that failed after their drain (resolved by carry)."),
		refitSeconds: r.Histogram("refit_seconds",
			"End-to-end refit duration: drain, fit and publish.", nil),
		refitPhase: r.HistogramVec("refit_phase_seconds",
			"Refit duration by lifecycle phase.", nil, "phase"),
		decisionFlips: r.Counter("refit_decision_flips_total",
			"Facts whose thresholded truth decision changed across a refit."),
		checkpoints: r.Counter("checkpoint_total",
			"Checkpoints written and retained."),
		checkpointErrs: r.Counter("checkpoint_errors_total",
			"Checkpoint attempts that failed (the WAL still covers the state)."),
		checkpointSecs: r.Histogram("checkpoint_seconds",
			"Checkpoint write + prune + WAL truncation duration.", nil),
		walAppend: r.Histogram("wal_append_seconds",
			"WAL batch append latency, including any inline fsync.", walBuckets),
		walFsync: r.Histogram("wal_fsync_seconds",
			"WAL fsync latency.", walBuckets),
		walRolls: r.Counter("wal_segment_rolls_total",
			"WAL segment rotations (seal + new segment)."),
		longpollSecs: r.Histogram("replication_longpoll_seconds",
			"Time /replication/wal polls spent waiting and streaming.", nil),
	}
}

// walMetrics adapts the instrument set to the WAL's callback hooks; nil
// when metrics are disabled, which keeps the WAL entirely hook-free.
func (m *serveMetrics) walMetrics() *wal.Metrics {
	if m == nil {
		return nil
	}
	return &wal.Metrics{
		AppendSeconds: m.walAppend.Observe,
		FsyncSeconds:  m.walFsync.Observe,
		SegmentRoll:   m.walRolls.Inc,
	}
}

// ingested accounts one Ingest outcome.
func (m *serveMetrics) ingested(rows int, err error) {
	if m == nil {
		return
	}
	if err != nil {
		m.ingestRejected.Inc()
		return
	}
	m.ingestBatches.Inc()
	m.ingestRows.Add(uint64(rows))
}

// initObs builds the server's registry, leveled logger, instrument set
// and HTTP middleware. Called from New before openDurable, which hangs
// WAL hooks and scrape-time gauges off the instruments created here.
func (s *Server) initObs() {
	s.reg = obs.NewRegistry()
	s.logger = obs.NewLogger(s.cfg.Logger, s.cfg.Obs.LogLevel)
	s.registerStatsFamilies()
	if s.cfg.Obs.Disabled {
		return
	}
	s.met = newServeMetrics(s.reg)
	s.httpMW = obs.NewHTTPMetrics(s.reg, "http_", s.logger, s.cfg.Obs.SlowRequest)
}

// registerStatsFamilies registers the families GET /stats is rendered
// from (RenderStats reads them back by name), on every server, with
// Obs.Disabled too. All but encode_failures_total are scrape-time
// functions over state the server keeps anyway, so they add no work to
// the ingest or refit paths; each gauge's rule is how its /stats field
// combines across a cluster's partitions.
func (s *Server) registerStatsFamilies() {
	r := s.reg
	// The constant-1 info families sum across partitions, counting the
	// members per label value: a rolling deploy shows two builds.
	r.GaugeVec("build_info",
		"Build identity; the value is always 1, the identity is in the labels.",
		obs.GaugeSum, "version", "commit").With(obs.Version, obs.Commit).Set(1)
	r.GaugeVec("refit_policy",
		"Configured refit policy; the value is always 1, the policy is in the label.",
		obs.GaugeSum, "policy").With(string(s.cfg.Policy)).Set(1)
	r.GaugeFunc("process_uptime_seconds",
		"Seconds since the server was constructed.", obs.GaugeMin,
		func() float64 { return time.Since(s.started).Seconds() })
	r.GaugeFunc("pending_mutations",
		"Mutations awaiting compaction into the next snapshot.", obs.GaugeSum,
		func() float64 { return float64(s.ingest.Len()) })
	r.CounterFunc("ingest_lifetime_rows_total",
		"Claim rows accepted over the server's lifetime, restored across restarts.",
		func() float64 { return float64(s.ingest.Total()) })
	r.CounterFunc("refits_completed_total", "Completed refits.",
		func() float64 { return float64(s.refits.Load()) })
	r.CounterFunc("refits_full_total", "Completed refits that ran the full engine.",
		func() float64 { return float64(s.fullRefits.Load()) })
	r.CounterFunc("refits_dirty_total", "Completed refits that took the dirty fast path.",
		func() float64 { return float64(s.dirtyRefits.Load()) })
	s.encodeFailures = r.Counter("encode_failures_total",
		"Responses whose JSON encoding or socket write failed mid-body.")

	// The published snapshot's identity, refit timings and corpus shape;
	// zero (and no snapshot_mode child) before the first refit.
	snap := func(name, help string, rule obs.GaugeRule, v func(*Snapshot) float64) {
		r.GaugeFunc(name, help, rule, func() float64 {
			if sn := s.snap.Load(); sn != nil {
				return v(sn)
			}
			return 0
		})
	}
	snap("snapshot_ready", "1 once a snapshot is published; the cluster merge is an AND.",
		obs.GaugeMin, func(*Snapshot) float64 { return 1 })
	snap("snapshot_seq", "Refit sequence number of the published snapshot (0 before the first).",
		obs.GaugeMin, func(sn *Snapshot) float64 { return float64(sn.Seq) })
	snap("refit_last_duration_seconds", "Duration of the refit that produced the published snapshot.",
		obs.GaugeMax, func(sn *Snapshot) float64 { return sn.RefitDuration.Seconds() })
	snap("refit_freshness_seconds", "Ingest-to-publish staleness bound of the published snapshot.",
		obs.GaugeMax, func(sn *Snapshot) float64 { return sn.Freshness.Seconds() })
	snap("refit_dirty_entities", "Entities the last dirty refit re-swept (0 after a full refit).",
		obs.GaugeSum, func(sn *Snapshot) float64 { return float64(sn.DirtyEntities) })
	snap("snapshot_entities", "Entities in the published snapshot.",
		obs.GaugeSum, func(sn *Snapshot) float64 { return float64(sn.Stats.Entities) })
	// Sources span partitions, so a sum would double-count; the router
	// replaces the merged max with the union of its partitions' names.
	snap("snapshot_sources", "Sources in the published snapshot.",
		obs.GaugeMax, func(sn *Snapshot) float64 { return float64(sn.Stats.Sources) })
	snap("snapshot_facts", "Facts in the published snapshot.",
		obs.GaugeSum, func(sn *Snapshot) float64 { return float64(sn.Stats.Facts) })
	snap("snapshot_claims", "Claims in the published snapshot.",
		obs.GaugeSum, func(sn *Snapshot) float64 { return float64(sn.Stats.Claims) })
	snap("snapshot_positive_claims", "Positive claims in the published snapshot.",
		obs.GaugeSum, func(sn *Snapshot) float64 { return float64(sn.Stats.PositiveClaims) })
	snap("snapshot_negative_claims", "Negative claims in the published snapshot.",
		obs.GaugeSum, func(sn *Snapshot) float64 { return float64(sn.Stats.NegativeClaims) })
	snap("snapshot_labeled", "Labeled facts in the published snapshot.",
		obs.GaugeSum, func(sn *Snapshot) float64 { return float64(sn.Stats.Labeled) })
	r.GaugeVecFunc("snapshot_mode",
		"Refit mode that produced the published snapshot; the value is always 1.",
		obs.GaugeSum, []string{"mode"}, func() []obs.Sample {
			if sn := s.snap.Load(); sn != nil {
				return []obs.Sample{{LabelValues: []string{string(sn.Mode)}, Value: 1}}
			}
			return nil
		})

	// Storage families read Backend.Stats(), which is atomics-only — a
	// scrape never contends with an in-flight refit or seal. A memory
	// backend reports zero disk rows, segments and scans.
	r.GaugeVecFunc("storage_backend",
		"Claim-storage backend kind; the value is always 1.",
		obs.GaugeSum, []string{"kind"}, func() []obs.Sample {
			return []obs.Sample{{LabelValues: []string{s.db.Stats().Kind}, Value: 1}}
		})
	storage := func(v func(store.StorageStats) float64) func() float64 {
		return func() float64 { return v(s.db.Stats()) }
	}
	r.GaugeFunc("storage_resident_rows",
		"Claim rows resident on the heap (the whole corpus).", obs.GaugeSum,
		storage(func(st store.StorageStats) float64 { return float64(st.Resident) }))
	r.GaugeFunc("storage_disk_rows",
		"Claim rows covered by sealed on-disk segments.", obs.GaugeSum,
		storage(func(st store.StorageStats) float64 { return float64(st.OnDisk) }))
	r.GaugeFunc("storage_segments",
		"Sealed claim segments currently open.", obs.GaugeSum,
		storage(func(st store.StorageStats) float64 { return float64(st.Segments) }))
	r.GaugeFunc("storage_segment_bytes",
		"Total bytes of the sealed claim segments.", obs.GaugeSum,
		storage(func(st store.StorageStats) float64 { return float64(st.SegmentBytes) }))
	r.CounterFunc("storage_segments_scanned_total",
		"Scan legs that had to open a segment.",
		storage(func(st store.StorageStats) float64 { return float64(st.SegmentsScanned) }))
	r.CounterFunc("storage_segments_skipped_total",
		"Scan legs pruned by zone map or bloom filter without I/O.",
		storage(func(st store.StorageStats) float64 { return float64(st.SegmentsSkipped) }))
	r.CounterFunc("storage_pages_scanned_total",
		"Pages decoded inside scanned segments.",
		storage(func(st store.StorageStats) float64 { return float64(st.PagesScanned) }))
}

// Registry returns the server's metric registry (never nil). A follower
// embedder concatenates its own families onto this one's exposition.
func (s *Server) Registry() *obs.Registry { return s.reg }

// startRefitSpan opens the per-refit trace span: drain → fit → publish,
// one structured JSON log line at End carrying the span id, per-phase
// durations and the refit's identity attributes.
func (s *Server) startRefitSpan() *obs.Span {
	return obs.StartSpan(s.logger, "refit", "drain")
}

// decisionFlips counts facts whose thresholded truth decision changed
// between two snapshots, over the shared fact-id prefix (fact ids are
// stable: the cumulative database only appends). A flip is the unit of
// churn a downstream consumer of /truth actually experiences, which is
// why it is worth a counter next to the refit timings.
func decisionFlips(prev, next *Snapshot) int {
	if prev == nil || next == nil {
		return 0
	}
	n := min(len(prev.Result.Prob), len(next.Result.Prob))
	flips := 0
	for f := 0; f < n; f++ {
		if prev.Result.Predict(f, prev.Threshold) != next.Result.Predict(f, next.Threshold) {
			flips++
		}
	}
	return flips
}
