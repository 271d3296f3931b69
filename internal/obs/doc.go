// Package obs is the serving stack's dependency-free observability layer:
// a metrics registry, a Prometheus text exposition writer and parser, an
// exposition merger for cluster views, a structured span
// facility for multi-phase operations, and a minimal leveled logger.
//
// The registry holds three metric kinds, all safe for concurrent use and
// cheap enough to sit on the ingest hot path: counters (a single atomic
// add), gauges (an atomic float store, or a function evaluated at scrape
// time), and fixed-bucket histograms (one atomic add into a bucket found
// by binary search, plus a CAS loop for the running sum). Histograms
// expose exact bucket counts and interpolated quantiles (Quantile walks
// the cumulative counts to the requested rank); the default bucket ladder
// DefBuckets spans 100µs–60s, sized for request, refit and fsync
// latencies. Vector variants key children by label values; callers cache
// the child (With is a map lookup under RWMutex, the child itself is
// lock-free).
//
// WritePrometheus renders the registry in the Prometheus text exposition
// format (# HELP/# TYPE preambles, name{label="v"} samples, cumulative
// _bucket/_sum/_count histogram series), families and children in sorted
// order so output is deterministic. Every gauge is registered with its
// cross-partition GaugeRule (SUM, MAX or MIN) as a required argument, and
// the exposition carries it as a "# MERGE <family> <rule>" comment after
// the # TYPE line, which format 0.0.4 scrapers ignore. ParseExposition
// inverts the format, and Merge combines several expositions into a
// cluster-wide view: counters and histogram series SUM, each gauge
// follows the rule its exposition carries, and a gauge without a rule, or
// whose rule differs between expositions, is a loud error naming it — so
// a gauge cannot ship without a decided aggregation.
//
// Spans time multi-phase operations (a refit's drain → fit → publish):
// StartSpan allocates a random id, Phase closes the running phase and
// opens the next, End emits one JSON log event carrying the id, per-phase
// durations and any attributes — greppable, and join-able against the
// histogram the caller feeds the same durations into.
//
// The Logger wraps *log.Logger with debug/info/warn/error gating and a
// structured Event method (key=value pairs after the message). All
// methods are nil-receiver safe, so call sites never guard.
package obs
