package cluster

import (
	"net/http"
	"strconv"

	"latenttruth/internal/obs"
)

// routerMetrics is the router's own instrument set: fan-out latency and
// error counts per partition, plus the router_http_* request middleware.
// These live in a router-owned registry whose family names are disjoint
// from anything a partition exposes, so the merged partition scrape and
// the router's own families concatenate into one valid exposition.
type routerMetrics struct {
	fanout     *obs.HistogramVec // cluster_fanout_seconds{partition}
	partErrors *obs.CounterVec   // cluster_partition_errors_total{partition}
}

func newRouterMetrics(r *obs.Registry) *routerMetrics {
	return &routerMetrics{
		fanout: r.HistogramVec("cluster_fanout_seconds",
			"Per-partition call latency inside a scatter-gather fan-out.",
			nil, "partition"),
		partErrors: r.CounterVec("cluster_partition_errors_total",
			"Failed partition calls (fan-out legs and proxied requests).",
			"partition"),
	}
}

// observeLeg records one fan-out leg's outcome.
func (m *routerMetrics) observeLeg(partition int, seconds float64, err error) {
	if m == nil {
		return
	}
	p := strconv.Itoa(partition)
	m.fanout.With(p).Observe(seconds)
	if err != nil {
		m.partErrors.With(p).Inc()
	}
}

// proxyError records a failed proxied (non-fan-out) partition call.
func (m *routerMetrics) proxyError(partition int) {
	if m == nil {
		return
	}
	m.partErrors.With(strconv.Itoa(partition)).Inc()
}

// mergedMetrics scrapes every partition's /metrics concurrently and
// merges them per kind: counters and histogram series sum, each gauge by
// the rule its exposition carries, histogram bucket ladders union and
// re-bucket. A failed scrape has already been written to w as the
// partition's error; a failed merge as a 500.
func (rt *Router) mergedMetrics(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	bodies := make([][]byte, rt.k())
	err := rt.fanout(func(i int) error {
		b, err := rt.getRaw(r.Context(), i, "/metrics")
		bodies[i] = b
		return err
	})
	if err != nil {
		rt.writePartitionError(w, firstPartitionError(err))
		return nil, false
	}
	merged, err := obs.Merge(bodies)
	if err != nil {
		rt.writeError(w, http.StatusInternalServerError, codeInternal, err)
		return nil, false
	}
	return merged, true
}

// handleMetrics serves the cluster-wide exposition: the partitions'
// merged /metrics followed by the router's own cluster_* and
// router_http_* families. One scrape shows the whole cluster.
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	merged, ok := rt.mergedMetrics(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if _, err := w.Write(merged); err != nil {
		return
	}
	rt.reg.WritePrometheus(w)
}
