package obs

import (
	"net/http"
	"strconv"
	"time"
)

// HTTPMetrics instruments an http.Handler: per-route/per-status request
// counts, a per-route latency histogram, an in-flight gauge, and
// per-route response bytes. Routes are labeled by the ServeMux pattern
// that matched (Go ≥1.23 sets Request.Pattern on the request the
// middleware already holds), so label cardinality is bounded by the
// route table, not by URLs. Unmatched requests share one "unmatched"
// label.
//
// With a non-zero slow threshold, any request slower than it is logged
// as a structured warn event with its route, status and duration.
type HTTPMetrics struct {
	requests *CounterVec   // <prefix>requests_total{route,code}
	latency  *HistogramVec // <prefix>request_seconds{route}
	bytes    *CounterVec   // <prefix>response_bytes_total{route}
	inFlight *Gauge        // <prefix>in_flight
	slow     time.Duration
	logger   *Logger
}

// NewHTTPMetrics registers the middleware's families under prefix
// (e.g. "http_" on a serving daemon, "router_http_" on a router whose
// merged view also carries its partitions' "http_" series).
func NewHTTPMetrics(r *Registry, prefix string, logger *Logger, slow time.Duration) *HTTPMetrics {
	return &HTTPMetrics{
		requests: r.CounterVec(prefix+"requests_total",
			"Requests served, by route pattern and status code.", "route", "code"),
		latency: r.HistogramVec(prefix+"request_seconds",
			"Request latency in seconds, by route pattern.", nil, "route"),
		bytes: r.CounterVec(prefix+"response_bytes_total",
			"Response body bytes written, by route pattern.", "route"),
		inFlight: r.Gauge(prefix+"in_flight", "Requests currently being served.", GaugeSum),
		slow:     slow,
		logger:   logger,
	}
}

// Wrap returns next instrumented.
func (m *HTTPMetrics) Wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		m.inFlight.Add(1)
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r)
		m.inFlight.Add(-1)

		route := r.Pattern
		if route == "" {
			route = "unmatched"
		}
		elapsed := time.Since(start)
		m.requests.With(route, strconv.Itoa(sw.status())).Inc()
		m.latency.With(route).Observe(elapsed.Seconds())
		m.bytes.With(route).Add(uint64(sw.bytes))
		if m.slow > 0 && elapsed >= m.slow {
			m.logger.Event(LevelWarn, "slow_request",
				"route", route,
				"path", r.URL.Path,
				"status", sw.status(),
				"ms", float64(elapsed)/float64(time.Millisecond))
		}
	})
}

// statusWriter records the status code and body bytes as they pass
// through. Flush is forwarded so streamed responses keep streaming, and
// Unwrap keeps http.ResponseController working.
type statusWriter struct {
	http.ResponseWriter
	code  int
	bytes int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

func (w *statusWriter) status() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// MetricsHandler serves reg in the Prometheus text exposition format —
// the GET /metrics endpoint.
func MetricsHandler(reg *Registry) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
	}
}
