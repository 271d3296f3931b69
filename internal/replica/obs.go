package replica

import (
	"net/http"

	"latenttruth/internal/obs"
)

// replicaMetrics is the follower's own instrument set. It lives in a
// registry owned by the Follower, not the inner serve.Server: the server
// (and its registry) is replaced wholesale on re-bootstrap, while the
// replication counters must survive exactly that event — a re-bootstrap
// is the most interesting thing a follower's metrics can show.
type replicaMetrics struct {
	bootstraps  *obs.Counter
	batches     *obs.Counter
	rows        *obs.Counter
	refits      *obs.Counter
	polls       *obs.Counter
	pollErrors  *obs.Counter
	caughtUp    *obs.Gauge
	lastApplied *obs.Gauge
}

func newReplicaMetrics(r *obs.Registry) *replicaMetrics {
	return &replicaMetrics{
		bootstraps: r.Counter("replica_bootstraps_total",
			"Checkpoint bootstraps, initial and after cursor eviction."),
		batches: r.Counter("replica_applied_batches_total",
			"Replicated log records applied."),
		rows: r.Counter("replica_applied_rows_total",
			"Claim rows applied from replicated batches."),
		refits: r.Counter("replica_applied_refits_total",
			"Refit markers replayed from the primary's log."),
		polls: r.Counter("replica_polls_total",
			"Successful tail polls against the primary."),
		pollErrors: r.Counter("replica_poll_errors_total",
			"Failed polls and failed record applies (each retry counts)."),
		// Across a fleet, caught-up is an AND (min over 0/1).
		caughtUp: r.Gauge("replica_caught_up",
			"1 when the newest poll found this follower at the primary's head.", obs.GaugeMin),
		lastApplied: r.Gauge("replica_last_applied_seq",
			"Newest primary log sequence mirrored into the local WAL.", obs.GaugeMax),
	}
}

// handleMetrics serves the follower's merged exposition: the inner
// server's families (request latency, refit spans' histograms, WAL —
// whatever the current server has recorded since it was published)
// followed by the follower-owned replica_* families. The family sets are
// disjoint, so plain concatenation is a valid exposition.
func (f *Follower) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := f.Server().Registry().WritePrometheus(w); err != nil {
		return
	}
	f.reg.WritePrometheus(w)
}
