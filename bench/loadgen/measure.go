package loadgen

import "time"

// freshnessLimit is the freshness p90 a rate step must stay under to count
// as sustained.
const freshnessLimit = 2000 * time.Millisecond

// measure derives the end-to-end and named metrics from one window's
// traffic and the final state, and judges the run's validity. res must
// already carry the request counts.
func measure(res *Result, spec Spec, tr *traffic, fin *final) {
	var fresh, refits dist
	if len(tr.reads) > 0 {
		var xs []float64
		for i := range tr.reads {
			xs = append(xs, tr.reads[i].latencyMs())
		}
		res.addPercentiles("read", "_ms", newDist(xs), slicedQuantile(tr.reads, 0.5), slicedQuantile(tr.reads, 0.9))
	}
	if len(spec.Writes) > 0 {
		var xs []float64
		for i := range tr.writes {
			if tr.wStep[i] == 0 {
				xs = append(xs, tr.writes[i].latencyMs())
			}
		}
		ingest := newDist(xs)
		res.addPercentiles("ingest", "_ms", ingest, ingest.quantile(0.5), ingest.quantile(0.9))
		fresh = newDist(tr.freshness(0))
		res.addPercentiles("freshness", "_ms", fresh, fresh.quantile(0.5), fresh.quantile(0.9))
		if len(spec.Writes) > 1 {
			res.add("sustained_claims_per_s", tr.sustained(), len(tr.steps))
		}
	}
	if len(tr.refits) > 0 {
		var xs []float64
		for i := range tr.refits {
			xs = append(xs, tr.refits[i].latencyMs())
		}
		refits = newDist(xs)
		res.add("full_refit_s", median(xs)/1000, len(xs))
	}

	var p50, p90 float64
	var n int
	switch spec.Latency {
	case classRead:
		// Entity lookups only: the mix's 3% of whole-table scans (top-k,
		// rollups) put its p90 on the edge of their distribution, where it
		// moved 21% between runs; the lookups' p90 does not sit on an edge.
		// read_p90_ms keeps the whole mix.
		p50, p90, n = slicedQuantile(tr.lookups, 0.5), slicedQuantile(tr.lookups, 0.9), len(tr.lookups)
	case classFreshness:
		p50, p90, n = fresh.quantile(0.5), fresh.quantile(0.9), len(fresh)
	case classRefit:
		p50, p90, n = refits.quantile(0.5), refits.quantile(0.9), len(refits)
	}
	res.add("latency_p50_ms", p50, n)
	res.add("latency_p90_ms", p90, n)
	res.add("accuracy", fin.Accuracy, fin.Labeled)
	if res.Attempted > 0 {
		res.add("error_ratio", float64(res.Failed)/float64(res.Attempted), int(res.Attempted))
	}
	late := newDist(tr.late)
	res.add("loadgen.late_ms_p90", late.quantile(0.9), len(late))
	res.add("loadgen.late_ms_max", late.quantile(1), len(late))

	// The run is valid when the generator kept to its schedule: lateness
	// p90 within a tenth of the gated latency p50.
	res.Valid = late.quantile(0.9) <= 0.1*p50
}

// sliceLen is the slice read percentiles are taken over.
const sliceLen = time.Second

// slicedQuantile is the median, over the window's one-second slices, of
// each slice's q-quantile of read latency. Stalls of the shared host moved
// the whole-window p90 of sub-millisecond reads between 0.26 and 0.65 ms
// across ten runs of one commit; a stall confined to a few seconds does
// not move the median slice. The whole-window tails are reported beside
// it.
func slicedQuantile(rs []result, q float64) float64 {
	slices := make(map[time.Duration][]float64)
	for i := range rs {
		k := rs[i].Due / sliceLen
		slices[k] = append(slices[k], rs[i].latencyMs())
	}
	var qs []float64
	for _, xs := range slices {
		qs = append(qs, newDist(xs).quantile(q))
	}
	return median(qs)
}

// freshness returns, for the probes acked in step, the time from ack to
// first visible in ms; a probe never seen counts as +Inf.
func (tr *traffic) freshness(step int) []float64 {
	tr.probes.mu.Lock()
	defer tr.probes.mu.Unlock()
	var xs []float64
	for _, p := range tr.probes.probes {
		if p == nil || !p.acked || p.step != step {
			continue
		}
		if !p.seen {
			xs = append(xs, inf)
			continue
		}
		xs = append(xs, ms(p.visible-p.ack))
	}
	return xs
}

// sustained is the highest write rate whose step, and every step before
// it, kept freshness p90 within freshnessLimit and made its whole backlog
// visible within drainWait of the step's end.
func (tr *traffic) sustained() float64 {
	best := 0.0
	for i, st := range tr.steps {
		if newDist(tr.freshness(i)).quantile(0.9) > ms(freshnessLimit) || !tr.drained(i) {
			break
		}
		best = st.Rate
	}
	return best
}

// drained reports whether every batch of step i was acked and its probe
// seen within drainWait of the step's end.
func (tr *traffic) drained(i int) bool {
	end := tr.steps[i].End + drainWait
	for k := range tr.writes {
		if tr.wStep[k] == i && (!tr.writes[k].ok() || tr.writes[k].Done > end) {
			return false
		}
	}
	tr.probes.mu.Lock()
	defer tr.probes.mu.Unlock()
	for _, p := range tr.probes.probes {
		if p != nil && p.step == i && (!p.seen || p.visible > end) {
			return false
		}
	}
	return true
}
