package obs

import (
	"bytes"
	"testing"
)

// fuzzSeeds returns the corpus both fuzz targets start from: a full
// registry exposition (counters, a labeled gauge with its rule line, a
// scrape-time gauge, a histogram) and the lone-HELP input that once
// merged into text the parser rejected.
func fuzzSeeds() [][]byte {
	full := expose(func(r *Registry) {
		r.Counter("req_total", "Requests.").Add(3)
		r.CounterVec("err_total", "Errors by route.", "route").With(`/q"x`).Inc()
		r.GaugeVec("lag", "Lag.", GaugeMax, "follower").With("f 1").Set(12)
		r.GaugeFunc("uptime_seconds", "Uptime.", GaugeMin, func() float64 { return 4.5 })
		h := r.HistogramVec("lat_seconds", "Latency.", []float64{0.1, 1}, "route")
		h.With("/truth").Observe(0.05)
		h.With("/truth").Observe(3)
	})
	return [][]byte{full, []byte("# HELP 0"), []byte("# TYPE g gauge\ng 1\n")}
}

// FuzzParseExposition: the parser never panics, and every family it
// accepts has a known kind and, for a gauge, either no rule or a known one.
func FuzzParseExposition(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fams, err := ParseExposition(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, fam := range fams {
			switch fam.Kind {
			case KindCounter, KindHistogram:
				if fam.Rule != "" {
					t.Fatalf("%s %s carries merge rule %q", fam.Kind, fam.Name, fam.Rule)
				}
			case KindGauge:
				if fam.Rule != "" && !fam.Rule.valid() {
					t.Fatalf("gauge %s has rule %q", fam.Name, fam.Rule)
				}
			default:
				t.Fatalf("family %s accepted with kind %q", fam.Name, fam.Kind)
			}
		}
	})
}

// FuzzMerge: Merge never panics, refuses any exposition with a rule-less
// gauge, and on everything it accepts is idempotent — its own output
// merges back to the same bytes — and merging the input with itself
// yields an exposition that parses again.
func FuzzMerge(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		once, err := Merge([][]byte{data})
		if fams, perr := ParseExposition(bytes.NewReader(data)); perr == nil {
			for _, fam := range fams {
				if fam.Kind == KindGauge && fam.Rule == "" && err == nil {
					t.Fatalf("gauge %s without a rule line merged", fam.Name)
				}
			}
		}
		if err != nil {
			return
		}
		twice, err := Merge([][]byte{once})
		if err != nil {
			t.Fatalf("merged output does not merge again: %v\n%s", err, once)
		}
		if !bytes.Equal(once, twice) {
			t.Fatalf("merge is not idempotent:\n--- once ---\n%s--- twice ---\n%s", once, twice)
		}
		doubled, err := Merge([][]byte{data, data})
		if err != nil {
			t.Fatalf("exposition does not merge with itself: %v", err)
		}
		if _, err := ParseExposition(bytes.NewReader(doubled)); err != nil {
			t.Fatalf("self-merge does not reparse: %v\n%s", err, doubled)
		}
	})
}
