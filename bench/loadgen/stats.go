package loadgen

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile for it to be
// reported: the highest percentile of a timing is the highest one with at
// least this many samples past it.
const minBeyond = 10

// tailLadder are the tail percentiles considered, in increasing order.
var tailLadder = []struct {
	Q    float64
	Name string
}{{0.99, "p99"}, {0.999, "p999"}, {0.9999, "p9999"}}

// dist is a sorted sample of one timing. Failed requests enter as +Inf:
// a request that fails counts as missing every latency limit.
type dist []float64

func newDist(samples []float64) dist {
	d := append(dist(nil), samples...)
	sort.Float64s(d)
	return d
}

// quantile is the nearest-rank percentile of d; NaN when d is empty.
func (d dist) quantile(q float64) float64 {
	if len(d) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(d)))) - 1
	return d[max(0, min(i, len(d)-1))]
}

// reportable reports whether quantile q has at least minBeyond samples
// beyond it.
func (d dist) reportable(q float64) bool {
	return float64(len(d))*(1-q) >= minBeyond
}

// tails returns the tail percentiles d supports, by name.
func (d dist) tails() []namedValue {
	var out []namedValue
	for _, t := range tailLadder {
		if d.reportable(t.Q) {
			out = append(out, namedValue{t.Name, d.quantile(t.Q)})
		}
	}
	return out
}

type namedValue struct {
	Name  string
	Value float64
}

// median is the middle value of xs (mean of the two middle values for an
// even count), as Python's statistics.median gives it.
func median(xs []float64) float64 {
	d := newDist(xs)
	n := len(d)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return d[n/2]
	default:
		return (d[n/2-1] + d[n/2]) / 2
	}
}

// quartiles returns the first and third quartiles of xs exactly as
// Python's statistics.quantiles(xs, n=4) computes them (the default
// "exclusive" method), so spreads match those computed from the same
// numbers outside this program. It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	d := newDist(xs)
	n := len(d)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	m := n + 1
	at := func(i int) float64 {
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// mean is the arithmetic mean of xs, 0 for none.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
