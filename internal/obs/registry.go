package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind is the metric family type, named after its Prometheus TYPE token.
type Kind string

const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// Version and Commit identify the build; stamped by the linker via
//
//	-ldflags "-X latenttruth/internal/obs.Version=v9 -X latenttruth/internal/obs.Commit=abc1234"
//
// and surfaced in /stats, the startup log line and the build_info metric.
var (
	Version = "dev"
	Commit  = "none"
)

// Registry is a set of metric families. All registration methods are
// idempotent per name: asking for an existing family returns the existing
// metric, and asking with a conflicting kind, label set or merge rule
// panics (a wiring bug, not a runtime condition).
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// family is one named metric family with zero or more labeled children.
type family struct {
	name   string
	help   string
	kind   Kind
	labels []string  // label names; empty for scalar families
	rule   GaugeRule // gauge families only: the cross-partition merge

	mu       sync.RWMutex
	children map[string]metric // key: joined label values
	order    []string          // insertion order of keys; sorted at exposition

	collect func() []Sample // counter and gauge families may be scrape-time functions
	buckets []float64       // histogram families share one bucket ladder
}

// Sample is one scrape-time value from a function-backed family.
type Sample struct {
	LabelValues []string
	Value       float64
}

// metric is a single child: a Counter, Gauge or Histogram.
type metric interface{ kindOf() Kind }

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func (r *Registry) getOrCreate(name, help string, kind Kind, rule GaugeRule, labels []string, buckets []float64) *family {
	if kind == KindGauge && !rule.valid() {
		panic(fmt.Sprintf("obs: gauge %s registered with merge rule %q", name, rule))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || f.rule != rule || strings.Join(f.labels, ",") != strings.Join(labels, ",") {
			panic(fmt.Sprintf("obs: metric %s re-registered as %s%v %s, was %s%v %s",
				name, kind, labels, rule, f.kind, f.labels, f.rule))
		}
		return f
	}
	f := &family{name: name, help: help, kind: kind, rule: rule, labels: labels,
		children: make(map[string]metric), buckets: buckets}
	r.families[name] = f
	return f
}

// setCollect makes the family a scrape-time function.
func (f *family) setCollect(fn func() []Sample) {
	f.mu.Lock()
	f.collect = fn
	f.mu.Unlock()
}

// child returns the metric for the given label values, creating it via
// mk on first use.
func (f *family) child(values []string, mk func() metric) metric {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\x00")
	f.mu.RLock()
	m, ok := f.children[key]
	f.mu.RUnlock()
	if ok {
		return m
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.children[key]; ok {
		return m
	}
	m = mk()
	f.children[key] = m
	f.order = append(f.order, key)
	return m
}

// snapshot returns the family's children as (label values, metric) pairs
// in sorted label order, for deterministic exposition.
func (f *family) snapshot() []childSnap {
	f.mu.RLock()
	keys := make([]string, len(f.order))
	copy(keys, f.order)
	snaps := make([]childSnap, 0, len(keys))
	for _, k := range keys {
		var values []string
		if k != "" {
			values = strings.Split(k, "\x00")
		}
		snaps = append(snaps, childSnap{values: values, m: f.children[k]})
	}
	f.mu.RUnlock()
	sort.Slice(snaps, func(i, j int) bool {
		return strings.Join(snaps[i].values, "\x00") < strings.Join(snaps[j].values, "\x00")
	})
	return snaps
}

type childSnap struct {
	values []string
	m      metric
}

// Counter is a monotonically increasing count. Inc and Add are single
// atomic adds — safe on hot paths.
type Counter struct{ v atomic.Uint64 }

func (c *Counter) kindOf() Kind { return KindCounter }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down, stored as atomic float bits.
type Gauge struct{ bits atomic.Uint64 }

func (g *Gauge) kindOf() Kind { return KindGauge }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds d via a CAS loop.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Counter registers (or fetches) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.getOrCreate(name, help, KindCounter, "", nil, nil)
	return f.child(nil, func() metric { return &Counter{} }).(*Counter)
}

// CounterFunc registers a counter whose value is read at scrape time from
// a count the caller already keeps.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.getOrCreate(name, help, KindCounter, "", nil, nil).setCollect(scalar(fn))
}

// scalar adapts a single-value function to a collect function.
func scalar(fn func() float64) func() []Sample {
	return func() []Sample { return []Sample{{Value: fn()}} }
}

// CounterVec registers (or fetches) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.getOrCreate(name, help, KindCounter, "", labels, nil)}
}

// CounterVec is a counter family keyed by label values.
type CounterVec struct{ f *family }

// With returns the child counter for the given label values.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.child(values, func() metric { return &Counter{} }).(*Counter)
}

// Gauge registers (or fetches) an unlabeled gauge that merges across
// partitions under rule.
func (r *Registry) Gauge(name, help string, rule GaugeRule) *Gauge {
	f := r.getOrCreate(name, help, KindGauge, rule, nil, nil)
	return f.child(nil, func() metric { return &Gauge{} }).(*Gauge)
}

// GaugeVec registers (or fetches) a labeled gauge family that merges
// across partitions under rule.
func (r *Registry) GaugeVec(name, help string, rule GaugeRule, labels ...string) *GaugeVec {
	return &GaugeVec{f: r.getOrCreate(name, help, KindGauge, rule, labels, nil)}
}

// GaugeVec is a gauge family keyed by label values.
type GaugeVec struct{ f *family }

// With returns the child gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.f.child(values, func() metric { return &Gauge{} }).(*Gauge)
}

// GaugeFunc registers a gauge whose value is computed at scrape time.
func (r *Registry) GaugeFunc(name, help string, rule GaugeRule, fn func() float64) {
	r.getOrCreate(name, help, KindGauge, rule, nil, nil).setCollect(scalar(fn))
}

// GaugeVecFunc registers a labeled gauge family whose children are
// enumerated at scrape time — the natural shape for per-follower lag,
// where the label set changes as followers register and get evicted.
func (r *Registry) GaugeVecFunc(name, help string, rule GaugeRule, labels []string, fn func() []Sample) {
	r.getOrCreate(name, help, KindGauge, rule, labels, nil).setCollect(fn)
}

// Histogram registers (or fetches) an unlabeled histogram over buckets
// (nil means DefBuckets).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	f := r.getOrCreate(name, help, KindHistogram, "", nil, buckets)
	return f.child(nil, func() metric { return newHistogram(f.buckets) }).(*Histogram)
}

// HistogramVec registers (or fetches) a labeled histogram family over
// buckets (nil means DefBuckets).
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if buckets == nil {
		buckets = DefBuckets
	}
	return &HistogramVec{f: r.getOrCreate(name, help, KindHistogram, "", labels, buckets)}
}

// HistogramVec is a histogram family keyed by label values.
type HistogramVec struct{ f *family }

// With returns the child histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.f.child(values, func() metric { return newHistogram(v.f.buckets) }).(*Histogram)
}
