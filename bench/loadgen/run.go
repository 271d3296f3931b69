package loadgen

import (
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// DefaultPreloadClaims is the preload size: about 10⁶ claims, positive and
// negative.
const DefaultPreloadClaims = 1_000_000

// Options selects one workload run.
type Options struct {
	Workload      string
	Seed          int64
	Seconds       float64
	PreloadClaims int
	// WorkDir holds the run's preload CSV, data directory, server log and
	// spans; the CSV and data directory are removed afterwards.
	WorkDir string
	// Server is the truthserve binary the untraced run starts.
	Server string
	// Setups is how many times the untraced run starts the server; setup_s
	// is their median, and the last one serves the window.
	Setups int
	Env    Env

	// wrap, when set, wraps the in-process server's handler (tests inject
	// faults through it).
	wrap func(http.Handler) http.Handler
}

// prepare generates the corpus and a clean run directory.
func (o Options) prepare() (Spec, *Corpus, string, error) {
	spec, err := Lookup(o.Workload)
	if err != nil {
		return Spec{}, nil, "", err
	}
	c, err := NewCorpus(o.Seed, o.PreloadClaims, spec.streamRows(o.Seconds))
	if err != nil {
		return Spec{}, nil, "", err
	}
	dir := filepath.Join(o.WorkDir, spec.Name)
	if err := os.RemoveAll(dir); err != nil {
		return Spec{}, nil, "", err
	}
	return spec, c, dir, os.MkdirAll(dir, 0o755)
}

func (o Options) result(trace bool) *Result {
	return &Result{Workload: o.Workload, Seed: o.Seed, Seconds: o.Seconds, Trace: trace, Env: o.Env}
}

// Untraced runs the workload against a truthserve child process and
// reports the end-to-end and named metrics. A failed correctness check is
// reported in the result, not as an error.
func Untraced(o Options) (res *Result, err error) {
	spec, c, dir, err := o.prepare()
	if err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, os.RemoveAll(dir)) }()
	csv := filepath.Join(dir, "preload.csv")
	if err := c.writePreload(csv); err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(o.WorkDir, spec.Name+"-server.log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close()

	dataDir := filepath.Join(dir, "data")
	var setups []float64
	var t *target
	for i := range max(o.Setups, 1) {
		if t != nil {
			if err := t.stop(); err != nil {
				return nil, err
			}
		}
		if err := os.RemoveAll(dataDir); err != nil {
			return nil, err
		}
		var d time.Duration
		t, d, err = startChild(o.Server, spec, csv, dataDir, logf)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		setups = append(setups, d.Seconds())
	}
	defer func() { err = errors.Join(err, t.stop()) }()

	if err := t.collectGarbage(); err != nil {
		return nil, err
	}
	// The generator collects too, then pauses its collector for the window
	// (its allocations there are bounded by the schedule), so its own
	// collections do not take CPU from the server mid-window.
	runtime.GC()
	gcPercent := debug.SetGCPercent(-1)
	s := newSession(t.base, nil)
	defer s.close()
	cpu0, err := t.cpuSeconds()
	if err != nil {
		debug.SetGCPercent(gcPercent)
		return nil, err
	}
	tr := drive(s, spec, c, o.Seconds, o.Seed)
	debug.SetGCPercent(gcPercent)
	cpu1, err := t.cpuSeconds()
	if err != nil {
		return nil, err
	}
	fin, err := finish(s, c, tr, o.Seed)
	if err != nil {
		return nil, err
	}
	rss, err := t.rssMB()
	if err != nil {
		return nil, err
	}

	res = o.result(false)
	res.Attempted, res.Failed = s.attempted.Load(), s.failed.Load()
	res.add("setup_s", median(setups), len(setups))
	measure(res, spec, tr, fin)
	res.add("server_rss_mb", rss, 1)
	if len(spec.Writes) == 0 {
		// Only where the work is fixed: with writes, a faster refit
		// legitimately runs more often.
		res.add("server_cpu_s", cpu1-cpu0, 1)
	}
	res.Checks = gate(c, fin)
	res.Correct = len(res.Checks) == 0
	return res, nil
}

// Traced runs the workload against an in-process server with the same
// configuration, records spans at every layer boundary, and reports the
// per-layer metrics. untraced, when non-nil, is the same workload's
// untraced result: trace.overhead_pct and loadgen.late_* come from it.
func Traced(o Options, untraced *Result) (res *Result, err error) {
	spec, c, dir, err := o.prepare()
	if err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, os.RemoveAll(dir)) }()
	dataDir := filepath.Join(dir, "data")
	tracer := newTracer()
	wrap := tracer.wrap
	if o.wrap != nil {
		wrap = func(h http.Handler) http.Handler { return tracer.wrap(o.wrap(h)) }
	}
	t, err := startInProcess(spec, c, dataDir, wrap)
	if err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, t.stop()) }()
	if err := t.collectGarbage(); err != nil {
		return nil, err
	}
	reg := t.srv.Registry()
	before, err := scrape(reg)
	if err != nil {
		return nil, err
	}

	s := newSession(t.base, tracer)
	defer s.close()
	loop := &refitLoop{}
	if spec.RefitInterval > 0 {
		loop = startRefitLoop(t.srv, tracer, spec.RefitInterval)
	}
	tr := drive(s, spec, c, o.Seconds, o.Seed)
	if err := loop.stop(); err != nil {
		return nil, err
	}
	tr.acked += sweep(s, c, o.Seed)
	fin, err := finish(s, c, tr, o.Seed)
	if err != nil {
		return nil, err
	}
	elapsed := s.since()
	after, err := scrape(reg)
	if err != nil {
		return nil, err
	}
	sn := t.srv.Snapshot()
	if err := t.stop(); err != nil {
		return nil, err
	}

	e2e := o.result(true)
	e2e.Attempted, e2e.Failed = s.attempted.Load(), s.failed.Load()
	measure(e2e, spec, tr, fin)

	res = o.result(true)
	res.Attempted, res.Failed, res.Valid = e2e.Attempted, e2e.Failed, e2e.Valid
	res.Checks = gate(c, fin)
	res.Correct = len(res.Checks) == 0
	scratch := filepath.Join(dir, "replay")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	if err := addLayers(res, layerRun{spec: spec, c: c, tracer: tracer, reg: deltas{before, after},
		loop: loop, elapsed: elapsed, fin: fin, sn: sn, dataDir: dataDir, scratch: scratch, seed: o.Seed}); err != nil {
		return nil, err
	}

	// Overhead compares the request latency both runs measure: reads,
	// ingest, or the full-refit round trip.
	name := map[string]string{classRead: "read_p50_ms", classFreshness: "ingest_p50_ms", classRefit: "full_refit_s"}[spec.Latency]
	late := e2e
	overhead := 0.0
	if untraced != nil {
		late = untraced
		a, _ := untraced.get(name)
		b, _ := e2e.get(name)
		overhead = (b - a) / a * 100
	}
	res.add("trace.overhead_pct", overhead, 0)
	for _, n := range []string{"loadgen.late_ms_p90", "loadgen.late_ms_max"} {
		v, _ := late.get(n)
		res.add(n, v, 0)
	}
	return res, tracer.write(filepath.Join(o.WorkDir, spec.Name+"-spans.jsonl"))
}
