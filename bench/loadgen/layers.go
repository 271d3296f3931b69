package loadgen

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"latenttruth/internal/core"
	"latenttruth/internal/dataset"
	"latenttruth/internal/integrate"
	"latenttruth/internal/model"
	"latenttruth/internal/obs"
	"latenttruth/internal/query"
	"latenttruth/internal/serve"
	"latenttruth/internal/store"
	"latenttruth/internal/wal"
)

// scrape reads a registry back through its Prometheus exposition — the
// bytes GET /metrics serves — and flattens every sample except histogram
// buckets to "name{label=value,...}" → value.
func scrape(reg *obs.Registry) (map[string]float64, error) {
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		return nil, err
	}
	return parseScrape(&buf)
}

func parseScrape(r io.Reader) (map[string]float64, error) {
	fams, err := obs.ParseExposition(r)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, f := range fams {
		for _, s := range f.Samples {
			if s.Suffix == "_bucket" {
				continue
			}
			var labels []string
			for _, l := range s.Labels {
				labels = append(labels, l.Name+"="+l.Value)
			}
			key := f.Name + s.Suffix
			if len(labels) > 0 {
				key += "{" + strings.Join(labels, ",") + "}"
			}
			out[key] = s.Value
		}
	}
	return out, nil
}

// deltas is the change of a registry between two scrapes.
type deltas struct{ before, after map[string]float64 }

func (d deltas) get(key string) float64 { return d.after[key] - d.before[key] }

// sum adds up the deltas of every key with the given prefix.
func (d deltas) sum(prefix string) float64 {
	s := 0.0
	for k := range d.after {
		if strings.HasPrefix(k, prefix) {
			s += d.get(k)
		}
	}
	return s
}

// meanOf is a histogram's mean over the delta, scaled; 0 with no samples.
func (d deltas) meanOf(family, labels string, scale float64) float64 {
	n := d.get(family + "_count" + labels)
	if n == 0 {
		return 0
	}
	return d.get(family+"_sum"+labels) / n * scale
}

// refitLoop drives Server.Refit("") every period while claims are
// pending — the rule the server's own timer uses — and times each call.
type refitLoop struct {
	stopc chan struct{}
	done  chan struct{}
	walls []time.Duration
	dirty []float64
	err   error
}

func startRefitLoop(srv *serve.Server, tr *tracer, period time.Duration) *refitLoop {
	l := &refitLoop{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(l.done)
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-l.stopc:
				return
			case <-t.C:
			}
			if srv.Pending() == 0 {
				continue
			}
			start := tr.now()
			sn, err := srv.Refit("")
			end := tr.now()
			tr.add(span{ID: tr.next.Add(1), Name: "serve.refit", Start: start, End: end})
			if err != nil {
				l.err = fmt.Errorf("refit: %w", err)
				return
			}
			l.walls = append(l.walls, end-start)
			l.dirty = append(l.dirty, float64(sn.DirtyEntities))
		}
	}()
	return l
}

// stop ends the loop and returns its first error. A loop that was never
// started (the zero value) stops at once.
func (l *refitLoop) stop() error {
	if l.stopc == nil {
		return nil
	}
	close(l.stopc)
	<-l.done
	return l.err
}

// sweepCalls is how many requests the traced run sends to each route
// after the window, so every route has handler and transport times on
// every workload. The POSTs re-send preload rows: the server de-duplicates
// them, so the corpus is unchanged, and they leave claims pending, so the
// final refit runs through POST /refit on every workload.
const sweepCalls = 30

func sweep(s *session, c *Corpus, seed int64) (acked int) {
	for k := 0; k < sweepCalls; k++ {
		lo := k * batchRows % len(c.Preload)
		rows := c.Preload[lo:min(lo+batchRows, len(c.Preload))]
		r := s.do(call{Route: "post_claims", Method: http.MethodPost, Target: "/claims", Body: claimsBody(rows), Batch: -1})
		if r.ok() {
			acked += len(rows)
		}
	}
	for _, route := range replayRoutes {
		for _, rd := range readMix(c, []weighted{{route, 1, 0}}, sweepCalls, seed) {
			s.do(call{Route: rd.Route, Method: http.MethodGet, Target: rd.target()})
		}
	}
	for k := 0; k < sweepCalls; k++ {
		s.do(call{Route: "healthz", Method: http.MethodGet, Target: "/healthz"})
	}
	return acked
}

// layerRun is what the traced run hands the per-layer accounting.
type layerRun struct {
	spec    Spec
	c       *Corpus
	tracer  *tracer
	reg     deltas
	loop    *refitLoop
	elapsed time.Duration // window start to the end of the final refit
	fin     *final
	sn      *serve.Snapshot
	dataDir string
	scratch string
	seed    int64
}

// replayReads is how many reads of the read_snapshot mix the query and
// store replays run.
const replayReads = 2000

// scanReplays is how many entity scans the store replay times; a memory
// backend scans every row per call.
const scanReplays = 100

// fitIterations is the server's default Gibbs iteration count.
const fitIterations = 100

// addLayers records every per-layer metric except trace.overhead_pct and
// loadgen.late_*. The server must already be stopped: the store replay
// reopens its segments.
func addLayers(res *Result, in layerRun) error {
	handler, transport := in.tracer.routeTimes()
	for _, r := range httpRoutes {
		res.add("http."+r+".handler_ms_p50", median(handler[r]), len(handler[r]))
		res.add("http."+r+".transport_ms_p50", median(transport[r]), len(transport[r]))
	}

	count := in.reg.sum("refit_total{")
	wall, phases := 0.0, 0.0
	for _, w := range in.loop.walls {
		wall += ms(w)
	}
	for _, h := range handler["post_refit"] {
		wall += h
	}
	res.add("refit.count", count, 0)
	res.add("refit.busy_share", wall/ms(in.elapsed), 0)
	for _, p := range []string{"drain", "fit", "publish"} {
		labels := "{phase=" + p + "}"
		res.add("refit."+p+"_ms_mean", in.reg.meanOf("refit_phase_seconds", labels, 1e3), int(in.reg.get("refit_phase_seconds_count"+labels)))
		phases += in.reg.get("refit_phase_seconds_sum"+labels) * 1e3
	}
	res.add("refit.dirty_entities_mean", mean(in.loop.dirty), len(in.loop.dirty))
	gap := 0.0
	if count > 0 {
		gap = (wall - phases) / count
	}
	res.add("refit.gap_ms_mean", gap, int(count))

	if err := addWAL(res, in); err != nil {
		return err
	}

	rows := append([]model.Row(nil), in.c.Preload...)
	for _, b := range in.c.Batches {
		rows = append(rows, b...)
	}
	reads := readMix(in.c, specs[ReadSnapshot].ReadMix, replayReads, in.seed)
	queryUS, err := replayQueries(in.sn, reads)
	if err != nil {
		return err
	}
	scanUS, err := replayScans(in, rows, readMix(in.c, []weighted{{"claims_entity", 1, 0}}, scanReplays, in.seed))
	if err != nil {
		return err
	}
	if err := addStore(res, in, rows, scanUS); err != nil {
		return err
	}
	if err := addCompute(res, rows); err != nil {
		return err
	}
	for _, r := range []string{"truth_entity", "records_entity", "truth_source", "truth_topk", "truth_agg"} {
		name := "query." + r + "_us"
		if r == "truth_agg" {
			name = "query.agg_source_us"
		}
		res.add(name, median(queryUS[r]), len(queryUS[r]))
	}
	queryUS["claims_entity"] = scanUS
	for _, r := range replayRoutes {
		res.add("gap."+r+"_us", median(handler[r])*1e3-median(queryUS[r]), len(handler[r]))
	}
	return nil
}

// addWAL records the wal.* metrics: registry deltas of the live server
// when it has a WAL, otherwise a replay of 200 batches and one checkpoint
// of the final state into a scratch directory.
func addWAL(res *Result, in layerRun) error {
	d, chkDir := in.reg, wal.CheckpointDir(in.dataDir)
	if !in.spec.Durable {
		var err error
		if d, chkDir, err = replayWAL(in.scratch, in.c, in.sn); err != nil {
			return fmt.Errorf("wal replay: %w", err)
		}
	}
	res.add("wal.append_us_mean", d.meanOf("wal_append_seconds", "", 1e6), int(d.get("wal_append_seconds_count")))
	res.add("wal.fsync_us_mean", d.meanOf("wal_fsync_seconds", "", 1e6), int(d.get("wal_fsync_seconds_count")))
	res.add("wal.fsync_count", d.get("wal_fsync_seconds_count"), 0)
	res.add("wal.checkpoint_ms_mean", d.meanOf("checkpoint_seconds", "", 1e3), int(d.get("checkpoint_seconds_count")))
	mb, err := newestCheckpointMB(chkDir)
	if err != nil {
		return err
	}
	res.add("wal.checkpoint_mb_mean", mb, 1)
	return nil
}

// walReplayBatches is how many preload batches the WAL replay appends.
const walReplayBatches = 200

func replayWAL(dir string, c *Corpus, sn *serve.Snapshot) (deltas, string, error) {
	reg := obs.NewRegistry()
	appendH := reg.Histogram("wal_append_seconds", "", nil)
	fsyncH := reg.Histogram("wal_fsync_seconds", "", nil)
	chkH := reg.Histogram("checkpoint_seconds", "", nil)
	log, _, err := wal.Open(wal.Options{Dir: filepath.Join(dir, "wal"), Sync: wal.SyncInterval,
		Metrics: &wal.Metrics{AppendSeconds: appendH.Observe, FsyncSeconds: fsyncH.Observe}})
	if err != nil {
		return deltas{}, "", err
	}
	for k := 0; k < walReplayBatches && (k+1)*batchRows <= len(c.Preload); k++ {
		if _, err := log.Append(c.Preload[k*batchRows : (k+1)*batchRows]); err != nil {
			log.Close()
			return deltas{}, "", err
		}
	}
	if err := log.Sync(); err != nil {
		log.Close()
		return deltas{}, "", err
	}
	if err := log.Close(); err != nil {
		return deltas{}, "", err
	}
	chkDir := filepath.Join(dir, "checkpoints")
	st, err := wal.OpenStore(chkDir)
	if err != nil {
		return deltas{}, "", err
	}
	start := time.Now()
	err = st.Write(wal.Manifest{Seq: sn.Seq},
		func(w io.Writer) error { return writeTriples(w, sn.Dataset) },
		func(w io.Writer) error { return dataset.WriteQuality(w, sn.Quality) },
		func(w io.Writer) error { return dataset.WritePosterior(w, sn.Dataset, sn.Result.Prob) })
	if err != nil {
		return deltas{}, "", err
	}
	chkH.Observe(time.Since(start).Seconds())
	after, err := scrape(reg)
	return deltas{after: after}, chkDir, err
}

// writeTriples writes a dataset's positive claims as a triples CSV — the
// file a memory-backed checkpoint holds.
func writeTriples(w io.Writer, ds *model.Dataset) error {
	rows := make([]model.Row, 0, ds.NumClaims())
	for _, c := range ds.Claims {
		if c.Observation {
			f := ds.Facts[c.Fact]
			rows = append(rows, model.Row{Entity: ds.Entities[f.Entity], Attribute: f.Attribute, Source: ds.Sources[c.Source]})
		}
	}
	return dataset.WriteTriplesRows(w, rows)
}

// newestCheckpointMB is the size of the newest chk-* directory under dir.
func newestCheckpointMB(dir string) (float64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), "chk-") {
			names = append(names, e.Name())
		}
	}
	if len(names) == 0 {
		return 0, fmt.Errorf("no checkpoint under %s", dir)
	}
	sort.Strings(names)
	files, err := os.ReadDir(filepath.Join(dir, names[len(names)-1]))
	if err != nil {
		return 0, err
	}
	var bytes int64
	for _, f := range files {
		info, err := f.Info()
		if err != nil {
			return 0, err
		}
		bytes += info.Size()
	}
	return float64(bytes) / (1 << 20), nil
}

// replayQueries runs reads through the final snapshot's query engine and
// returns each route's times in µs.
func replayQueries(sn *serve.Snapshot, reads []read) (map[string][]float64, error) {
	out := make(map[string][]float64)
	for _, r := range reads {
		start := time.Now()
		var err error
		switch r.Route {
		case "truth_entity", "truth_source", "truth_topk":
			opts := query.TruthOptions{Entity: r.Entity}
			if r.Route == "truth_source" {
				opts = query.TruthOptions{Source: r.Source, Limit: 100}
			} else if r.Route == "truth_topk" {
				opts = query.TruthOptions{TopK: 100}
			}
			var rows *query.Rows
			if rows, err = sn.QueryTruth(opts); err == nil {
				for _, ok := rows.Next(); ok; _, ok = rows.Next() {
				}
			}
		case "records_entity":
			var recs *query.RecordRows
			if recs, err = sn.QueryRecords(query.RecordOptions{Entity: r.Entity}); err == nil {
				for _, ok := recs.Next(); ok; _, ok = recs.Next() {
				}
			}
		case "truth_agg":
			_, err = sn.QueryAggregate(query.AggBySource, query.TruthOptions{})
		}
		if err != nil {
			return nil, fmt.Errorf("replaying %s: %w", r.target(), err)
		}
		out[r.Route] = append(out[r.Route], float64(time.Since(start))/float64(time.Microsecond))
	}
	return out, nil
}

// replayScans times query.ScanClaims for each read's entity over a reader
// of the workload's storage kind holding the final rows: the server's own
// reopened segments, or a memory backend.
func replayScans(in layerRun, rows []model.Row, reads []read) ([]float64, error) {
	var rd store.Reader
	if in.spec.Storage == store.StorageSegments {
		rec, err := wal.Recover(in.dataDir, wal.Options{})
		if err != nil {
			return nil, err
		}
		if err := rec.Log.Close(); err != nil {
			return nil, err
		}
		sb, err := store.OpenSegmentBacked(wal.SegmentDir(in.dataDir), rec.Segments, rec.DB)
		if err != nil {
			return nil, err
		}
		defer sb.Close()
		for _, b := range rec.Tail {
			for _, r := range b.Rows {
				sb.AddRow(r)
			}
		}
		rd = sb.Reader()
	} else {
		db := model.NewRawDB()
		for _, r := range rows {
			db.AddRow(r)
		}
		rd = store.NewMemoryFrom(db).Reader()
	}
	var us []float64
	for _, r := range reads {
		start := time.Now()
		if _, err := query.ScanClaims(rd, query.ClaimsOptions{Entity: r.Entity}); err != nil {
			return nil, err
		}
		us = append(us, float64(time.Since(start))/float64(time.Microsecond))
	}
	return us, nil
}

// extendRows is one refit's drain at write_dirty's first rate: 1600
// claims/s over the 100 ms refit period.
const extendRows = 160

// addStore records the store.* metrics.
func addStore(res *Result, in layerRun, rows []model.Row, scanUS []float64) error {
	cut := len(rows) - extendRows
	prev := model.BuildRows(rows[:cut])
	fresh := rows[cut:]
	dirty := make(map[string]struct{})
	for _, r := range fresh {
		dirty[r.Entity] = struct{}{}
	}
	var ext *store.Extension
	var err error
	d := timeIt(3, func() { ext, err = store.ExtendDirty(prev, fresh, dirty) })
	if err != nil {
		return err
	}
	res.add("store.extend_dirty_ms", ms(d), 3)
	res.add("store.extend_useful_ratio", float64(ext.Sub.NumClaims())/float64(ext.Full.NumClaims()), 0)
	res.add("store.scan_entity_us", median(scanUS), len(scanUS))
	st := in.fin.Storage
	skipped := 0.0
	if n := st.SegmentsSkipped + st.SegmentsScanned; n > 0 {
		skipped = float64(st.SegmentsSkipped) / float64(n)
	}
	res.add("store.segments_skipped_ratio", skipped, int(st.SegmentsSkipped+st.SegmentsScanned))
	res.add("store.resident_rows", float64(st.Resident), 0)
	return nil
}

// addCompute records model.build_ms, core.compile_ms,
// core.sweep_ns_per_claim and integrate.merge_ms over the final rows.
func addCompute(res *Result, rows []model.Row) error {
	var ds *model.Dataset
	res.add("model.build_ms", ms(timeIt(3, func() { ds = model.BuildRows(rows) })), 3)
	var eng *core.Engine
	res.add("core.compile_ms", ms(timeIt(3, func() { eng = core.Compile(ds) })), 3)
	start := time.Now()
	fit, err := eng.Fit(core.Config{Seed: serverSeed, Iterations: fitIterations})
	if err != nil {
		return err
	}
	res.add("core.sweep_ns_per_claim", float64(time.Since(start))/float64(fitIterations*ds.NumClaims()), 1)
	d := timeIt(3, func() { _, err = integrate.Merge(ds, fit.Result, 0.5) })
	if err != nil {
		return err
	}
	res.add("integrate.merge_ms", ms(d), 3)
	return nil
}

// timeIt runs fn reps times and returns the median duration.
func timeIt(reps int, fn func()) time.Duration {
	var xs []float64
	for range reps {
		start := time.Now()
		fn()
		xs = append(xs, float64(time.Since(start)))
	}
	return time.Duration(median(xs))
}
