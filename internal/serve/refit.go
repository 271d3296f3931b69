package serve

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"latenttruth/internal/core"
	"latenttruth/internal/integrate"
	"latenttruth/internal/model"
	"latenttruth/internal/obs"
	"latenttruth/internal/store"
	"latenttruth/internal/stream"
)

// ErrNoData is returned by Refit when no claims have ever been ingested.
var ErrNoData = errors.New("serve: no claims ingested yet")

// refitCarry is the unpublished remainder of a refit attempt that failed
// after its drain cut. The drained rows are already folded into the
// cumulative database and, on a durable primary, the refit marker is
// already in the WAL — so the failed attempt must be resolved (re-fit and
// published, without a second marker or drain) before any new refit runs.
// This is what keeps a live failed-fit primary from diverging against
// followers that replayed the orphan marker, and keeps the compacted
// row count from being lost across attempts.
type refitCarry struct {
	pending   bool
	override  RefitPolicy
	fresh     []model.Row
	dirty     map[string]struct{}
	oldest    time.Time
	compacted int
}

// Refit drains the mutation log, compacts it into the cumulative dataset,
// fits per the configured policy (override selects a specific policy for
// this refit only; empty means "use the configured one"), and publishes a
// new snapshot. Refits are serialized; readers keep serving the previous
// snapshot until the atomic swap. Drained rows are folded into the
// cumulative database before fitting, so a failed fit loses nothing — the
// next refit resolves the failed attempt first (same rows, same marker)
// and only then drains anew. On a durable server every published snapshot
// is also checkpointed and the WAL truncated behind the retention window,
// and a refit-marker control record is written at the drain cut so
// replication followers replay the same refit over the same rows.
//
// On a follower, Refit returns ErrFollower: the refit schedule is
// replicated from the primary (ApplyReplicated), never local.
func (s *Server) Refit(override RefitPolicy) (*Snapshot, error) {
	if s.cfg.FollowerOf != "" {
		return nil, ErrFollower
	}
	return s.refit(override, s.dur != nil)
}

// refit is the shared refit path. mark selects whether a refit marker is
// appended at the drain cut: true on a durable primary, false when the
// marker already exists in the log (follower marker replay, startup
// recovery of a marker the last checkpoint missed).
func (s *Server) refit(override RefitPolicy, mark bool) (*Snapshot, error) {
	if override != "" && !override.valid() {
		return nil, fmt.Errorf("serve: unknown refit policy %q", override)
	}
	s.mu.Lock()
	defer s.mu.Unlock()

	// The no-data check precedes the drain so an empty server never logs a
	// no-op refit marker.
	if s.db.Len() == 0 && s.ingest.Len() == 0 && !s.carry.pending {
		return nil, ErrNoData
	}

	// A pending carry is a drained-but-unpublished refit: its marker (if
	// any) is already in the log, so it is resolved under its own override
	// and WITHOUT a new marker. Followers replaying that orphan marker run
	// the very refit this resolution reproduces, which is what keeps
	// snapshot Seq aligned seq-for-seq. When the caller is itself a marker
	// replay (mark=false) with nothing further pending, the resolution IS
	// the requested refit. The resolution is its own traced span — its
	// drain phase is ~0 because the rows were drained by the failed
	// attempt it resolves.
	if s.carry.pending {
		snap, err := s.fitPublish(s.carry.override, drainResult{}, s.startRefitSpan())
		if err != nil {
			return nil, err
		}
		if !mark && s.ingest.Len() == 0 {
			return snap, nil
		}
	}

	// The span opens before the drain so its first phase times the drain
	// cut (and the marker append, on a durable primary).
	sp := s.startRefitSpan()
	var dr drainResult
	if mark {
		var err error
		if dr, err = s.ingest.DrainMark(func(dirty int) string {
			return refitNote(override, dirty)
		}); err != nil {
			s.warnf("serve: refit marker: %v (followers lag until the next marker)", err)
		}
	} else {
		dr = s.ingest.Drain()
	}
	return s.fitPublish(override, dr, sp)
}

// fitPublish runs one traced, instrumented fit-and-publish attempt:
// fitLocked does the work while sp tracks its drain → fit → publish
// phases; this wrapper closes the span (attaching the refit's identity
// attributes, or the error) and feeds the same durations into the refit
// histograms. Called under mu.
func (s *Server) fitPublish(override RefitPolicy, dr drainResult, sp *obs.Span) (*Snapshot, error) {
	snap, flips, err := s.fitLocked(override, dr, sp)
	if err != nil {
		if s.met != nil {
			s.met.refitErrors.Inc()
		}
		sp.SetAttr("error", err.Error())
		sp.End()
		return nil, err
	}
	sp.SetAttr("seq", snap.Seq).
		SetAttr("mode", string(snap.Mode)).
		SetAttr("policy", string(override)).
		SetAttr("compacted", snap.Compacted).
		SetAttr("dirty", snap.DirtyEntities).
		SetAttr("freshness_ms", float64(snap.Freshness)/float64(time.Millisecond)).
		SetAttr("flips", flips)
	total := sp.End()
	if s.met != nil {
		s.met.refits.With(string(snap.Mode)).Inc()
		s.met.refitSeconds.Observe(total.Seconds())
		for phase, d := range sp.PhaseDurations() {
			s.met.refitPhase.With(phase).Observe(d.Seconds())
		}
		s.met.decisionFlips.Add(uint64(flips))
	}
	return snap, nil
}

// fitLocked folds the drained rows into the cumulative database, merges
// any carried-over failed attempt, fits per policy, and publishes the
// snapshot, reporting how many thresholded truth decisions the publish
// flipped. Called under mu. On failure the merged drain state is stored
// in s.carry so nothing — rows, dirty set, freshness clock, or the
// compacted count — is lost across attempts.
func (s *Server) fitLocked(override RefitPolicy, dr drainResult, sp *obs.Span) (*Snapshot, int, error) {
	// fresh keeps only the rows the cumulative database had not seen, so
	// the online fast path never double-counts a retried batch.
	var newFresh []model.Row
	for _, r := range dr.rows {
		if s.db.AddRow(r) {
			newFresh = append(newFresh, r)
		}
	}
	// Drained rows are in db from here on (even if the fit below fails),
	// so the watermark the next successful checkpoint covers advances now.
	if dr.lastSeq > s.walSeqCompacted.Load() {
		s.walSeqCompacted.Store(dr.lastSeq)
	}
	if dr.total > s.totalCompacted {
		s.totalCompacted = dr.total
	}

	// Merge the carried failed attempt (if any) with this drain; from here
	// until the publish succeeds, the merged state IS the carry.
	fresh := append(append([]model.Row(nil), s.carry.fresh...), newFresh...)
	dirty := make(map[string]struct{}, len(s.carry.dirty)+len(dr.dirty))
	for e := range s.carry.dirty {
		dirty[e] = struct{}{}
	}
	for e := range dr.dirty {
		dirty[e] = struct{}{}
	}
	for _, r := range fresh {
		dirty[r.Entity] = struct{}{}
	}
	oldest := s.carry.oldest
	if oldest.IsZero() || (!dr.oldest.IsZero() && dr.oldest.Before(oldest)) {
		oldest = dr.oldest
	}
	compacted := s.carry.compacted + len(newFresh)
	s.carry = refitCarry{pending: true, override: override, fresh: fresh,
		dirty: dirty, oldest: oldest, compacted: compacted}

	policy := s.cfg.Policy
	if override != "" {
		policy = override
	}
	prev := s.snap.Load()

	// The drain phase ends here: rows folded, carry merged. Everything
	// until the snapshot swap is the fit.
	sp.Phase("fit")
	start := time.Now()
	if s.testFitErr != nil {
		if err := s.testFitErr(); err != nil {
			return nil, 0, err
		}
	}
	ds, ext, rm := s.refitDataset(prev, fresh, dirty)
	// The first refit (no accumulated quality yet), and every FullEvery-th
	// one under the fast-path policies, re-anchors quality with a full
	// engine fit. The dirty path also needs a dataset carried from the
	// previous snapshot and a clean remainder to condition on; without
	// them a full fit is the exact answer.
	done := s.refits.Load()
	full := policy == RefitFull || s.online == nil || !s.online.HasQuality() ||
		(s.cfg.FullEvery > 0 && done%int64(s.cfg.FullEvery) == 0) ||
		policy == RefitDirty && (rm == nil || ext != nil && ext.DirtyEntities == ext.Full.NumEntities())

	var (
		res           *model.Result
		quality       []model.SourceQuality
		mode          RefitPolicy
		dirtyEntities int
	)
	switch {
	case full:
		if err := s.ensureOnline(ds.NumFacts()); err != nil {
			return nil, 0, err
		}
		fit, err := s.online.Refit(ds)
		if err != nil {
			return nil, 0, fmt.Errorf("serve: full refit: %w", err)
		}
		res, quality, mode = fit.Result, fit.Quality, RefitFull
	case policy == RefitDirty && ext == nil:
		// A forced refit with nothing pending: republish the previous
		// serving state under the next sequence number.
		res, quality, mode = prev.Result, prev.Quality, RefitDirty
		rm.records = prev.Records
	case policy == RefitDirty:
		var err error
		if res, rm.records, err = s.dirtyFit(prev, ext, dirty); err != nil {
			return nil, 0, err
		}
		quality, mode, dirtyEntities = s.online.Quality(), RefitDirty, ext.DirtyEntities
	default: // RefitOnline
		if len(fresh) > 0 {
			if err := s.stepBatch(fresh); err != nil {
				return nil, 0, err
			}
		}
		var err error
		if res, err = s.online.Predict(ds); err != nil {
			return nil, 0, fmt.Errorf("serve: online refit: %w", err)
		}
		quality, mode = s.online.Quality(), RefitOnline
	}

	// The fit is done; building the read models, swapping the snapshot
	// and checkpointing is the publish phase.
	sp.Phase("publish")
	var freshness time.Duration
	if !oldest.IsZero() {
		freshness = time.Since(oldest)
	}
	snap, err := newSnapshot(done+1, ds, res, core.RankedQuality(quality),
		s.cfg.Threshold, mode, time.Since(start), compacted, freshness, rm)
	if err != nil {
		return nil, 0, fmt.Errorf("serve: building snapshot: %w", err)
	}
	snap.DirtyEntities = dirtyEntities
	// Every policy's published quality is core.QualityFromCounts over the
	// online accumulator's state (Refit replaces the counts with the full
	// fit's expected counts; the fast paths serve the accumulator
	// directly), so that state is the snapshot's quality basis for the
	// cluster-level cross-partition merge.
	if s.online != nil {
		st := s.online.State()
		snap.QualityCounts, snap.QualityPriors = st.Counts, st.Priors
	}
	flips := decisionFlips(prev, snap)
	s.carry = refitCarry{}
	s.snap.Store(snap)
	s.refits.Add(1)
	if mode == RefitFull {
		s.fullRefits.Add(1)
	}
	if mode == RefitDirty {
		s.dirtyRefits.Add(1)
	}
	if s.dur != nil {
		s.checkpoint(snap)
	}
	s.logf("serve: refit %d (%s): %d new rows (%d dirty entities), %s, %s",
		snap.Seq, mode, compacted, len(dirty), snap.Stats, snap.RefitDuration.Round(time.Millisecond))
	return snap, flips, nil
}

// refitDataset returns the dataset a refit fits over. §5.4's corpus is
// cumulative and a batch only appends rows to it, so once a snapshot
// exists the dataset is the previous one extended with the fresh rows
// (ext), or the previous one itself when nothing is pending (ext nil).
// rm then carries the previous snapshot's entity index and stats onto the
// dataset, leaving only the records to derive. model.BuildRows re-derives
// the whole corpus (rm nil) only for the first refit and, loudly, when the
// extension fails. Called under mu.
func (s *Server) refitDataset(prev *Snapshot, fresh []model.Row, dirty map[string]struct{}) (*model.Dataset, *store.Extension, *readModels) {
	if prev != nil {
		if len(fresh) == 0 && len(dirty) == 0 {
			return prev.Dataset, nil, carryReadModels(prev, nil)
		}
		var rd store.Reader
		if s.cfg.Storage == store.StorageSegments {
			// On the segment backend the dirty entities' claim history is
			// re-read through the reader, whose zone maps and blooms skip
			// every segment (and page) that holds no dirty entity — the
			// extension's I/O is proportional to the dirty set, not the
			// corpus.
			rd = s.db.Reader()
		}
		// The previous snapshot's entity index stands in for the name map
		// the extension would otherwise rebuild over every entity.
		ext, err := store.ExtendDirtyIndexed(prev.Dataset, prev.entityByName, fresh, dirty, rd)
		if err == nil {
			return ext.Full, ext, carryReadModels(prev, ext)
		}
		// A tracking invariant broke (should not happen); a rebuild from
		// every row is always correct, so fall back loudly rather than fail
		// the refit.
		s.warnf("serve: extending the previous dataset: %v; rebuilding it from every row", err)
	}
	return model.BuildRows(s.db.Rows()), nil, nil
}

// dirtyFit is §5.4's incremental learning scoped to the entities a batch
// touched: only the dirty-entity sub-dataset of the extension is re-swept
// against the accumulated per-source counts, and the new posteriors are
// scattered into a copy of the previous probability vector — clean
// entities keep their truth bit-for-bit. It returns the posterior over
// ext.Full and its merged records. Called under mu.
func (s *Server) dirtyFit(prev *Snapshot, ext *store.Extension, dirty map[string]struct{}) (*model.Result, []integrate.Record, error) {
	fit, err := s.online.StepDirty(ext.Sub, dirtyContribution(prev, dirty))
	if err != nil {
		return nil, nil, fmt.Errorf("serve: dirty refit: %w", err)
	}
	// Copy-on-write posterior: prev facts are a prefix of the extended
	// fact table, so the previous probabilities land index-for-index and
	// the dirty facts are overwritten from the sub fit.
	prob := make([]float64, ext.Full.NumFacts())
	copy(prob, prev.Result.Prob)
	for i, gf := range ext.SubFacts {
		prob[gf] = fit.Prob[i]
	}
	// Copy-on-write records: prev entities are a prefix of the extended
	// entity table, so clean entities keep their merged record untouched and
	// only the dirty (and new) entities' records are re-derived — from the
	// sub fit alone, keeping snapshot construction O(dirty), not O(corpus).
	subRecs, err := integrate.Merge(ext.Sub, fit.Result, s.cfg.Threshold)
	if err != nil {
		return nil, nil, fmt.Errorf("serve: dirty refit: %w", err)
	}
	records := make([]integrate.Record, ext.Full.NumEntities())
	copy(records, prev.Records)
	for i, ge := range ext.SubEntities {
		records[ge] = subRecs[i]
	}
	return &model.Result{Method: prev.Result.Method, Prob: prob}, records, nil
}

// dirtyContribution computes the dirty entities' expected confusion-count
// contribution under the previous snapshot's posterior, keyed by source
// name — the quantity StepDirty subtracts before re-fitting and replaces
// after (counts += new − prev). Entities are walked in ascending id order
// so the float accumulation order is deterministic across primaries,
// followers and recovery.
func dirtyContribution(prev *Snapshot, dirty map[string]struct{}) map[string][2][2]float64 {
	ids := make([]int, 0, len(dirty))
	for name := range dirty {
		if e, ok := prev.entityByName[name]; ok {
			ids = append(ids, e)
		}
	}
	sort.Ints(ids)
	ds, prob := prev.Dataset, prev.Result.Prob
	out := make(map[string][2][2]float64)
	for _, e := range ids {
		for _, f := range ds.FactsByEntity[e] {
			pt := prob[f]
			for _, ci := range ds.ClaimsByFact[f] {
				c := ds.Claims[ci]
				o := 0
				if c.Observation {
					o = 1
				}
				acc := out[ds.Sources[c.Source]]
				acc[1][o] += pt
				acc[0][o] += 1 - pt
				out[ds.Sources[c.Source]] = acc
			}
		}
	}
	return out
}

// stepBatch runs §5.4 full incremental learning on just the newly arrived
// rows: a Gibbs fit of the batch with the accumulated per-source quality
// priors, folding the batch's expected confusion counts into the
// accumulator (stream.Online.Step). Called under mu.
func (s *Server) stepBatch(rows []model.Row) error {
	if _, err := s.online.Step(model.BuildRows(rows)); err != nil {
		return fmt.Errorf("serve: online step: %w", err)
	}
	return nil
}

// ensureOnline lazily creates the §5.4 online state, sizing default priors
// to the first fitted dataset when the base config leaves them zero.
// Called under mu.
func (s *Server) ensureOnline(numFacts int) error {
	if s.online != nil {
		return nil
	}
	base := s.cfg.LTM
	if base.Priors == (core.Priors{}) {
		base.Priors = core.DefaultPriors(numFacts)
	}
	o, err := stream.NewOnline(base)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	s.online = o
	return nil
}

// RefitStats reports the server's refit counters.
type RefitStats struct {
	Refits      int64 `json:"refits"`
	FullRefits  int64 `json:"full_refits"`
	DirtyRefits int64 `json:"dirty_refits"`
}

// Refits returns the completed refit counters. It reads atomics, not mu,
// so stats queries are never blocked by an in-flight refit.
func (s *Server) Refits() RefitStats {
	return RefitStats{
		Refits:      s.refits.Load(),
		FullRefits:  s.fullRefits.Load(),
		DirtyRefits: s.dirtyRefits.Load(),
	}
}
