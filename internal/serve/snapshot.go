package serve

import (
	"maps"
	"time"

	"latenttruth/internal/core"
	"latenttruth/internal/integrate"
	"latenttruth/internal/model"
	"latenttruth/internal/query"
	"latenttruth/internal/store"
)

// Typed not-found and cursor errors, shared with the query engine so the
// snapshot accessors, the engine and the HTTP layer walk one error path
// (the HTTP layer maps the not-found triple to 404 and the stale cursor
// to 410 with a restart signal).
var (
	ErrNoEntity    = query.ErrNoEntity
	ErrNoFact      = query.ErrNoFact
	ErrNoSource    = query.ErrNoSource
	ErrStaleCursor = query.ErrStaleCursor
)

// TruthRow is one row of the served truth table: a fact with its posterior
// truth probability and thresholded prediction (Definition 4).
type TruthRow struct {
	Entity      string  `json:"entity"`
	Attribute   string  `json:"attribute"`
	Probability float64 `json:"probability"`
	Predicted   bool    `json:"predicted"`
}

// Snapshot is one immutable serving state: the compacted dataset paired
// with the fit that produced the current truth estimates, plus the derived
// read models (entity index, integrated record table, corpus stats) that
// make hot queries lookups instead of recomputation. Snapshots are
// built off the request path and published wholesale via an atomic pointer
// swap; all fields and methods are read-only after publication.
type Snapshot struct {
	// Seq is the monotonically increasing refit sequence number.
	Seq int64
	// Dataset is the compacted cumulative dataset the fit ran on.
	Dataset *model.Dataset
	// Result holds the per-fact truth probabilities.
	Result *model.Result
	// Quality is the per-source quality table in Table 8 order
	// (decreasing sensitivity).
	Quality []model.SourceQuality
	// Records is the cached integrated record table: one merged record per
	// entity at Threshold, in dataset entity order.
	Records []integrate.Record
	// Stats summarizes the dataset's shape.
	Stats store.Stats
	// Threshold is the integration threshold the truth table was cut at.
	Threshold float64
	// Mode is the refit policy that produced this snapshot ("full",
	// "online" or "dirty"); a snapshot restored from a checkpoint keeps
	// the mode its checkpoint recorded.
	Mode RefitPolicy
	// FittedAt and RefitDuration record when and how long the refit ran.
	FittedAt      time.Time
	RefitDuration time.Duration
	// Compacted is the number of mutation-log rows folded into this
	// snapshot's dataset (new rows, after de-duplication), including rows
	// carried over from failed refit attempts.
	Compacted int
	// Freshness is the ingest-to-publish staleness bound: how long the
	// oldest row folded into this snapshot waited between acceptance and
	// publication (zero when the refit drained nothing).
	Freshness time.Duration
	// DirtyEntities is the number of entities the dirty fast path re-swept
	// to produce this snapshot (zero for full and online refits).
	DirtyEntities int
	// QualityCounts is the per-source expected confusion-count basis of
	// Quality — the streaming accumulator's state at publish time, keyed by
	// source name and indexed [truth][observation]. Under every refit
	// policy Quality equals core.QualityFromCounts over these cells plus
	// QualityPriors, which is what lets a cluster router sum counts across
	// partitions and re-apply the closed form to get a merged quality table
	// on the same footing as a single fit. Nil on snapshots that predate a
	// fit (e.g. recovery with a dropped accumulator).
	QualityCounts map[string][2][2]float64
	// QualityPriors are the base Beta priors paired with QualityCounts.
	QualityPriors core.Priors

	// entityByName indexes entity ids by name; Records shares the same
	// order (integrate.Merge emits one record per entity in entity order).
	// Named facts resolve through it plus a scan of the entity's facts
	// (query.View.FactID). A refit that adds no entity shares its
	// predecessor's map; maps are never written after publication.
	entityByName map[string]int
	// view is the query engine's window onto this snapshot (shares the
	// dataset and index above; built once at publication).
	view query.View
}

// readModels are a snapshot's derived read structures when the caller can
// produce them cheaper than a from-scratch derivation: a refit carries the
// entity index and stats over from the previous snapshot (carryReadModels),
// and the dirty fast path patches its predecessor's records too, so
// publishing costs O(dirty), not O(corpus), beyond the records a full or
// online fit re-merges.
type readModels struct {
	// records are the merged records for the dataset, in entity order; nil
	// asks newSnapshot to merge them from the fit.
	records []integrate.Record
	// entityByName indexes every entity of the dataset by name.
	entityByName map[string]int
	// stats equals store.Summarize of the dataset.
	stats store.Stats
}

// carryReadModels derives the entity index and stats of ext.Full — or of
// prev's own dataset when ext is nil — from prev's: the entity index is
// shared outright when the extension added no entity, and otherwise cloned
// with only the new names added (entity ids are stable, so every old name
// keeps its id); the stats come from prev's plus the dirty facts'
// claim-count delta. The records are left to the caller.
func carryReadModels(prev *Snapshot, ext *store.Extension) *readModels {
	if ext == nil {
		return &readModels{entityByName: prev.entityByName, stats: prev.Stats}
	}
	idx := prev.entityByName
	if n0 := prev.Dataset.NumEntities(); ext.Full.NumEntities() > n0 {
		idx = maps.Clone(idx)
		for e, name := range ext.Full.Entities[n0:] {
			idx[name] = n0 + e
		}
	}
	return &readModels{entityByName: idx, stats: ext.Summarize(prev.Stats)}
}

// newSnapshot freezes the serving state. rm, when non-nil, supplies the
// entity index and stats carried from the previous snapshot, and the
// records too unless they are nil; nil derives everything here from ds
// and res.
func newSnapshot(seq int64, ds *model.Dataset, res *model.Result,
	quality []model.SourceQuality, threshold float64, mode RefitPolicy,
	dur time.Duration, compacted int, freshness time.Duration,
	rm *readModels) (*Snapshot, error) {

	if rm == nil {
		idx := make(map[string]int, len(ds.Entities))
		for e, name := range ds.Entities {
			idx[name] = e
		}
		rm = &readModels{entityByName: idx, stats: store.Summarize(ds)}
	}
	if rm.records == nil {
		records, err := integrate.Merge(ds, res, threshold)
		if err != nil {
			return nil, err
		}
		rm.records = records
	}
	sn := &Snapshot{
		Seq:           seq,
		Dataset:       ds,
		Result:        res,
		Quality:       quality,
		Records:       rm.records,
		Stats:         rm.stats,
		Threshold:     threshold,
		Mode:          mode,
		FittedAt:      time.Now(),
		RefitDuration: dur,
		Compacted:     compacted,
		Freshness:     freshness,
		entityByName:  rm.entityByName,
	}
	sn.view = query.View{
		Seq:          sn.Seq,
		Dataset:      ds,
		Prob:         res.Prob,
		Threshold:    threshold,
		Records:      rm.records,
		EntityByName: rm.entityByName,
	}
	return sn, nil
}

// NewQuerySnapshot builds a standalone queryable snapshot from a fitted
// dataset — the library entry point for running the streaming query engine
// (QueryTruth, QueryRecords, QueryAggregate) over any fit without a
// daemon. Seq is zero; pagination cursors minted by the snapshot stay
// valid for its lifetime.
func NewQuerySnapshot(ds *model.Dataset, res *model.Result, threshold float64) (*Snapshot, error) {
	return newSnapshot(0, ds, res, nil, threshold, "", 0, 0, 0, nil)
}

// row materializes the truth row of fact f.
func (sn *Snapshot) row(f int) TruthRow {
	fact := sn.Dataset.Facts[f]
	return TruthRow{
		Entity:      sn.Dataset.Entities[fact.Entity],
		Attribute:   fact.Attribute,
		Probability: sn.Result.Prob[f],
		Predicted:   sn.Result.Predict(f, sn.Threshold),
	}
}

// Truth returns the truth row of the named fact. It fails with ErrNoEntity
// when the entity is unknown and ErrNoFact when the entity exists but has
// no such attribute.
func (sn *Snapshot) Truth(entity, attribute string) (TruthRow, error) {
	f, err := sn.view.FactID(entity, attribute)
	if err != nil {
		return TruthRow{}, err
	}
	return sn.row(f), nil
}

// EntityTruth returns the truth rows of every fact of the named entity, in
// fact-id order, or ErrNoEntity.
func (sn *Snapshot) EntityTruth(entity string) ([]TruthRow, error) {
	e, ok := sn.entityByName[entity]
	if !ok {
		return nil, ErrNoEntity
	}
	facts := sn.Dataset.FactsByEntity[e]
	rows := make([]TruthRow, 0, len(facts))
	for _, f := range facts {
		rows = append(rows, sn.row(f))
	}
	return rows, nil
}

// AllTruth materializes the full truth table in fact-id order.
func (sn *Snapshot) AllTruth() []TruthRow {
	rows := make([]TruthRow, 0, sn.Dataset.NumFacts())
	for f := range sn.Dataset.Facts {
		rows = append(rows, sn.row(f))
	}
	return rows
}

// Record returns the cached integrated record of the named entity, or
// ErrNoEntity.
func (sn *Snapshot) Record(entity string) (integrate.Record, error) {
	e, ok := sn.entityByName[entity]
	if !ok {
		return integrate.Record{}, ErrNoEntity
	}
	return sn.Records[e], nil
}

// QueryTruth compiles opts against this snapshot and returns a streaming
// result: predicates are evaluated inside the scan (using the snapshot's
// entity index to skip rather than scan when a filter is selective), and
// nothing is materialized beyond the rows the caller pulls. Pagination
// cursors minted here resume exactly on this snapshot and fail with
// ErrStaleCursor on any other.
func (sn *Snapshot) QueryTruth(opts query.TruthOptions) (*query.Rows, error) {
	return query.Truth(&sn.view, opts)
}

// QueryRecords streams the integrated record table under the same
// filter/pagination contract as QueryTruth.
func (sn *Snapshot) QueryRecords(opts query.RecordOptions) (*query.RecordRows, error) {
	return query.Records(&sn.view, opts)
}

// QueryAggregate folds the facts matching opts into per-entity or
// per-source rollups without materializing any intermediate rows.
func (sn *Snapshot) QueryAggregate(by query.AggKind, opts query.TruthOptions) ([]query.Group, error) {
	return query.Aggregate(&sn.view, by, opts)
}
