package query

import (
	"latenttruth/internal/integrate"
	"latenttruth/internal/model"
)

// View is the read surface a query executes against: one immutable
// snapshot's dataset, truth probabilities and entity index. The index is
// shared with the snapshot that built the view — a View is a window, not a
// copy — so construction is O(1) and the engine reuses the access paths
// (EntityByName, Dataset.FactsByEntity, Dataset.ClaimsBySource) the
// serving layer already maintains.
//
// All fields are read-only after construction, matching the snapshot
// immutability contract; a View may be queried concurrently.
type View struct {
	// Seq is the refit sequence number cursors are bound to.
	Seq int64
	// Dataset is the fact/claim store the probabilities index into.
	Dataset *model.Dataset
	// Prob[f] is the truth probability of fact f.
	Prob []float64
	// Threshold is the prediction cut: Prob[f] >= Threshold is "true".
	Threshold float64
	// Records is the integrated record table in entity-id order; may be
	// nil on views that only serve truth queries.
	Records []integrate.Record

	// EntityByName indexes entity ids by name. Named facts resolve through
	// it plus a scan of the entity's FactsByEntity list (see FactID), so no
	// per-fact name index exists.
	EntityByName map[string]int
}

// FactID resolves the named fact: the entity lookup, then a scan of that
// entity's facts for the attribute — a handful of comparisons, which is
// what lets a snapshot skip building an O(facts) name map. It fails with
// ErrNoEntity when the entity is unknown and ErrNoFact when the entity has
// no such attribute.
func (v *View) FactID(entity, attribute string) (int, error) {
	e, ok := v.EntityByName[entity]
	if !ok {
		return 0, ErrNoEntity
	}
	for _, f := range v.Dataset.FactsByEntity[e] {
		if v.Dataset.Facts[f].Attribute == attribute {
			return f, nil
		}
	}
	return 0, ErrNoFact
}

// Row is one streamed truth row: the fact id plus the served fields. The
// engine yields rows one at a time; callers that need a page materialize
// exactly that page.
type Row struct {
	// Fact is the fact id within the view's snapshot (the pagination key).
	Fact int
	// Entity and Attribute name the fact.
	Entity    string
	Attribute string
	// Probability is the posterior truth probability.
	Probability float64
	// Predicted reports Probability >= the view's threshold.
	Predicted bool
}

// row materializes the truth row of fact f.
func (v *View) row(f int) Row {
	fact := v.Dataset.Facts[f]
	return Row{
		Fact:        f,
		Entity:      v.Dataset.Entities[fact.Entity],
		Attribute:   fact.Attribute,
		Probability: v.Prob[f],
		Predicted:   v.Prob[f] >= v.Threshold,
	}
}
