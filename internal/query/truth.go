package query

import (
	"errors"
	"fmt"
	"sort"
)

// Typed not-found errors: the single error path the engine, the snapshot
// accessors and the HTTP layer share (the HTTP layer maps all three to
// 404).
var (
	// ErrNoEntity reports an entity name absent from the snapshot.
	ErrNoEntity = errors.New("query: no such entity")
	// ErrNoFact reports an (entity, attribute) pair absent from the snapshot.
	ErrNoFact = errors.New("query: no such fact")
	// ErrNoSource reports a source name absent from the snapshot.
	ErrNoSource = errors.New("query: no such source")
)

// TruthOptions selects, orders and pages the truth table. The zero value
// streams every fact in id order.
type TruthOptions struct {
	// Entity restricts to one entity's facts (served via the entity
	// index, not a scan). Attribute additionally resolves to the single
	// (Entity, Attribute) fact and requires Entity.
	Entity    string
	Attribute string
	// Source restricts to facts the named source positively claimed
	// (served via the source's claim postings when it is the most
	// selective path available).
	Source string
	// MinProb keeps only facts with probability >= MinProb.
	MinProb float64
	// Predicted, when non-nil, keeps only facts whose thresholded
	// prediction equals *Predicted.
	Predicted *bool
	// TopK, when > 0, returns the k highest-probability matches in
	// decreasing order (ties broken by fact id) through a bounded heap.
	// Top-k output has no stable resume point, so it cannot be combined
	// with Cursor.
	TopK int
	// Limit, when > 0, ends the stream after Limit rows and makes
	// NextCursor return a resume token if matches remain.
	Limit int
	// Cursor resumes a previous query on the same snapshot. A cursor
	// minted by a different snapshot fails with ErrStaleCursor.
	Cursor string
}

// validate rejects option combinations with no defined meaning.
func (o TruthOptions) validate() error {
	if o.Attribute != "" && o.Entity == "" {
		return errors.New("query: attribute filter requires entity")
	}
	if o.MinProb < 0 || o.MinProb > 1 {
		return fmt.Errorf("query: min_prob %v outside [0,1]", o.MinProb)
	}
	if o.TopK < 0 {
		return fmt.Errorf("query: topk %d must be non-negative", o.TopK)
	}
	if o.Limit < 0 {
		return fmt.Errorf("query: limit %d must be non-negative", o.Limit)
	}
	if o.TopK > 0 && o.Cursor != "" {
		return errors.New("query: topk cannot be paginated with a cursor")
	}
	return nil
}

// compile builds the pushdown pipeline for opts: the most selective access
// path as the source, remaining predicates fused into one residual filter
// evaluated inside the scan.
func compile(v *View, opts TruthOptions) (factIter, error) {
	ds := v.Dataset
	var it factIter
	residualSource := false
	switch {
	case opts.Entity != "" && opts.Attribute != "":
		f, err := v.FactID(opts.Entity, opts.Attribute)
		if err != nil {
			return nil, err
		}
		it = &sliceIter{ids: []int{f}}
		residualSource = opts.Source != ""
	case opts.Entity != "":
		e, ok := v.EntityByName[opts.Entity]
		if !ok {
			return nil, ErrNoEntity
		}
		it = &sliceIter{ids: ds.FactsByEntity[e]}
		residualSource = opts.Source != ""
	case opts.Source != "":
		s := ds.SourceIndex(opts.Source)
		if s < 0 {
			return nil, ErrNoSource
		}
		it = &postingsIter{
			ids:   ds.ClaimsBySource[s],
			facts: func(ci int) int { return ds.Claims[ci].Fact },
			pos:   func(ci int) bool { return ds.Claims[ci].Observation },
		}
	default:
		it = &rangeIter{limit: ds.NumFacts()}
	}

	var preds []func(int) bool
	if residualSource {
		s := ds.SourceIndex(opts.Source)
		if s < 0 {
			return nil, ErrNoSource
		}
		preds = append(preds, func(f int) bool {
			for _, ci := range ds.ClaimsByFact[f] {
				if c := ds.Claims[ci]; c.Source == s {
					return c.Observation
				}
			}
			return false
		})
	}
	if opts.MinProb > 0 {
		floor := opts.MinProb
		preds = append(preds, func(f int) bool { return v.Prob[f] >= floor })
	}
	if opts.Predicted != nil {
		want := *opts.Predicted
		preds = append(preds, func(f int) bool { return (v.Prob[f] >= v.Threshold) == want })
	}
	switch len(preds) {
	case 0:
	case 1:
		it = &filterIter{in: it, keep: preds[0]}
	default:
		it = &filterIter{in: it, keep: func(f int) bool {
			for _, p := range preds {
				if !p(f) {
					return false
				}
			}
			return true
		}}
	}
	return it, nil
}

// pager pulls ids from a pipeline under a page limit and mints the resume
// cursor. When the limit is hit it peeks exactly one id further: if one
// exists the cursor points AT it, so the next page seeks straight to the
// first unserved match without re-evaluating any predicate.
type pager struct {
	seq     int64
	it      factIter
	limit   int
	emitted int
	done    bool
	next    string
}

func (p *pager) nextID() (int, bool) {
	if p.done {
		return 0, false
	}
	if p.limit > 0 && p.emitted == p.limit {
		if f, ok := p.it.next(); ok {
			p.next = encodeCursor(p.seq, f)
		}
		p.done = true
		return 0, false
	}
	f, ok := p.it.next()
	if !ok {
		p.done = true
		return 0, false
	}
	p.emitted++
	return f, true
}

// Rows is a streaming truth result: call Next until it reports false, then
// NextCursor for the resume token ("" when the result set is exhausted).
type Rows struct {
	v *View
	p pager
	// sorted holds top-k results (already ordered); nil for streams.
	sorted []scored
	pos    int
}

// scored is a heap/sort element: probability plus fact id.
type scored struct {
	p float64
	f int
}

// Next returns the next row of the result.
func (r *Rows) Next() (Row, bool) {
	if r.sorted != nil {
		if r.pos >= len(r.sorted) {
			return Row{}, false
		}
		f := r.sorted[r.pos].f
		r.pos++
		return r.v.row(f), true
	}
	f, ok := r.p.nextID()
	if !ok {
		return Row{}, false
	}
	return r.v.row(f), true
}

// NextCursor returns the opaque resume token after the stream ends, or ""
// when there is nothing left (top-k results never paginate).
func (r *Rows) NextCursor() string { return r.p.next }

// Truth compiles opts against v and returns the streaming result. Filters
// are evaluated inside the scan; nothing is materialized except the rows
// the caller pulls (or, for top-k, a k-bounded heap).
func Truth(v *View, opts TruthOptions) (*Rows, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	start, err := resolveCursor(v, opts.Cursor)
	if err != nil {
		return nil, err
	}
	it, err := compile(v, opts)
	if err != nil {
		return nil, err
	}
	if start > 0 {
		it.seek(start)
	}
	r := &Rows{v: v, p: pager{seq: v.Seq, it: it, limit: opts.Limit}}
	if opts.TopK > 0 {
		r.sorted = topK(v, it, opts.TopK)
		r.p.done = true
	}
	return r, nil
}

// topK drains the pipeline through a bounded min-heap: the root is always
// the weakest kept element, and a candidate only enters if it beats the
// root — O(n log k) time, O(k) space, no row materialization.
func topK(v *View, it factIter, k int) []scored {
	h := make([]scored, 0, k)
	// weaker orders by (probability, then higher fact id loses ties), so
	// the final sort — decreasing probability, increasing fact id — keeps
	// exactly the k best under a deterministic total order.
	weaker := func(a, b scored) bool {
		if a.p != b.p {
			return a.p < b.p
		}
		return a.f > b.f
	}
	siftDown := func(i int) {
		for {
			l, r := 2*i+1, 2*i+2
			m := i
			if l < len(h) && weaker(h[l], h[m]) {
				m = l
			}
			if r < len(h) && weaker(h[r], h[m]) {
				m = r
			}
			if m == i {
				return
			}
			h[i], h[m] = h[m], h[i]
			i = m
		}
	}
	for {
		f, ok := it.next()
		if !ok {
			break
		}
		c := scored{p: v.Prob[f], f: f}
		if len(h) < k {
			h = append(h, c)
			// Sift up.
			for i := len(h) - 1; i > 0; {
				parent := (i - 1) / 2
				if !weaker(h[i], h[parent]) {
					break
				}
				h[i], h[parent] = h[parent], h[i]
				i = parent
			}
			continue
		}
		if weaker(h[0], c) {
			h[0] = c
			siftDown(0)
		}
	}
	sort.Slice(h, func(i, j int) bool { return weaker(h[j], h[i]) })
	return h
}
