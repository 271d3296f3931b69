package store

import (
	"fmt"
	"sort"

	"latenttruth/internal/model"
)

// Dirty-entity incremental dataset extension (the data side of §5.4's
// incremental learning). A refit that knows which entities a batch touched
// does not need to re-derive the whole dataset: per Definitions 2–3, a
// fact's claims depend only on the rows of its own entity, so every clean
// entity's facts and claims are byte-for-byte what the previous dataset
// already holds. ExtendDirty exploits the append-only raw database: the
// previous dataset is Build(prefix), the fresh rows are the suffix, and
// only dirty entities are re-derived.

// Extension is the result of ExtendDirty.
type Extension struct {
	// Full is the complete extended dataset, bit-identical (reflect.DeepEqual)
	// to model.Build over the whole raw database.
	Full *model.Dataset
	// Sub is the dirty-entity sub-dataset, re-indexed densely: dirty
	// entities in ascending Full-entity-id order, their covering sources in
	// ascending Full-source-id order. A fit over Sub re-estimates exactly
	// the facts a batch could have moved.
	Sub *model.Dataset
	// SubFacts maps Sub fact ids to Full fact ids (scatter a Sub fit's
	// posterior back into a Full-sized result).
	SubFacts []int
	// SubEntities maps Sub entity ids to Full entity ids (scatter per-entity
	// read models derived from a Sub fit back into Full entity order).
	SubEntities []int
	// DirtyEntities is the number of dirty entities present in Full. When it
	// equals Full.NumEntities() there is no clean remainder to condition on
	// and the caller should fall back to a full refit.
	DirtyEntities int

	// positiveDelta is Full's positive-claim count minus prev's: the dirty
	// facts' re-derived positives minus the positives their previous claims
	// held (clean facts' claims are copied, so they contribute nothing).
	positiveDelta int
}

// Summarize returns Summarize(x.Full) given prev, the Summarize of the
// dataset x extended. It costs O(1): the shape is read off Full's table
// sizes and the positive-claim count is prev's plus the dirty facts'
// before/after difference ExtendDirty recorded — no pass over the claims.
func (x *Extension) Summarize(prev Stats) Stats {
	return summarizeShape(x.Full, prev.PositiveClaims+x.positiveDelta)
}

// ExtendDirty extends prev — the dataset built from an append-only raw
// database's first N rows — with the fresh rows appended since, re-deriving
// only the entities named in dirty. Every fresh row's entity must be dirty
// (that is the ingest-side tracking invariant); a violation is an error
// because silently treating the entity as clean would serve stale claims.
//
// Identifier assignment mirrors model.Build exactly: existing entity,
// source and fact ids are stable, and new ones are appended in
// first-appearance order over the fresh suffix — so Full is bit-identical
// to Build(prefix+fresh) while costing O(dirty claims + claim copy)
// instead of O(total rows) map work. Dirty names unknown to both prev and
// fresh are ignored (they come from de-duplicated re-ingests of rows the
// database already holds under an entity the previous snapshot covers).
func ExtendDirty(prev *model.Dataset, fresh []model.Row, dirty map[string]struct{}) (*Extension, error) {
	return extendDirty(prev, nil, fresh, dirty, nil)
}

// ExtendDirtyScan is ExtendDirty with the cover/positive sets derived from
// the raw rows themselves instead of prev's claim indexes: rd must be a
// point-in-time view of exactly the rows prev was built from plus fresh.
// The two derivations are provably equivalent — a dirty entity's covering
// sources are the sources holding any row on it, and a fact's positive
// sources the sources holding that row, whether enumerated from prev's
// fact-major claim table or from the rows — so the Extension is
// bit-identical. The difference is the access path: the scan consults the
// backend's zone maps and blooms, so a segment-backed store opens only
// segments intersecting the dirty entity set.
func ExtendDirtyScan(prev *model.Dataset, fresh []model.Row, dirty map[string]struct{}, rd Reader) (*Extension, error) {
	if rd == nil {
		return nil, fmt.Errorf("store: ExtendDirtyScan requires a reader")
	}
	return extendDirty(prev, nil, fresh, dirty, rd)
}

// ExtendDirtyIndexed is ExtendDirty (rd nil) or ExtendDirtyScan (rd
// non-nil) with prev's entity-name index supplied by the caller: index
// must map every prev entity name to its id, and is only read. A serving
// snapshot already holds that index, so the extension then builds no map
// proportional to the corpus — only the new entities' names are indexed.
// The Extension is identical to the one the unindexed forms return.
func ExtendDirtyIndexed(prev *model.Dataset, index map[string]int, fresh []model.Row, dirty map[string]struct{}, rd Reader) (*Extension, error) {
	if index == nil {
		return nil, fmt.Errorf("store: ExtendDirtyIndexed requires an entity index")
	}
	return extendDirty(prev, index, fresh, dirty, rd)
}

// extendDirty is the shared extension. prevIndex, when non-nil, is prev's
// read-only entity-name index; nil builds one here.
func extendDirty(prev *model.Dataset, prevIndex map[string]int, fresh []model.Row, dirty map[string]struct{}, rd Reader) (*Extension, error) {
	if prev == nil {
		return nil, fmt.Errorf("store: ExtendDirty requires a previous dataset")
	}
	nE0, nS0, nF0 := len(prev.Entities), len(prev.Sources), len(prev.Facts)

	// Full slice expressions pin capacity so appends below can never scribble
	// over prev's backing arrays (datasets are immutable once published).
	entities := prev.Entities[:nE0:nE0]
	sources := prev.Sources[:nS0:nS0]
	facts := prev.Facts[:nF0:nF0]
	fbe := append([][]int(nil), prev.FactsByEntity...)

	if prevIndex == nil {
		prevIndex = make(map[string]int, nE0)
		for e, name := range prev.Entities {
			prevIndex[name] = e
		}
	}
	// newEntityID indexes only the entities the fresh rows add; prevIndex
	// is never written (it may be shared with a published snapshot).
	newEntityID := make(map[string]int)
	entityID := func(name string) (int, bool) {
		if e, ok := prevIndex[name]; ok {
			return e, true
		}
		e, ok := newEntityID[name]
		return e, ok
	}
	sourceID := make(map[string]int, nS0)
	for s, name := range prev.Sources {
		sourceID[name] = s
	}

	// isDirty marks dirty entity ids; grows as fresh rows add entities.
	isDirty := make([]bool, nE0)
	for name := range dirty {
		if e, ok := prevIndex[name]; ok {
			isDirty[e] = true
		}
	}

	// factID covers only dirty entities' facts: fresh rows cannot reference
	// a clean entity's fact (enforced below), so the map stays O(dirty).
	factID := make(map[[2]string]int)
	for e := 0; e < nE0; e++ {
		if !isDirty[e] {
			continue
		}
		for _, f := range prev.FactsByEntity[e] {
			factID[[2]string{prev.Entities[e], facts[f].Attribute}] = f
		}
	}

	// posNew[f] / coverNew[e] are the positive and covering source sets the
	// fresh suffix adds, mirroring Build's positives/entitySources.
	posNew := make(map[int]map[int]struct{})
	coverNew := make(map[int]map[int]struct{})
	fbeCopied := make(map[int]bool)
	for i, r := range fresh {
		e, ok := entityID(r.Entity)
		if !ok {
			e = len(entities)
			newEntityID[r.Entity] = e
			entities = append(entities, r.Entity)
			fbe = append(fbe, nil)
			isDirty = append(isDirty, true)
		}
		if !isDirty[e] {
			return nil, fmt.Errorf("store: fresh row %d touches entity %q outside the dirty set", i, r.Entity)
		}
		s, ok := sourceID[r.Source]
		if !ok {
			s = len(sources)
			sourceID[r.Source] = s
			sources = append(sources, r.Source)
		}
		key := [2]string{r.Entity, r.Attribute}
		f, ok := factID[key]
		if !ok {
			f = len(facts)
			factID[key] = f
			facts = append(facts, model.Fact{ID: f, Entity: e, Attribute: r.Attribute})
			if e < nE0 && !fbeCopied[e] {
				fbe[e] = append([]int(nil), fbe[e]...)
				fbeCopied[e] = true
			}
			fbe[e] = append(fbe[e], f)
		}
		ps := posNew[f]
		if ps == nil {
			ps = make(map[int]struct{})
			posNew[f] = ps
		}
		ps[s] = struct{}{}
		cs := coverNew[e]
		if cs == nil {
			cs = make(map[int]struct{})
			coverNew[e] = cs
		}
		cs[s] = struct{}{}
	}

	// Dirty entity ids in ascending order: the deterministic iteration that
	// keeps replicas and recovery bit-identical to the primary.
	var dirtyIDs []int
	for e, d := range isDirty {
		if d {
			dirtyIDs = append(dirtyIDs, e)
		}
	}
	sort.Ints(dirtyIDs)

	// Per dirty entity: the sorted covering-source list. Per dirty fact:
	// the positive-source set. Two equivalent bases exist: the dataset
	// basis reads prev's claim indexes and unions the fresh additions; the
	// scan basis re-enumerates the dirty entities' raw rows through the
	// backend reader (which skips segments the dirty set cannot touch).
	// Both produce the same sets — prev's claims are a lossless encoding
	// of the prefix rows — so the resulting Extension is bit-identical.
	coverSets := make(map[int]map[int]struct{}, len(dirtyIDs))
	positives := make(map[int]map[int]struct{})
	dirtyFact := make([]bool, len(facts))
	for _, e := range dirtyIDs {
		coverSets[e] = make(map[int]struct{})
		for _, f := range fbe[e] {
			dirtyFact[f] = true
			positives[f] = make(map[int]struct{})
		}
	}
	if rd == nil {
		// Dataset basis: prev cover ∪ new, prev positives ∪ new.
		for _, e := range dirtyIDs {
			cs := coverSets[e]
			if e < nE0 {
				// All of an entity's facts share one covering set
				// (Definition 3), so the first fact's claim list enumerates it.
				first := prev.FactsByEntity[e][0]
				for _, ci := range prev.ClaimsByFact[first] {
					cs[prev.Claims[ci].Source] = struct{}{}
				}
			}
			for s := range coverNew[e] {
				cs[s] = struct{}{}
			}
			for _, f := range fbe[e] {
				ps := positives[f]
				if f < nF0 {
					for _, ci := range prev.ClaimsByFact[f] {
						if c := prev.Claims[ci]; c.Observation {
							ps[c.Source] = struct{}{}
						}
					}
				}
				for s := range posNew[f] {
					ps[s] = struct{}{}
				}
			}
		}
	} else {
		// Scan basis: one pass over the dirty entities' rows. Every
		// scanned row's ids are already assigned — prefix rows resolve
		// through prev, fresh rows through the loop above.
		probe := make(map[string]struct{}, len(dirtyIDs))
		for _, e := range dirtyIDs {
			probe[entities[e]] = struct{}{}
		}
		var scanErr error
		err := rd.ScanEntities(probe, func(r model.Row) {
			if scanErr != nil {
				return
			}
			e, okE := entityID(r.Entity)
			s, okS := sourceID[r.Source]
			f, okF := factID[[2]string{r.Entity, r.Attribute}]
			if !okE || !okS || !okF {
				scanErr = fmt.Errorf("store: scanned row (%q,%q,%q) references ids unknown to prev+fresh (stale reader?)",
					r.Entity, r.Attribute, r.Source)
				return
			}
			coverSets[e][s] = struct{}{}
			positives[f][s] = struct{}{}
		})
		if err == nil {
			err = scanErr
		}
		if err != nil {
			return nil, err
		}
	}
	cover := make(map[int][]int, len(dirtyIDs))
	for _, e := range dirtyIDs {
		cs := coverSets[e]
		sorted := make([]int, 0, len(cs))
		for s := range cs {
			sorted = append(sorted, s)
		}
		sort.Ints(sorted)
		cover[e] = sorted
	}

	// Exact claim total, counted before allocating so the claim array is
	// never re-grown (a new covering source adds a claim to every fact of
	// its entity, which a len(prev)+len(fresh) guess undercounts): every
	// previous claim of a clean fact is copied, and every dirty fact gets
	// one claim per covering source of its entity. The same pass records
	// the positive-claim delta Summarize needs.
	total, positiveDelta := len(prev.Claims), 0
	for _, e := range dirtyIDs {
		for _, f := range fbe[e] {
			total += len(cover[e])
			positiveDelta += len(positives[f])
			if f < nF0 {
				total -= len(prev.ClaimsByFact[f])
				for _, ci := range prev.ClaimsByFact[f] {
					if prev.Claims[ci].Observation {
						positiveDelta--
					}
				}
			}
		}
	}

	// Emit claims fact-major, exactly as Build does: clean facts copy their
	// previous claims wholesale (prev.Claims is fact-major, so consecutive
	// clean facts form one contiguous copyable run), dirty facts re-derive
	// from cover/positives with sources in ascending id order.
	claims := make([]model.Claim, 0, total)
	runStart, runEnd := -1, -1
	flush := func() {
		if runStart >= 0 {
			claims = append(claims, prev.Claims[runStart:runEnd]...)
			runStart = -1
		}
	}
	for f := range facts {
		if !dirtyFact[f] {
			r := prev.ClaimsByFact[f]
			if runStart < 0 {
				runStart = r[0]
			}
			runEnd = r[len(r)-1] + 1
			continue
		}
		flush()
		ps := positives[f]
		for _, s := range cover[facts[f].Entity] {
			_, pos := ps[s]
			claims = append(claims, model.Claim{Fact: f, Source: s, Observation: pos})
		}
	}
	flush()

	full := &model.Dataset{
		Entities:      entities,
		Sources:       sources,
		Facts:         facts,
		Claims:        claims,
		FactsByEntity: fbe,
		Labels:        make(map[int]bool, len(prev.Labels)),
	}
	for f, v := range prev.Labels {
		full.Labels[f] = v
	}
	reindexContiguous(full)

	sub, subFacts := buildDirtySub(full, dirtyIDs, cover, positives)
	return &Extension{Full: full, Sub: sub, SubFacts: subFacts, SubEntities: dirtyIDs,
		DirtyEntities: len(dirtyIDs), positiveDelta: positiveDelta}, nil
}

// reindexContiguous rebuilds ClaimsByFact and ClaimsBySource over a
// fact-major claim table using flat backing arrays: ClaimsByFact[f] is a
// window over one shared index slice (claim i sits at index i), and
// ClaimsBySource is filled with a counting pass — no per-fact append churn.
func reindexContiguous(d *model.Dataset) {
	idx := make([]int, len(d.Claims))
	for i := range idx {
		idx[i] = i
	}
	d.ClaimsByFact = make([][]int, len(d.Facts))
	i := 0
	for i < len(d.Claims) {
		f := d.Claims[i].Fact
		j := i
		for j < len(d.Claims) && d.Claims[j].Fact == f {
			j++
		}
		d.ClaimsByFact[f] = idx[i:j:j]
		i = j
	}

	cnt := make([]int, len(d.Sources))
	for _, c := range d.Claims {
		cnt[c.Source]++
	}
	flat := make([]int, len(d.Claims))
	d.ClaimsBySource = make([][]int, len(d.Sources))
	off := 0
	for s, n := range cnt {
		d.ClaimsBySource[s] = flat[off : off : off+n]
		off += n
	}
	for i, c := range d.Claims {
		d.ClaimsBySource[c.Source] = append(d.ClaimsBySource[c.Source], i)
	}
}

// buildDirtySub assembles the dense dirty-entity sub-dataset from the
// cover/positive sets ExtendDirty already derived. Entity order is
// ascending full-entity id, source order ascending full-source id — both
// order-preserving maps, so claims sorted by full source id are also
// sorted by sub source id (the Build invariant).
func buildDirtySub(full *model.Dataset, dirtyIDs []int, cover map[int][]int, positives map[int]map[int]struct{}) (*model.Dataset, []int) {
	sub := &model.Dataset{Labels: make(map[int]bool)}

	srcSet := make(map[int]struct{})
	for _, e := range dirtyIDs {
		for _, s := range cover[e] {
			srcSet[s] = struct{}{}
		}
	}
	srcIDs := make([]int, 0, len(srcSet))
	for s := range srcSet {
		srcIDs = append(srcIDs, s)
	}
	sort.Ints(srcIDs)
	subSrc := make(map[int]int, len(srcIDs))
	for i, s := range srcIDs {
		subSrc[s] = i
		sub.Sources = append(sub.Sources, full.Sources[s])
	}

	var subFacts []int
	sub.FactsByEntity = make([][]int, 0, len(dirtyIDs))
	for _, e := range dirtyIDs {
		se := len(sub.Entities)
		sub.Entities = append(sub.Entities, full.Entities[e])
		var sf []int
		for _, f := range full.FactsByEntity[e] {
			id := len(sub.Facts)
			sub.Facts = append(sub.Facts, model.Fact{ID: id, Entity: se, Attribute: full.Facts[f].Attribute})
			subFacts = append(subFacts, f)
			sf = append(sf, id)
			if v, ok := full.Labels[f]; ok {
				sub.Labels[id] = v
			}
			ps := positives[f]
			for _, s := range cover[e] {
				_, pos := ps[s]
				sub.Claims = append(sub.Claims, model.Claim{Fact: id, Source: subSrc[s], Observation: pos})
			}
		}
		sub.FactsByEntity = append(sub.FactsByEntity, sf)
	}
	reindexContiguous(sub)
	return sub, subFacts
}
