package store

import (
	"fmt"
	"sort"

	"latenttruth/internal/model"
	"latenttruth/internal/stats"
)

// Stats summarizes a dataset's shape, mirroring the corpus statistics the
// paper reports in §6.1.1.
type Stats struct {
	Entities       int
	Sources        int
	Facts          int
	Claims         int
	PositiveClaims int
	NegativeClaims int
	Labeled        int
	// FactsPerEntityMean and ClaimsPerFactMean describe density.
	FactsPerEntityMean float64
	ClaimsPerFactMean  float64
}

// Summarize computes Stats for ds.
func Summarize(ds *model.Dataset) Stats {
	positive := 0
	for _, c := range ds.Claims {
		if c.Observation {
			positive++
		}
	}
	return summarizeShape(ds, positive)
}

// summarizeShape is Summarize with the positive-claim count already known:
// everything else is read off ds's table sizes in O(1).
func summarizeShape(ds *model.Dataset, positive int) Stats {
	s := Stats{
		Entities:       ds.NumEntities(),
		Sources:        ds.NumSources(),
		Facts:          ds.NumFacts(),
		Claims:         ds.NumClaims(),
		PositiveClaims: positive,
		NegativeClaims: ds.NumClaims() - positive,
		Labeled:        len(ds.Labels),
	}
	if s.Entities > 0 {
		s.FactsPerEntityMean = float64(s.Facts) / float64(s.Entities)
	}
	if s.Facts > 0 {
		s.ClaimsPerFactMean = float64(s.Claims) / float64(s.Facts)
	}
	return s
}

// String renders the summary as a single line.
func (s Stats) String() string {
	return fmt.Sprintf("entities=%d sources=%d facts=%d claims=%d (+%d/-%d) labeled=%d",
		s.Entities, s.Sources, s.Facts, s.Claims, s.PositiveClaims, s.NegativeClaims, s.Labeled)
}

// SubsampleEntities returns a new dataset restricted to n uniformly sampled
// entities (all their facts, claims and labels), re-indexed densely. When
// n >= the number of entities the dataset is copied whole. Sampling is
// deterministic given rng.
func SubsampleEntities(ds *model.Dataset, n int, rng *stats.RNG) *model.Dataset {
	if n < 0 {
		panic("store: negative subsample size")
	}
	total := ds.NumEntities()
	if n > total {
		n = total
	}
	keep := rng.SampleWithoutReplacement(total, n)
	sort.Ints(keep)
	keepSet := make(map[int]bool, n)
	for _, e := range keep {
		keepSet[e] = true
	}
	return FilterEntities(ds, func(e int, _ string) bool { return keepSet[e] })
}

// FilterEntities returns a new dataset containing only entities for which
// keep returns true, with entities, sources, facts and claims re-indexed
// densely and labels carried over. Sources that no longer claim anything
// are dropped.
func FilterEntities(ds *model.Dataset, keep func(id int, name string) bool) *model.Dataset {
	out := &model.Dataset{Labels: make(map[int]bool)}

	entityMap := make(map[int]int)
	for e, name := range ds.Entities {
		if keep(e, name) {
			entityMap[e] = len(out.Entities)
			out.Entities = append(out.Entities, name)
		}
	}
	// Determine which sources survive.
	sourceMap := make(map[int]int)
	for _, c := range ds.Claims {
		if _, ok := entityMap[ds.Facts[c.Fact].Entity]; !ok {
			continue
		}
		if _, ok := sourceMap[c.Source]; !ok {
			sourceMap[c.Source] = -1 // mark; assign ids in source order below
		}
	}
	for s := range ds.Sources {
		if _, ok := sourceMap[s]; ok {
			sourceMap[s] = len(out.Sources)
			out.Sources = append(out.Sources, ds.Sources[s])
		}
	}
	// Facts.
	factMap := make(map[int]int)
	out.FactsByEntity = make([][]int, len(out.Entities))
	for _, f := range ds.Facts {
		ne, ok := entityMap[f.Entity]
		if !ok {
			continue
		}
		nf := len(out.Facts)
		factMap[f.ID] = nf
		out.Facts = append(out.Facts, model.Fact{ID: nf, Entity: ne, Attribute: f.Attribute})
		out.FactsByEntity[ne] = append(out.FactsByEntity[ne], nf)
	}
	// Claims, preserving original order.
	for _, c := range ds.Claims {
		nf, ok := factMap[c.Fact]
		if !ok {
			continue
		}
		out.Claims = append(out.Claims, model.Claim{
			Fact: nf, Source: sourceMap[c.Source], Observation: c.Observation,
		})
	}
	// Labels.
	for f, v := range ds.Labels {
		if nf, ok := factMap[f]; ok {
			out.Labels[nf] = v
		}
	}
	reindex(out)
	return out
}

// ConflictingOnly mimics the paper's construction of the movie corpus
// (§6.1.1): it keeps only entities that have at least minFacts facts and
// are covered by at least minSources sources, i.e. the records where
// conflict resolution actually matters.
func ConflictingOnly(ds *model.Dataset, minFacts, minSources int) *model.Dataset {
	return FilterEntities(ds, func(e int, _ string) bool {
		facts := ds.FactsByEntity[e]
		if len(facts) < minFacts {
			return false
		}
		srcs := make(map[int]struct{})
		for _, f := range facts {
			for _, ci := range ds.ClaimsByFact[f] {
				srcs[ds.Claims[ci].Source] = struct{}{}
			}
		}
		return len(srcs) >= minSources
	})
}

// Merge unions two datasets built from disjoint entity sets into one,
// aligning sources by name. It is used by the streaming substrate when
// accumulating arrived batches. Entities present in both inputs are
// rejected with an error because fact identity would become ambiguous.
func Merge(a, b *model.Dataset) (*model.Dataset, error) {
	seen := make(map[string]struct{}, len(a.Entities))
	for _, e := range a.Entities {
		seen[e] = struct{}{}
	}
	for _, e := range b.Entities {
		if _, dup := seen[e]; dup {
			return nil, fmt.Errorf("store: entity %q present in both datasets", e)
		}
	}
	out := &model.Dataset{Labels: make(map[int]bool)}
	out.Entities = append(append([]string{}, a.Entities...), b.Entities...)
	out.Sources = append([]string{}, a.Sources...)
	srcID := make(map[string]int, len(out.Sources))
	for i, s := range out.Sources {
		srcID[s] = i
	}
	bsrc := make([]int, len(b.Sources))
	for i, s := range b.Sources {
		id, ok := srcID[s]
		if !ok {
			id = len(out.Sources)
			out.Sources = append(out.Sources, s)
			srcID[s] = id
		}
		bsrc[i] = id
	}
	out.FactsByEntity = make([][]int, len(out.Entities))
	for _, f := range a.Facts {
		nf := len(out.Facts)
		out.Facts = append(out.Facts, model.Fact{ID: nf, Entity: f.Entity, Attribute: f.Attribute})
		out.FactsByEntity[f.Entity] = append(out.FactsByEntity[f.Entity], nf)
	}
	offE := len(a.Entities)
	offF := len(a.Facts)
	for _, f := range b.Facts {
		nf := len(out.Facts)
		out.Facts = append(out.Facts, model.Fact{ID: nf, Entity: f.Entity + offE, Attribute: f.Attribute})
		out.FactsByEntity[f.Entity+offE] = append(out.FactsByEntity[f.Entity+offE], nf)
	}
	for _, c := range a.Claims {
		out.Claims = append(out.Claims, c)
	}
	for _, c := range b.Claims {
		out.Claims = append(out.Claims, model.Claim{
			Fact: c.Fact + offF, Source: bsrc[c.Source], Observation: c.Observation,
		})
	}
	for f, v := range a.Labels {
		out.Labels[f] = v
	}
	for f, v := range b.Labels {
		out.Labels[f+offF] = v
	}
	reindex(out)
	return out, nil
}

// SplitEntities partitions ds into k datasets of near-equal entity counts,
// in entity order. It is the batch construction used by the streaming
// examples and tests. k must be positive.
func SplitEntities(ds *model.Dataset, k int) []*model.Dataset {
	n := ds.NumEntities()
	return SplitEntitiesFunc(ds, k, func(e int, _ string) int {
		// Contiguous near-equal ranges: entity e falls in partition i iff
		// floor(i*n/k) <= e < floor((i+1)*n/k), whose closed-form inverse
		// is i = floor(((e+1)*k - 1) / n).
		return ((e+1)*k - 1) / n
	})
}

// SplitEntitiesFunc partitions ds into k datasets by an arbitrary entity
// assignment: assign maps an entity (dataset id + name) to a partition
// index in [0, k). It is the general form behind SplitEntities and the
// construction the cluster router's entity-hash partitioning mirrors: each
// entity — and therefore each fact, claim, and label — lands in exactly
// one partition, so concatenating the parts preserves the claim/label
// multiset. k must be positive; assign results outside [0, k) panic.
func SplitEntitiesFunc(ds *model.Dataset, k int, assign func(id int, name string) int) []*model.Dataset {
	if k <= 0 {
		panic("store: SplitEntitiesFunc requires positive k")
	}
	part := make([]int, ds.NumEntities())
	for e, name := range ds.Entities {
		p := assign(e, name)
		if p < 0 || p >= k {
			panic("store: SplitEntitiesFunc assignment out of range")
		}
		part[e] = p
	}
	out := make([]*model.Dataset, 0, k)
	for i := 0; i < k; i++ {
		out = append(out, FilterEntities(ds, func(e int, _ string) bool {
			return part[e] == i
		}))
	}
	return out
}

// reindex rebuilds the claim indexes of a dataset assembled field-by-field.
func reindex(d *model.Dataset) {
	d.ClaimsByFact = make([][]int, len(d.Facts))
	d.ClaimsBySource = make([][]int, len(d.Sources))
	for i, c := range d.Claims {
		d.ClaimsByFact[c.Fact] = append(d.ClaimsByFact[c.Fact], i)
		d.ClaimsBySource[c.Source] = append(d.ClaimsBySource[c.Source], i)
	}
}
