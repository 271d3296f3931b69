package store

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"latenttruth/internal/model"
)

// randomRows generates a deterministic random corpus: entities pick
// attribute values from a small per-attribute domain, asserted by random
// source subsets, with duplicates impossible (RawDB-style de-dup applied
// by the caller's AddRow).
func randomRows(rng *rand.Rand, entities, attrs, srcs, rows int) []model.Row {
	out := make([]model.Row, 0, rows)
	for i := 0; i < rows; i++ {
		out = append(out, model.Row{
			Entity:    fmt.Sprintf("e%03d", rng.Intn(entities)),
			Attribute: fmt.Sprintf("a%d=v%d", rng.Intn(attrs), rng.Intn(3)),
			Source:    fmt.Sprintf("s%02d", rng.Intn(srcs)),
		})
	}
	return out
}

// TestExtendDirtyMatchesBuild is the core property: for random corpora,
// random prefix cuts and random extra-dirty entities, the extended full
// dataset is bit-identical (reflect.DeepEqual) to model.Build over the
// whole database.
func TestExtendDirtyMatchesBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		rows := randomRows(rng, 2+rng.Intn(20), 1+rng.Intn(4), 1+rng.Intn(8), 1+rng.Intn(120))

		db := model.NewRawDB()
		var distinct []model.Row
		for _, r := range rows {
			if db.AddRow(r) {
				distinct = append(distinct, r)
			}
		}
		cut := 1 + rng.Intn(len(distinct))
		prefix := model.NewRawDB()
		for _, r := range distinct[:cut] {
			prefix.AddRow(r)
		}
		prev := model.Build(prefix)

		fresh := distinct[cut:]
		dirty := make(map[string]struct{})
		for _, r := range fresh {
			dirty[r.Entity] = struct{}{}
		}
		// Extra dirty entities that saw no fresh rows (de-duplicated
		// re-ingests) must be harmless, as must unknown names.
		for i := 0; i < rng.Intn(3); i++ {
			dirty[prev.Entities[rng.Intn(len(prev.Entities))]] = struct{}{}
		}
		dirty["never-seen-entity"] = struct{}{}

		ext, err := ExtendDirty(prev, fresh, dirty)
		if err != nil {
			t.Fatalf("trial %d: ExtendDirty: %v", trial, err)
		}
		want := model.Build(db)
		if !reflect.DeepEqual(ext.Full, want) {
			t.Fatalf("trial %d (cut %d/%d): extended dataset differs from Build\n got: %+v\nwant: %+v",
				trial, cut, len(distinct), ext.Full, want)
		}
		if err := ext.Full.Validate(); err != nil {
			t.Fatalf("trial %d: extended dataset invalid: %v", trial, err)
		}
		if err := ext.Sub.Validate(); err != nil {
			t.Fatalf("trial %d: dirty sub-dataset invalid: %v", trial, err)
		}
		if len(ext.SubFacts) != ext.Sub.NumFacts() {
			t.Fatalf("trial %d: SubFacts has %d entries for %d sub facts", trial, len(ext.SubFacts), ext.Sub.NumFacts())
		}

		// The sub-dataset is exactly the dirty-entity restriction of Full:
		// same facts (via the id map), same claims per fact.
		dirtyInFull := 0
		for name := range dirty {
			for e, en := range ext.Full.Entities {
				if en == name {
					dirtyInFull++
					_ = e
					break
				}
			}
		}
		if ext.DirtyEntities != dirtyInFull {
			t.Fatalf("trial %d: DirtyEntities = %d, want %d", trial, ext.DirtyEntities, dirtyInFull)
		}
		for sf, gf := range ext.SubFacts {
			f, g := ext.Sub.Facts[sf], ext.Full.Facts[gf]
			if f.Attribute != g.Attribute || ext.Sub.Entities[f.Entity] != ext.Full.Entities[g.Entity] {
				t.Fatalf("trial %d: sub fact %d maps to mismatched full fact %d", trial, sf, gf)
			}
			sc, gc := ext.Sub.ClaimsByFact[sf], ext.Full.ClaimsByFact[gf]
			if len(sc) != len(gc) {
				t.Fatalf("trial %d: sub fact %d has %d claims, full fact %d has %d", trial, sf, len(sc), gf, len(gc))
			}
			for k := range sc {
				a, b := ext.Sub.Claims[sc[k]], ext.Full.Claims[gc[k]]
				if a.Observation != b.Observation || ext.Sub.Sources[a.Source] != ext.Full.Sources[b.Source] {
					t.Fatalf("trial %d: claim %d of sub fact %d differs from full", trial, k, sf)
				}
			}
		}
	}
}

// TestExtendDirtySelfCompose checks chained extensions: the output of one
// dirty extension is a valid prev for the next, and the chain still matches
// a from-scratch Build — the shape of successive incremental refits.
func TestExtendDirtySelfCompose(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		rows := randomRows(rng, 2+rng.Intn(12), 1+rng.Intn(3), 1+rng.Intn(6), 30+rng.Intn(90))
		db := model.NewRawDB()
		var distinct []model.Row
		for _, r := range rows {
			if db.AddRow(r) {
				distinct = append(distinct, r)
			}
		}
		cut1 := 1 + rng.Intn(len(distinct))
		prefix := model.NewRawDB()
		for _, r := range distinct[:cut1] {
			prefix.AddRow(r)
		}
		cur := model.Build(prefix)
		pos := cut1
		for pos < len(distinct) {
			step := 1 + rng.Intn(len(distinct)-pos)
			fresh := distinct[pos : pos+step]
			dirty := make(map[string]struct{})
			for _, r := range fresh {
				dirty[r.Entity] = struct{}{}
			}
			ext, err := ExtendDirty(cur, fresh, dirty)
			if err != nil {
				t.Fatalf("trial %d: ExtendDirty at %d: %v", trial, pos, err)
			}
			cur = ext.Full
			pos += step
		}
		if want := model.Build(db); !reflect.DeepEqual(cur, want) {
			t.Fatalf("trial %d: chained extension differs from Build", trial)
		}
	}
}

// TestExtendDirtyRejectsCleanFresh: a fresh row whose entity is missing
// from the dirty set is an ingest-tracking bug and must fail loudly.
func TestExtendDirtyRejectsCleanFresh(t *testing.T) {
	db := model.NewRawDB()
	db.Add("e1", "a=1", "s1")
	db.Add("e2", "a=2", "s1")
	prev := model.Build(db)
	_, err := ExtendDirty(prev, []model.Row{{Entity: "e1", Attribute: "a=3", Source: "s2"}},
		map[string]struct{}{"e2": {}})
	if err == nil {
		t.Fatal("ExtendDirty accepted a fresh row outside the dirty set")
	}
}

// TestExtendDirtyIndexedMatchesUnindexed chains random dirty extensions
// through ExtendDirtyIndexed — both bases, fed the index a serving snapshot
// would hold — and checks each step against the unindexed ExtendDirty:
// identical Extension, claim array sized exactly (never re-grown), the
// caller's index left untouched, and Summarize derived from the previous
// stats equal to a full Summarize pass.
func TestExtendDirtyIndexedMatchesUnindexed(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 60; trial++ {
		rows := randomRows(rng, 2+rng.Intn(20), 1+rng.Intn(4), 1+rng.Intn(8), 4+rng.Intn(150))
		db := model.NewRawDB()
		var distinct []model.Row
		for _, r := range rows {
			if db.AddRow(r) {
				distinct = append(distinct, r)
			}
		}
		cut := 1 + rng.Intn(len(distinct))
		prefix := model.NewRawDB()
		for _, r := range distinct[:cut] {
			prefix.AddRow(r)
		}
		prev := model.Build(prefix)
		stats := Summarize(prev)
		for cut < len(distinct) {
			next := cut + 1 + rng.Intn(len(distinct)-cut)
			fresh := distinct[cut:next]
			dirty := make(map[string]struct{})
			for _, r := range fresh {
				dirty[r.Entity] = struct{}{}
			}
			dirty[prev.Entities[rng.Intn(len(prev.Entities))]] = struct{}{}
			index := make(map[string]int, len(prev.Entities))
			for e, name := range prev.Entities {
				index[name] = e
			}

			want, err := ExtendDirty(prev, fresh, dirty)
			if err != nil {
				t.Fatalf("trial %d: ExtendDirty: %v", trial, err)
			}
			upto := model.NewRawDB()
			for _, r := range distinct[:next] {
				upto.AddRow(r)
			}
			for _, rd := range []Reader{nil, NewMemoryFrom(upto).Reader()} {
				got, err := ExtendDirtyIndexed(prev, index, fresh, dirty, rd)
				if err != nil {
					t.Fatalf("trial %d: ExtendDirtyIndexed: %v", trial, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d (scan=%t): indexed extension differs from ExtendDirty", trial, rd != nil)
				}
				if len(index) != len(prev.Entities) {
					t.Fatalf("trial %d: caller's index grew to %d for %d entities", trial, len(index), len(prev.Entities))
				}
			}
			if c := want.Full.Claims; cap(c) != len(c) {
				t.Fatalf("trial %d: claim array cap %d for %d claims (mis-sized)", trial, cap(c), len(c))
			}
			stats = want.Summarize(stats)
			if full := Summarize(want.Full); stats != full {
				t.Fatalf("trial %d: derived stats %+v, Summarize %+v", trial, stats, full)
			}
			prev, cut = want.Full, next
		}
	}
}
