package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"latenttruth/internal/model"
	"latenttruth/internal/stats"
)

// The engine's claim loop reads cached terms (tc, ta) instead of the log
// tables; these tests pin the cache to the direct table expressions, bit
// for bit, at every point the sweep can read it.

// termRows builds a corpus with empty confusion cells: "lonely" claims
// only entities with a single attribute, so it never makes a negative
// claim and its observation-0 counts stay 0 under both labels.
func termRows() []model.Row {
	rng := rand.New(rand.NewPCG(11, 4))
	var rows []model.Row
	for e := 0; e < 80; e++ {
		entity := fmt.Sprintf("e%d", e)
		for a := 0; a < 1+rng.IntN(3); a++ {
			for s := 0; s < 8; s++ {
				if rng.IntN(3) == 0 {
					rows = append(rows, model.Row{Entity: entity, Attribute: fmt.Sprintf("a%d", a), Source: fmt.Sprintf("s%d", s)})
				}
			}
		}
		rows = append(rows, model.Row{Entity: entity, Attribute: "a0", Source: "s0"})
	}
	for e := 0; e < 30; e++ {
		entity := fmt.Sprintf("solo%d", e)
		rows = append(rows,
			model.Row{Entity: entity, Attribute: "only", Source: "lonely"},
			model.Row{Entity: entity, Attribute: "only", Source: fmt.Sprintf("s%d", e%8)})
	}
	return rows
}

// checkTerms fails unless every ta cell, and every tc cell whose count is
// above 0, equals the direct table expression bit for bit. It returns the
// number of empty cells it skipped.
func checkTerms(t *testing.T, where string, tab *tables, tc, ta []float64, n, tot []int32) int {
	t.Helper()
	empty := 0
	for k, m := range n {
		d := tot[k>>1]
		if want := tab.logNum[k][m] - tab.logDen[k>>1][d]; math.Float64bits(ta[k]) != math.Float64bits(want) {
			t.Fatalf("%s: ta[%d] = %v, direct %v", where, k, ta[k], want)
		}
		if m == 0 {
			empty++
			continue
		}
		if want := tab.logNum[k][m-1] - tab.logDen[k>>1][d-1]; math.Float64bits(tc[k]) != math.Float64bits(want) {
			t.Fatalf("%s: tc[%d] = %v, direct %v", where, k, tc[k], want)
		}
	}
	return empty
}

func TestTermCacheMatchesTables(t *testing.T) {
	ds := model.BuildRows(termRows())
	lay := compileLayout(ds)
	for _, cfg := range []Config{
		{Seed: 2, Iterations: 40},
		{Seed: 6, Iterations: 40, SourcePriors: map[string]Priors{
			"lonely": {FP: 1, TN: 50, TP: 40, FN: 2},
			"s3":     {FP: 20, TN: 20, TP: 3, FN: 30},
		}},
	} {
		cfg = cfg.withDefaults(ds.NumFacts())
		e := newEngine(lay, newTables(ds, lay, cfg), cfg)
		empty := 0
		e.run(func(iter int, _ []int8) {
			empty += checkTerms(t, fmt.Sprintf("seed %d sweep %d", cfg.Seed, iter), e.tab, e.tc, e.ta, e.n, e.tot)
		})
		if empty == 0 {
			t.Fatalf("seed %d: no empty cell seen; the corpus does not exercise the n = 0 guard", cfg.Seed)
		}
	}
}

// directSweep is the engine sweep with every term read from the log tables
// instead of the term cache.
func directSweep(e *engine) {
	lay, tab := e.lay, e.tab
	for f := range e.truth {
		cur := int(e.truth[f])
		alt := 1 - cur
		lcur := tab.logBeta[cur]
		lalt := tab.logBeta[alt]
		for _, c := range lay.claims[lay.offsets[f]:lay.offsets[f+1]] {
			s4, s2, o := int(c.source)*4, int(c.source)*2, int(c.obs)
			icur, ialt := s4+cur*2+o, s4+alt*2+o
			lcur += tab.logNum[icur][e.n[icur]-1] - tab.logDen[s2+cur][e.tot[s2+cur]-1]
			lalt += tab.logNum[ialt][e.n[ialt]] - tab.logDen[s2+alt][e.tot[s2+alt]]
		}
		pFlip := 1.0 / (1.0 + math.Exp(lcur-lalt))
		if cur == 1 {
			e.cond[f] = 1 - pFlip
		} else {
			e.cond[f] = pFlip
		}
		if e.rng.Float64() < pFlip {
			e.applyFact(f, cur, -1)
			e.truth[f] = int8(alt)
			e.applyFact(f, alt, +1)
		}
	}
}

// TestTermCacheAfterSetCounts drives two identical samplers the way the
// sharded fitter's parallel mode does: counts replaced by SetCounts with
// another shard's contribution added, then a sweep. Sweep must refill the
// cache from the replaced counts, so its conditionals, flips and counts
// match a sweep that reads the tables directly.
func TestTermCacheAfterSetCounts(t *testing.T) {
	ds := model.BuildRows(termRows())
	// The global dataset holds the corpus twice, under renamed entities, so
	// its count domains cover this shard's counts plus a remote copy.
	rows := termRows()
	for _, r := range termRows() {
		r.Entity = "remote-" + r.Entity
		rows = append(rows, r)
	}
	global := model.BuildRows(rows)
	cfg := Config{Seed: 4, Iterations: 20, SourcePriors: map[string]Priors{
		"lonely": {FP: 1, TN: 50, TP: 40, FN: 2},
	}}.withDefaults(global.NumFacts())
	glob, err := NewGlobalTables(global, cfg)
	if err != nil {
		t.Fatal(err)
	}
	src2g := make([]int32, ds.NumSources())
	for s, name := range ds.Sources {
		src2g[s] = int32(-1)
		for g, gname := range global.Sources {
			if gname == name {
				src2g[s] = int32(g)
			}
		}
	}
	eng := Compile(ds)
	spec := SamplerSpec{Config: cfg, Shared: glob, Src2G: src2g}
	cached, err := eng.NewSampler(spec)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := eng.NewSampler(spec)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := eng.NewSampler(SamplerSpec{Config: Config{Seed: 99}})
	if err != nil {
		t.Fatal(err)
	}
	// baseN and baseT are the remote counts installed at the last barrier.
	baseN, baseT := make([]int32, 4*ds.NumSources()), make([]int32, 2*ds.NumSources())
	for round := 0; round < 5; round++ {
		// Sweep first, so the cache holds terms of the old counts.
		cached.Sweep()
		directSweep(direct.e)
		remote.Sweep()
		n, tot := cached.Counts()
		rn, rtot := remote.Counts()
		for i := range n {
			n[i] += rn[i] - baseN[i]
		}
		for i := range tot {
			tot[i] += rtot[i] - baseT[i]
		}
		baseN, baseT = rn, rtot
		for _, smp := range []*Sampler{cached, direct} {
			if err := smp.SetCounts(n, tot); err != nil {
				t.Fatal(err)
			}
		}
		cached.Sweep()
		directSweep(direct.e)
		c, d := cached.e, direct.e
		for f := range c.cond {
			if math.Float64bits(c.cond[f]) != math.Float64bits(d.cond[f]) || c.truth[f] != d.truth[f] {
				t.Fatalf("round %d fact %d: cached sweep cond %v truth %d, direct %v truth %d",
					round, f, c.cond[f], c.truth[f], d.cond[f], d.truth[f])
			}
		}
		checkTerms(t, fmt.Sprintf("round %d", round), c.tab, c.tc, c.ta, c.n, c.tot)
	}
}

// TestSharedTermCache checks the exact sharded mode's shared cache after
// initialization and after every sweep of SampleFactShared.
func TestSharedTermCache(t *testing.T) {
	ds := model.BuildRows(termRows())
	cfg := Config{Seed: 8, SourcePriors: map[string]Priors{
		"lonely": {FP: 1, TN: 50, TP: 40, FN: 2},
	}}.withDefaults(ds.NumFacts())
	glob, err := NewGlobalTables(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	src2g := make([]int32, ds.NumSources())
	for s := range src2g {
		src2g[s] = int32(s)
	}
	smp, err := Compile(ds).NewSampler(SamplerSpec{Config: cfg, Shared: glob, Src2G: src2g, DeferInit: true})
	if err != nil {
		t.Fatal(err)
	}
	sc := glob.NewSharedCounts()
	rng := stats.NewRNG(cfg.Seed)
	for f := 0; f < ds.NumFacts(); f++ {
		smp.InitFactShared(f, rng, sc, src2g)
	}
	checkTerms(t, "init", sc.tab, sc.tc, sc.ta, sc.n, sc.tot)
	for iter := 1; iter <= 30; iter++ {
		for f := 0; f < ds.NumFacts(); f++ {
			smp.SampleFactShared(f, rng, sc, src2g)
		}
		checkTerms(t, fmt.Sprintf("sweep %d", iter), sc.tab, sc.tc, sc.ta, sc.n, sc.tot)
	}
}
