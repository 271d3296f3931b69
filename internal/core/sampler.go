package core

// Step-level sampler API for distributed fitters.
//
// LTM.Fit owns the whole inference loop; the entity-sharded fitter
// (internal/shard) instead needs to drive the loop itself: sweep each
// shard independently, export and re-import the per-source confusion
// counts at reconciliation barriers, and — in its exact mode — sample
// single facts in global order against externally synchronized count
// tables. Sampler exposes exactly those steps over a compiled Engine
// without opening up the engine's internals.

import (
	"fmt"
	"math"

	"latenttruth/internal/model"
	"latenttruth/internal/stats"
)

// Tables is an opaque, read-only handle over a fully memoized log-table
// set built against a dataset's global source ids and global count
// domains. Building the tables costs one math.Log per (source, count)
// cell — a sizable fraction of a short fit — so a sharded fitter builds
// them ONCE per fit and shares them across all shard samplers via
// SamplerSpec.Shared; each sampler's per-source table slices then alias
// the global backing arrays instead of being recomputed per shard.
type Tables struct {
	t   *tables
	cfg Config
}

// NewGlobalTables memoizes every logarithm a sweep over ds can evaluate
// under cfg's priors (including per-source overrides), with count domains
// sized to each source's global claim degrees. cfg is resolved with
// WithDefaults against ds; pass the same Config to every sampler sharing
// the tables.
func NewGlobalTables(ds *model.Dataset, cfg Config) (*Tables, error) {
	cfg = cfg.withDefaults(ds.NumFacts())
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	ns := ds.NumSources()
	deg := make([]int32, ns)
	obsDeg := make([]int32, 2*ns)
	for _, c := range ds.Claims {
		o := 0
		if c.Observation {
			o = 1
		}
		deg[c.Source]++
		obsDeg[c.Source*2+o]++
	}
	t := newTablesBounded(ds, &layout{numSources: ns}, cfg, deg, obsDeg)
	return &Tables{t: t, cfg: cfg}, nil
}

// view builds a local-source-indexed alias of the global tables: slice
// headers are copied through src2g, the float backing arrays are shared.
func (gt *Tables) view(src2g []int32) *tables {
	ns := len(src2g)
	t := &tables{
		logBeta:  gt.t.logBeta,
		alpha:    make([]float64, 4*ns),
		alphaTot: make([]float64, 2*ns),
		logNum:   make([][]float64, 4*ns),
		logDen:   make([][]float64, 2*ns),
	}
	for ls, gs := range src2g {
		for j := 0; j < 4; j++ {
			t.alpha[ls*4+j] = gt.t.alpha[int(gs)*4+j]
			t.logNum[ls*4+j] = gt.t.logNum[int(gs)*4+j]
		}
		for j := 0; j < 2; j++ {
			t.alphaTot[ls*2+j] = gt.t.alphaTot[int(gs)*2+j]
			t.logDen[ls*2+j] = gt.t.logDen[int(gs)*2+j]
		}
	}
	return t
}

// SamplerSpec configures a step-driven sampler over a compiled engine.
type SamplerSpec struct {
	// Config is the fit configuration. Zero-valued fields take the paper's
	// defaults sized to the engine's own dataset; distributed callers
	// should pass a Config already resolved with WithDefaults against the
	// global dataset so every shard agrees on priors and schedule.
	Config Config
	// Shared, when non-nil, reuses an already-built global table set
	// instead of building tables for this sampler: the per-source table
	// slices alias the shared backing arrays through Src2G
	// (Src2G[localSource] = globalSource), giving the sampler global
	// count domains — required when its counts include other shards'
	// contributions. The spec's Config must be the same resolved
	// configuration the tables were built under. Nil builds private
	// tables over the engine's own degrees (the single-engine behaviour).
	Shared *Tables
	Src2G  []int32
	// DeferInit skips the uniform initial truth draw. The caller must then
	// initialize every fact exactly once (InitFactShared) before sweeping.
	DeferInit bool
}

// Sampler is one chain's sampler state with step-level control: single
// sweeps, sample keeps, and confusion-count export/import. It is the
// building block of the entity-sharded fitter; LTM.Fit remains the
// one-call path. Not safe for concurrent use.
type Sampler struct {
	e *engine
}

// NewSampler returns a step-driven sampler over the compiled engine.
func (e *Engine) NewSampler(spec SamplerSpec) (*Sampler, error) {
	cfg := spec.Config.withDefaults(e.ds.NumFacts())
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	var tab *tables
	if spec.Shared != nil {
		if len(spec.Src2G) != e.lay.numSources {
			return nil, fmt.Errorf("core: sampler Src2G sized %d, want %d", len(spec.Src2G), e.lay.numSources)
		}
		tab = spec.Shared.view(spec.Src2G)
	} else {
		tab = newTablesBounded(e.ds, e.lay, cfg, e.lay.deg, e.lay.obsDeg)
	}
	g := newEngineState(e.lay, tab, cfg)
	if !spec.DeferInit {
		g.initTruth()
	}
	return &Sampler{e: g}, nil
}

// Config returns the fully resolved configuration the sampler runs under.
func (s *Sampler) Config() Config { return s.e.cfg }

// NumFacts returns the number of facts this sampler sweeps.
func (s *Sampler) NumFacts() int { return len(s.e.truth) }

// Sweep resamples every fact once against the sampler's own count tables
// (the per-shard step of the sharded fitter's parallel mode).
func (s *Sampler) Sweep() { s.e.sweep() }

// Keep accumulates the current state as one kept sample, exactly as the
// engine's default schedule does. The caller owns the schedule; use
// KeepIteration to reproduce the default one.
func (s *Sampler) Keep() { s.e.keep() }

// KeepIteration reports whether the default sampling schedule of cfg keeps
// the sample produced by the given 1-based sweep number.
func KeepIteration(cfg Config, iter int) bool { return keepIteration(cfg, iter) }

// Counts returns copies of the confusion-count tables: n[s*4+i*2+j] is the
// count of source s's claims with observation j on facts currently labeled
// i, and tot[s*2+i] its per-label margin, indexed by the engine's own
// (local) source ids.
func (s *Sampler) Counts() (n, tot []int32) {
	n = append([]int32(nil), s.e.n...)
	tot = append([]int32(nil), s.e.tot...)
	return n, tot
}

// SetCounts replaces the confusion-count tables, e.g. with globally
// reconciled counts at a sync barrier. The slices are copied in.
func (s *Sampler) SetCounts(n, tot []int32) error {
	if len(n) != len(s.e.n) || len(tot) != len(s.e.tot) {
		return fmt.Errorf("core: SetCounts sized %d/%d, want %d/%d", len(n), len(tot), len(s.e.n), len(s.e.tot))
	}
	copy(s.e.n, n)
	copy(s.e.tot, tot)
	return nil
}

// Probabilities returns the posterior mean of each fact over kept samples
// (falling back to the final state when none were kept), indexed by the
// engine's own fact ids.
func (s *Sampler) Probabilities() []float64 { return s.e.probabilities() }

// SamplesKept returns the number of samples accumulated by Keep.
func (s *Sampler) SamplesKept() int { return s.e.samples }

// SharedCounts is the sharded fitter's exact-mode state: one set of
// confusion counts indexed by GLOBAL source ids, shared by every shard's
// sampler, together with its term cache (the engine's tc/ta, see
// refreshTerms) over the global tables. Every fact initialization and flip
// goes through InitFactShared/SampleFactShared, which keep the cache in
// step with the counts.
type SharedCounts struct {
	tab    *tables
	n, tot []int32
	tc, ta []float64
}

// NewSharedCounts returns zeroed shared counts over gt's global sources.
func (gt *Tables) NewSharedCounts() *SharedCounts {
	ns := len(gt.t.alphaTot) / 2
	return &SharedCounts{
		tab: gt.t,
		n:   make([]int32, 4*ns),
		tot: make([]int32, 2*ns),
		tc:  make([]float64, 4*ns),
		ta:  make([]float64, 4*ns),
	}
}

// InitFactShared draws fact f's uniform initial truth from rng and counts
// its claims into the shared counts sc, which are indexed by GLOBAL source
// ids through src2g (src2g[localSource] = globalSource). It is the
// exact-mode counterpart of the engine's own initialization and consumes
// one rng draw, like it.
func (s *Sampler) InitFactShared(f int, rng *stats.RNG, sc *SharedCounts, src2g []int32) {
	e := s.e
	if rng.Float64() < 0.5 {
		e.truth[f] = 0
	} else {
		e.truth[f] = 1
	}
	e.applyFactShared(f, int(e.truth[f]), +1, sc, src2g)
}

// SampleFactShared resamples local fact f against the shared, globally
// indexed counts sc, drawing from rng and updating sc in place on a flip.
// Each claim adds sc's cached terms, computed from the global tables (the
// ones the sampler's own tables alias), so the floating-point operations
// are bit-identical to the single-engine sweep's when every fact of the
// dataset is sampled through the same sc. This is the sharded fitter's
// exact (S=1 barrier) mode.
func (s *Sampler) SampleFactShared(f int, rng *stats.RNG, sc *SharedCounts, src2g []int32) {
	e := s.e
	lay := e.lay
	cur := int(e.truth[f])
	alt := 1 - cur
	lcur := sc.tab.logBeta[cur]
	lalt := sc.tab.logBeta[alt]
	tcur := sc.tc[cur*2:]
	talt := sc.ta[alt*2:]
	for _, c := range lay.claims[lay.offsets[f]:lay.offsets[f+1]] {
		k := int(src2g[c.source])*4 + int(c.obs)
		lcur += tcur[k]
		lalt += talt[k]
	}
	pFlip := 1.0 / (1.0 + math.Exp(lcur-lalt))
	if cur == 1 {
		e.cond[f] = 1 - pFlip
	} else {
		e.cond[f] = pFlip
	}
	if rng.Float64() < pFlip {
		e.applyFactShared(f, cur, -1, sc, src2g)
		e.truth[f] = int8(alt)
		e.applyFactShared(f, alt, +1, sc, src2g)
	}
}

// applyFactShared adds delta to the shared counts for all claims of fact f
// under truth label i and refreshes the cached terms of their sources.
func (e *engine) applyFactShared(f, i, delta int, sc *SharedCounts, src2g []int32) {
	d := int32(delta)
	i2 := i * 2
	for _, c := range e.lay.claims[e.lay.offsets[f]:e.lay.offsets[f+1]] {
		gs := int(src2g[c.source])
		sc.n[gs*4+i2+int(c.obs)] += d
		sc.tot[gs*2+i] += d
		refreshTerms(sc.tab, sc.tc, sc.ta, sc.n, sc.tot, gs)
	}
}

// AssembleFit builds a FitResult from already computed posterior truth
// probabilities exactly as LTM.Fit does — shared by the single-engine and
// sharded fitters so both report identical quality read-offs. cfg must be
// the WithDefaults-resolved configuration the probabilities were sampled
// under (its SourcePriors participate in the §5.3 quality estimate).
func AssembleFit(ds *model.Dataset, prob []float64, cfg Config, samples int) *FitResult {
	fit := &FitResult{
		Result:      &model.Result{Method: "LTM", Prob: prob},
		SamplesKept: samples,
		Priors:      cfg.Priors,
	}
	fit.Quality, fit.Sensitivity, fit.FalsePositiveRate = estimateQuality(ds, prob, cfg)
	return fit
}
