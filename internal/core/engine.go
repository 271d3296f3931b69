package core

// The sampler engine: a cache-conscious execution layer for Algorithm 1.
//
// The straightforward sweep (retained in reference.go) pays, per claim per
// iteration, two levels of pointer-chasing (ClaimsByFact[f] -> claim index
// -> Claims[ci] -> .Source/.Observation), a bool-to-int branch, and four
// math.Log calls. None of that work depends on anything but (a) the static
// shape of the claim table and (b) small integer confusion counts that move
// by at most one per flip. The engine therefore splits the sampler into
// three layers:
//
//   - layout: the dataset's claim table compiled once into a CSR-style flat
//     form — one contiguous []packedClaim per fact behind a shared offsets
//     array, with the observation pre-decoded to an integer. Immutable and
//     shareable across fits and chains.
//
//   - tables: every logarithm the sweep can ever need, memoized per source
//     over integer count offsets. The conditional of Equation 2 only ever
//     evaluates log(m + α_{s,i,j}) and log(m + α_{s,i,·}) for integer m in
//     [0, deg(s)], so the full domain is tabulated up front (cost: one
//     math.Log per entry, about 1.5 sweeps' worth of logs, amortized over
//     the default 100 iterations). Tables depend only on the layout and
//     the priors — not on sampler state — so they need no invalidation
//     and are shared read-only by parallel chains.
//
//   - engine: the per-chain mutable state (truth vector, flat confusion
//     counts, RNG, sample accumulators) plus a per-chain term cache. A
//     claim's contribution to Equation 2 is one difference of two table
//     reads that depends only on its (source, label, observation) cell and
//     that source's counts, and the counts move only when a fact flips.
//     So each chain keeps the differences themselves, two 4×sources
//     tables (tc for the current label, with the −1 discount; ta for the
//     alternative), filled at the start of every sweep and refreshed for
//     the flipped fact's sources after each flip. The claim loop then does
//     one read per label instead of four nested log-table reads.
//
// The engine consumes randomness in exactly the same order as the reference
// sweep and performs the same floating-point operations on the same values
// in the same order, so for a fixed seed its posteriors are bit-identical
// to the reference implementation (asserted by TestEngineMatchesReference*).

import (
	"math"
	"runtime"
	"sync"

	"latenttruth/internal/model"
	"latenttruth/internal/stats"
)

// packedClaim is one claim in the compiled layout: the source id and the
// observation pre-decoded to 0/1.
type packedClaim struct {
	source int32
	obs    uint8
}

// layout is the CSR-compiled claim table of one dataset: claims grouped by
// fact in ClaimsByFact order, delimited by offsets (len numFacts+1).
// Immutable once built.
type layout struct {
	numFacts   int
	numSources int
	claims     []packedClaim
	offsets    []int32
	// deg[s] is source s's total claim count; obsDeg[s*2+o] its count of
	// claims with observation o. They bound the count domains the log
	// tables must cover.
	deg    []int32
	obsDeg []int32
}

// compileLayout flattens ds into a layout. Claim order within a fact is the
// ClaimsByFact order, preserving the reference sweep's summation order.
func compileLayout(ds *model.Dataset) *layout {
	nf, ns := ds.NumFacts(), ds.NumSources()
	lay := &layout{
		numFacts:   nf,
		numSources: ns,
		claims:     make([]packedClaim, 0, ds.NumClaims()),
		offsets:    make([]int32, nf+1),
		deg:        make([]int32, ns),
		obsDeg:     make([]int32, 2*ns),
	}
	for f := 0; f < nf; f++ {
		for _, ci := range ds.ClaimsByFact[f] {
			c := ds.Claims[ci]
			o := uint8(0)
			if c.Observation {
				o = 1
			}
			lay.claims = append(lay.claims, packedClaim{source: int32(c.Source), obs: o})
			lay.deg[c.Source]++
			lay.obsDeg[c.Source*2+int(o)]++
		}
		lay.offsets[f+1] = int32(len(lay.claims))
	}
	return lay
}

// tables holds the memoized logarithms and per-source hyperparameters for
// one (layout, priors) pair. Indexing is flat: cell (s, i, j) lives at
// s*4+i*2+j and margin (s, i) at s*2+i. Read-only after construction.
type tables struct {
	logBeta [2]float64 // log β_i
	// alpha[s*4+i*2+j] = α_{s,i,j}; alphaTot[s*2+i] = α_{s,i,0}+α_{s,i,1}.
	alpha    []float64
	alphaTot []float64
	// logNum[s*4+i*2+j][m] = log(m + α_{s,i,j}) for m in [0, obsDeg(s,j)].
	logNum [][]float64
	// logDen[s*2+i][m] = log(m + α_{s,i,·}) for m in [0, deg(s)].
	logDen [][]float64
}

// newTables memoizes every log the sweep over lay can evaluate under cfg's
// priors (including per-source overrides, resolved via ds's source names).
func newTables(ds *model.Dataset, lay *layout, cfg Config) *tables {
	return newTablesBounded(ds, lay, cfg, lay.deg, lay.obsDeg)
}

// newTablesBounded is newTables with explicit count domains: deg[s] and
// obsDeg[s*2+j] bound the table sizes instead of the layout's own degrees.
// The sharded fitter passes each source's GLOBAL degrees here, because a
// shard's conditional evaluates counts that include other shards'
// contributions and therefore exceed the shard-local degree.
func newTablesBounded(ds *model.Dataset, lay *layout, cfg Config, deg, obsDeg []int32) *tables {
	ns := lay.numSources
	t := &tables{
		alpha:    make([]float64, 4*ns),
		alphaTot: make([]float64, 2*ns),
		logNum:   make([][]float64, 4*ns),
		logDen:   make([][]float64, 2*ns),
	}
	t.logBeta[0] = math.Log(cfg.Priors.beta(0))
	t.logBeta[1] = math.Log(cfg.Priors.beta(1))
	for s := 0; s < ns; s++ {
		p := cfg.Priors
		if sp, ok := cfg.SourcePriors[ds.Sources[s]]; ok {
			sp.True, sp.Fls = p.True, p.Fls
			p = sp
		}
		for i := 0; i <= 1; i++ {
			for j := 0; j <= 1; j++ {
				a := p.alpha(i, j)
				t.alpha[s*4+i*2+j] = a
				tab := make([]float64, obsDeg[s*2+j]+1)
				for m := range tab {
					tab[m] = math.Log(float64(m) + a)
				}
				t.logNum[s*4+i*2+j] = tab
			}
			at := p.alphaTotal(i)
			t.alphaTot[s*2+i] = at
			tab := make([]float64, deg[s]+1)
			for m := range tab {
				tab[m] = math.Log(float64(m) + at)
			}
			t.logDen[s*2+i] = tab
		}
	}
	return t
}

// engine is one chain's sampler state over a shared layout and tables. It
// is the drop-in replacement for the reference gibbs struct.
type engine struct {
	lay *layout
	tab *tables
	cfg Config
	rng *stats.RNG

	// truth[f] ∈ {0,1} is the current assignment of t_f.
	truth []int8
	// n[s*4+i*2+j] and tot[s*2+i] are the confusion counts of Equation 2
	// and their per-label margins, maintained incrementally.
	n   []int32
	tot []int32
	// tc and ta cache each cell k = s*4+i*2+j's claim term (see fillTerms).
	tc []float64
	ta []float64
	// cond[f] is the last conditional p(t_f = 1 | t_−f) of the sweep.
	cond []float64
	// sum[f] accumulates kept samples of t_f; samples counts them.
	sum     []float64
	samples int
}

// newEngine initializes a chain exactly as the reference sampler does: one
// uniform draw per fact, counts built incrementally.
func newEngine(lay *layout, tab *tables, cfg Config) *engine {
	e := newEngineState(lay, tab, cfg)
	e.initTruth()
	return e
}

// newEngineState allocates a chain's state without drawing the initial
// truth assignment. The step-driven Sampler uses it when the caller owns
// initialization (the sharded fitter's exact mode initializes facts in
// global order from a shared RNG).
func newEngineState(lay *layout, tab *tables, cfg Config) *engine {
	return &engine{
		lay:   lay,
		tab:   tab,
		cfg:   cfg,
		rng:   stats.NewRNG(cfg.Seed),
		truth: make([]int8, lay.numFacts),
		n:     make([]int32, 4*lay.numSources),
		tot:   make([]int32, 2*lay.numSources),
		tc:    make([]float64, 4*lay.numSources),
		ta:    make([]float64, 4*lay.numSources),
		cond:  make([]float64, lay.numFacts),
		sum:   make([]float64, lay.numFacts),
	}
}

// initTruth draws the uniform initial assignment for every fact from the
// engine's own RNG, building counts incrementally.
func (e *engine) initTruth() {
	for f := range e.truth {
		if e.rng.Float64() < 0.5 {
			e.truth[f] = 0
		} else {
			e.truth[f] = 1
		}
		e.applyFact(f, int(e.truth[f]), +1)
	}
}

// applyFact adds delta to the counts of all claims of fact f under truth
// label i.
func (e *engine) applyFact(f, i, delta int) {
	d := int32(delta)
	i2 := i * 2
	for _, c := range e.lay.claims[e.lay.offsets[f]:e.lay.offsets[f+1]] {
		s := int(c.source)
		e.n[s*4+i2+int(c.obs)] += d
		e.tot[s*2+i] += d
	}
}

// run performs cfg.Iterations sweeps, mirroring the reference sweep's
// floating-point and RNG order operation for operation. After each sweep it
// invokes observe (when non-nil) with the 1-based iteration number and the
// current truth assignment, and accumulates the default-schedule sample
// average.
func (e *engine) run(observe func(iter int, t []int8)) {
	for iter := 1; iter <= e.cfg.Iterations; iter++ {
		e.sweep()
		if keepIteration(e.cfg, iter) {
			e.keep()
		}
		if observe != nil {
			observe(iter, e.truth)
		}
	}
}

// keepIteration reports whether the default sampling schedule keeps the
// sample produced by the given 1-based sweep number.
func keepIteration(cfg Config, iter int) bool {
	return iter > cfg.BurnIn && (iter-cfg.BurnIn-1)%(cfg.SampleGap+1) == 0
}

// sweep resamples every fact once against the engine's own count tables.
func (e *engine) sweep() {
	lay := e.lay
	e.fillTerms()
	for f := range e.truth {
		cur := int(e.truth[f])
		alt := 1 - cur
		// Log-space accumulation keeps long claim lists from
		// underflowing the direct product of Algorithm 1. Each claim
		// adds one cached term per label; no logs in the loop.
		lcur := e.tab.logBeta[cur]
		lalt := e.tab.logBeta[alt]
		tcur := e.tc[cur*2:]
		talt := e.ta[alt*2:]
		claims := lay.claims[lay.offsets[f]:lay.offsets[f+1]]
		for _, c := range claims {
			k := int(c.source)*4 + int(c.obs)
			lcur += tcur[k]
			lalt += talt[k]
		}
		// P(flip) = exp(lalt) / (exp(lcur) + exp(lalt)).
		pFlip := 1.0 / (1.0 + math.Exp(lcur-lalt))
		if cur == 1 {
			e.cond[f] = 1 - pFlip
		} else {
			e.cond[f] = pFlip
		}
		if e.rng.Float64() < pFlip {
			e.truth[f] = int8(alt)
			for _, c := range claims {
				s := int(c.source)
				o := int(c.obs)
				e.n[s*4+cur*2+o]--
				e.tot[s*2+cur]--
				e.n[s*4+alt*2+o]++
				e.tot[s*2+alt]++
				refreshTerms(e.tab, e.tc, e.ta, e.n, e.tot, s)
			}
		}
	}
}

// fillTerms computes every source's cached claim terms from the current
// counts. Run at the start of each sweep, it also picks up counts replaced
// from outside (Sampler.SetCounts).
func (e *engine) fillTerms() {
	for s := 0; s < e.lay.numSources; s++ {
		refreshTerms(e.tab, e.tc, e.ta, e.n, e.tot, s)
	}
}

// refreshTerms recomputes source s's four cells of the term caches from
// the counts n and tot. For cell k = s*4+i*2+j (margin k>>1 = s*2+i):
//
//	tc[k] = log(n[k]−1 + α_{s,i,j}) − log(tot[k>>1]−1 + α_{s,i,·})
//	ta[k] = log(n[k]   + α_{s,i,j}) − log(tot[k>>1]   + α_{s,i,·})
//
// tc is the current-label term, with the claim's own count discounted (the
// −1 terms of Algorithm 1); ta is the alternative-label term, whose counts
// exclude the fact already. Each is the same float64 subtraction of the
// same logarithms the reference sweep computes per claim, so sums of
// cached terms are bit-identical to it. A tc cell with n[k] = 0 is left stale: no
// claim can read it, since the claim reading it is itself counted in n[k].
func refreshTerms(tab *tables, tc, ta []float64, n, tot []int32, s int) {
	for k := s * 4; k < s*4+4; k++ {
		m, t := n[k], tot[k>>1]
		num, den := tab.logNum[k], tab.logDen[k>>1]
		ta[k] = num[m] - den[t]
		if m > 0 {
			tc[k] = num[m-1] - den[t-1]
		}
	}
}

// keep accumulates the current state as one kept sample.
func (e *engine) keep() {
	e.samples++
	if e.cfg.BinarySamples {
		for f, v := range e.truth {
			e.sum[f] += float64(v)
		}
	} else {
		for f, p := range e.cond {
			e.sum[f] += p
		}
	}
}

// probabilities returns the posterior mean of each t_f over kept samples,
// falling back to the final state if no samples were kept.
func (e *engine) probabilities() []float64 {
	prob := make([]float64, len(e.truth))
	if e.samples == 0 {
		for f, v := range e.truth {
			prob[f] = float64(v)
		}
		return prob
	}
	for f := range prob {
		prob[f] = e.sum[f] / float64(e.samples)
	}
	return prob
}

// Engine is a dataset compiled for repeated sampling. Compile once and call
// Fit with as many configurations as needed — consumers that refit the same
// dataset under changing priors (e.g. the multi-type integrator's
// empirical-Bayes rounds) skip the per-fit flattening cost, and parallel
// chains share one layout.
type Engine struct {
	ds  *model.Dataset
	lay *layout
}

// Compile flattens ds's claim table into the engine's layout.
func Compile(ds *model.Dataset) *Engine {
	return &Engine{ds: ds, lay: compileLayout(ds)}
}

// Dataset returns the dataset this engine was compiled from.
func (e *Engine) Dataset() *model.Dataset { return e.ds }

// Fit runs collapsed Gibbs sampling under cfg (zero-valued fields take the
// paper's defaults) and returns the full fit, exactly as LTM.Fit does.
func (e *Engine) Fit(cfg Config) (*FitResult, error) {
	return New(cfg).fitCompiled(e.ds, e.lay)
}

// chainWorkers bounds a worker pool: one worker per core, never more
// workers than tasks.
func chainWorkers(tasks int) int {
	w := runtime.GOMAXPROCS(0)
	if w < 1 {
		w = 1
	}
	if w > tasks {
		w = tasks
	}
	return w
}

// ParallelFor executes fn(i) for i in [0, n) on a worker pool bounded by
// GOMAXPROCS. It is the shared fan-out primitive for sampler-sized work —
// multi-chain fits, per-cluster fits, per-type fits — bounding how many
// full Gibbs states are live at once regardless of n.
func ParallelFor(n int, fn func(i int)) {
	workers := chainWorkers(n)
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}
