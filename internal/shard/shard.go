package shard

import (
	"fmt"

	"latenttruth/internal/core"
	"latenttruth/internal/model"
	"latenttruth/internal/stats"
	"latenttruth/internal/store"
)

// DefaultSyncEvery is the sync interval used when a caller leaves it zero:
// shards run 5 sweeps between count reconciliations, a good
// staleness/throughput tradeoff at the paper's default 100 iterations.
const DefaultSyncEvery = 5

// Config bundles the sharding knobs with the base fit configuration.
type Config struct {
	// Shards is the number of entity shards. Values <= 1 fall back to the
	// single-engine fit (no sharding machinery at all).
	Shards int
	// SyncEvery is the count-reconciliation interval S in sweeps; 1 selects
	// the exact (bit-identical, sequential) mode and 0 means
	// DefaultSyncEvery.
	SyncEvery int
	// LTM is the base fit configuration; zero-valued fields take the
	// paper's defaults sized to the global dataset.
	LTM core.Config
}

// part is one entity shard: its re-indexed dataset, compiled engine, and
// the mappings back to global ids.
type part struct {
	ds  *model.Dataset
	eng *core.Engine
	// fact2g[localFact] and src2g[localSource] map shard-local ids to
	// global dataset ids. src2g also routes the samplers' table views:
	// shard log tables are aliases of the once-built global tables
	// (core.NewGlobalTables), whose count domains are the global degrees —
	// necessary because reconciled counts include other shards'
	// contributions and so exceed shard-local degrees.
	fact2g []int32
	src2g  []int32

	// Per-fit state (parallel mode): the sampler, the remote baseline the
	// current count view was synchronized against, and reconciliation
	// scratch. All local-source indexed.
	smp          *core.Sampler
	baseN, baseT []int32
	contribN     []int32
	contribT     []int32
	scratchN     []int32
	scratchT     []int32
}

// Fitter is a dataset compiled for entity-sharded fitting: the shard
// datasets, one compiled engine per shard, and the id mappings needed to
// reconcile counts and reassemble global posteriors. Compile once and call
// Fit with as many configurations as needed, like core.Engine.
type Fitter struct {
	ds    *model.Dataset
	parts []*part
	// dispatch[globalFact] = (shard index, local fact id).
	dispatch [][2]int32
}

// Compile partitions ds into (at most) shards entity shards via
// store.SplitEntities, compiles a sampler engine per non-empty shard, and
// builds the global id mappings. Shards exceeding the entity count produce
// empty partitions, which are dropped.
func Compile(ds *model.Dataset, shards int) (*Fitter, error) {
	if shards < 1 {
		return nil, fmt.Errorf("shard: Compile requires shards >= 1, got %d", shards)
	}
	if ds.NumFacts() == 0 {
		return nil, fmt.Errorf("shard: dataset has no facts")
	}

	// Global id lookups. Fact identity is the (entity name, attribute)
	// pair — unique by Definition 2 — and source identity is the name.
	factID := make(map[[2]string]int32, ds.NumFacts())
	for _, f := range ds.Facts {
		factID[[2]string{ds.Entities[f.Entity], f.Attribute}] = int32(f.ID)
	}
	srcID := make(map[string]int32, ds.NumSources())
	for s, name := range ds.Sources {
		srcID[name] = int32(s)
	}

	f := &Fitter{
		ds:       ds,
		dispatch: make([][2]int32, ds.NumFacts()),
	}
	for i := range f.dispatch {
		f.dispatch[i] = [2]int32{-1, -1}
	}

	claims := 0
	for _, piece := range store.SplitEntities(ds, shards) {
		if piece.NumFacts() == 0 {
			continue
		}
		p := &part{
			ds:     piece,
			eng:    core.Compile(piece),
			fact2g: make([]int32, piece.NumFacts()),
			src2g:  make([]int32, piece.NumSources()),
		}
		k := int32(len(f.parts))
		for i, fact := range piece.Facts {
			g, ok := factID[[2]string{piece.Entities[fact.Entity], fact.Attribute}]
			if !ok {
				return nil, fmt.Errorf("shard: fact (%q, %q) missing from global dataset",
					piece.Entities[fact.Entity], fact.Attribute)
			}
			if f.dispatch[g][0] >= 0 {
				return nil, fmt.Errorf("shard: fact %d assigned to shards %d and %d", g, f.dispatch[g][0], k)
			}
			p.fact2g[i] = g
			f.dispatch[g] = [2]int32{k, int32(i)}
		}
		for s, name := range piece.Sources {
			g, ok := srcID[name]
			if !ok {
				return nil, fmt.Errorf("shard: source %q missing from global dataset", name)
			}
			p.src2g[s] = g
		}
		claims += piece.NumClaims()
		f.parts = append(f.parts, p)
	}
	// Every fact in exactly one shard, every claim accounted for: the
	// partition invariant the property tests assert from outside.
	for g, d := range f.dispatch {
		if d[0] < 0 {
			return nil, fmt.Errorf("shard: fact %d not assigned to any shard", g)
		}
	}
	if claims != ds.NumClaims() {
		return nil, fmt.Errorf("shard: partition carries %d claims, dataset has %d", claims, ds.NumClaims())
	}
	return f, nil
}

// Shards returns the number of non-empty shards actually compiled.
func (f *Fitter) Shards() int { return len(f.parts) }

// Dataset returns the global dataset this fitter was compiled from.
func (f *Fitter) Dataset() *model.Dataset { return f.ds }

// Fit runs entity-sharded collapsed Gibbs sampling under cfg. syncEvery is
// the reconciliation interval S: 1 selects the exact sequential mode
// (bit-identical to the single-engine fit), values >= 2 run the shards
// concurrently with counts reconciled every S sweeps, and 0 means
// DefaultSyncEvery.
func (f *Fitter) Fit(cfg core.Config, syncEvery int) (*core.FitResult, error) {
	if syncEvery == 0 {
		syncEvery = DefaultSyncEvery
	}
	if syncEvery < 1 {
		return nil, fmt.Errorf("shard: syncEvery = %d must be positive", syncEvery)
	}
	rcfg := cfg.WithDefaults(f.ds.NumFacts())
	if err := rcfg.Validate(); err != nil {
		return nil, err
	}

	var err error
	if syncEvery == 1 {
		err = f.fitExact(rcfg)
	} else {
		err = f.fitParallel(rcfg, syncEvery)
	}
	if err != nil {
		return nil, err
	}

	prob := make([]float64, f.ds.NumFacts())
	for _, p := range f.parts {
		pp := p.smp.Probabilities()
		for i, g := range p.fact2g {
			prob[g] = pp[i]
		}
	}
	samples := f.parts[0].smp.SamplesKept()
	return core.AssembleFit(f.ds, prob, rcfg, samples), nil
}

// fitExact is the S=1 barrier mode: one shared RNG and one globally
// synchronized count table, facts initialized and swept in global order.
// Per-flip synchronization serializes the sweep, so this mode does not
// parallelize — it exists as the bit-identical fallback and as the
// equivalence oracle for the shard bookkeeping.
func (f *Fitter) fitExact(rcfg core.Config) error {
	// One global log-table build shared by every shard: the per-shard
	// samplers alias per-source table slices through src2g, so table cost
	// does not multiply with the shard count.
	glob, err := core.NewGlobalTables(f.ds, rcfg)
	if err != nil {
		return err
	}
	for _, p := range f.parts {
		smp, err := p.eng.NewSampler(core.SamplerSpec{
			Config: rcfg, Shared: glob, Src2G: p.src2g, DeferInit: true,
		})
		if err != nil {
			return err
		}
		p.smp = smp
	}
	sc := glob.NewSharedCounts()
	rng := stats.NewRNG(rcfg.Seed)
	for _, d := range f.dispatch {
		p := f.parts[d[0]]
		p.smp.InitFactShared(int(d[1]), rng, sc, p.src2g)
	}
	for iter := 1; iter <= rcfg.Iterations; iter++ {
		for _, d := range f.dispatch {
			p := f.parts[d[0]]
			p.smp.SampleFactShared(int(d[1]), rng, sc, p.src2g)
		}
		if core.KeepIteration(rcfg, iter) {
			for _, p := range f.parts {
				p.smp.Keep()
			}
		}
	}
	return nil
}

// fitParallel is the S>=2 mode: every shard runs an independent chain
// (seed + shard index) over its own claims, sweeping concurrently; every
// S sweeps a barrier reconciles the per-source confusion counts so each
// shard's next block samples against the freshly synchronized global
// tables plus its own live contribution.
func (f *Fitter) fitParallel(rcfg core.Config, syncEvery int) error {
	// See fitExact: one global table build, aliased by every shard.
	glob, err := core.NewGlobalTables(f.ds, rcfg)
	if err != nil {
		return err
	}
	for k, p := range f.parts {
		pcfg := rcfg
		pcfg.Seed = rcfg.Seed + int64(k)
		smp, err := p.eng.NewSampler(core.SamplerSpec{Config: pcfg, Shared: glob, Src2G: p.src2g})
		if err != nil {
			return err
		}
		p.smp = smp
		ls := p.ds.NumSources()
		p.baseN = make([]int32, 4*ls)
		p.baseT = make([]int32, 2*ls)
		p.contribN = make([]int32, 4*ls)
		p.contribT = make([]int32, 2*ls)
		p.scratchN = make([]int32, 4*ls)
		p.scratchT = make([]int32, 2*ls)
	}
	gn := make([]int32, 4*f.ds.NumSources())
	gt := make([]int32, 2*f.ds.NumSources())

	// Initial barrier: fold every shard's random initialization into the
	// global tables so the first block already samples against them.
	if err := f.reconcile(gn, gt); err != nil {
		return err
	}
	for start := 0; start < rcfg.Iterations; start += syncEvery {
		end := start + syncEvery
		if end > rcfg.Iterations {
			end = rcfg.Iterations
		}
		core.ParallelFor(len(f.parts), func(k int) {
			p := f.parts[k]
			for iter := start + 1; iter <= end; iter++ {
				p.smp.Sweep()
				if core.KeepIteration(rcfg, iter) {
					p.smp.Keep()
				}
			}
		})
		if err := f.reconcile(gn, gt); err != nil {
			return err
		}
	}
	return nil
}

// reconcile is the sync barrier: it recovers each shard's own count
// contribution (current view minus the baseline imported at the previous
// barrier), sums contributions into the global tables — exact, since every
// claim belongs to exactly one shard — and redistributes the synchronized
// view, recording the new baseline so the next barrier can separate own
// from remote again. Counts are integers, so reconciliation is exact and
// order-independent.
func (f *Fitter) reconcile(gn, gt []int32) error {
	for i := range gn {
		gn[i] = 0
	}
	for i := range gt {
		gt[i] = 0
	}
	for _, p := range f.parts {
		curN, curT := p.smp.Counts()
		for i := range curN {
			p.contribN[i] = curN[i] - p.baseN[i]
		}
		for i := range curT {
			p.contribT[i] = curT[i] - p.baseT[i]
		}
		for ls, gs := range p.src2g {
			for j := 0; j < 4; j++ {
				gn[int(gs)*4+j] += p.contribN[ls*4+j]
			}
			gt[int(gs)*2] += p.contribT[ls*2]
			gt[int(gs)*2+1] += p.contribT[ls*2+1]
		}
	}
	for _, p := range f.parts {
		for ls, gs := range p.src2g {
			for j := 0; j < 4; j++ {
				p.scratchN[ls*4+j] = gn[int(gs)*4+j]
			}
			p.scratchT[ls*2] = gt[int(gs)*2]
			p.scratchT[ls*2+1] = gt[int(gs)*2+1]
		}
		if err := p.smp.SetCounts(p.scratchN, p.scratchT); err != nil {
			return err
		}
		for i := range p.scratchN {
			p.baseN[i] = p.scratchN[i] - p.contribN[i]
		}
		for i := range p.scratchT {
			p.baseT[i] = p.scratchT[i] - p.contribT[i]
		}
	}
	return nil
}

// Fit is the convenience one-call form: it compiles cfg.Shards entity
// shards over ds and fits. cfg.Shards <= 1 falls back to the plain
// single-engine fit.
func Fit(ds *model.Dataset, cfg Config) (*core.FitResult, error) {
	if cfg.Shards <= 1 {
		return core.New(cfg.LTM).Fit(ds)
	}
	f, err := Compile(ds, cfg.Shards)
	if err != nil {
		return nil, err
	}
	return f.Fit(cfg.LTM, cfg.SyncEvery)
}
