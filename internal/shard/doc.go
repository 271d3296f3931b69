// Package shard implements entity-sharded parallel inference for the
// Latent Truth Model: the collapsed Gibbs sampler of §5.2 (Algorithm 1)
// executed over a claim store partitioned by entity, in the style of
// distributed-LDA samplers.
//
// Algorithm 1's conditional for a fact factorizes given the global
// per-source confusion counts n_{s,i,j} — the only state shared between
// facts of different entities. The fitter therefore partitions the dataset
// into entity shards (store.SplitEntities), compiles one sampler engine
// layout per shard, sweeps the shards concurrently against shard-local
// copies of the count tables, and reconciles the global (n_tp, n_fp,
// n_tn, n_fn) counts at a configurable sync interval: every S sweeps, a
// barrier sums each shard's own contribution into the global tables and
// redistributes the synchronized view. Between barriers each shard samples
// against counts that are exact for its own claims and up to S−1 sweeps
// stale for other shards' — the same approximation distributed LDA makes
// for its topic-word counts.
//
// Two operating modes:
//
//   - SyncEvery >= 2 (parallel): shards sweep concurrently on a worker
//     pool; per-shard chains draw from independent RNGs (seed + shard
//     index). Deterministic for a fixed (shards, sync interval, seed)
//     triple, and within a small posterior tolerance of the single-engine
//     fit (asserted by TestShardedFitCloseToReference).
//
//   - SyncEvery == 1 (exact): the barrier degenerates to per-flip
//     synchronization — facts are sampled in global order against fully
//     synchronized count tables from a single RNG stream, which is
//     bit-identical to the single-engine reference fit (asserted by
//     TestShardedFitExactMatchesReference). Exact mode exercises the full
//     shard bookkeeping (per-shard layouts, fact and source id mappings,
//     globally bounded log tables) and is the fallback for small data or
//     reproducibility-sensitive runs; it does not parallelize.
//
// The shard layer is a library and command-line experiment: the facade's
// FitSharded/CompileSharded, cmd/truthfind -shards/-sync-every and
// cmd/experiments -run sharded. The serving daemon's refits run the single
// engine, because a sharded refit would re-split the whole corpus by
// entity on every refit.
package shard
