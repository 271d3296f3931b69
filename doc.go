// Package latenttruth is a truth-discovery library for data integration,
// implementing the Latent Truth Model (LTM) of Zhao, Rubinstein, Gemmell &
// Han, "A Bayesian Approach to Discovering Truth from Conflicting Sources
// for Data Integration", VLDB 2012, together with the full set of
// comparison methods from the paper's evaluation.
//
// Given a raw database of (entity, attribute, source) triples in which
// sources conflict, the library infers which facts are true and how
// reliable each source is — without supervision — by modeling two-sided
// source quality (sensitivity and specificity) with a collapsed Gibbs
// sampler (§5.2, Algorithm 1). Multi-valued attributes (a book's authors,
// a movie's cast) are supported natively: any number of facts per entity
// may be true.
//
// Quickstart:
//
//	st := latenttruth.NewMemoryStorage()
//	st.AddRow(latenttruth.Row{Entity: "Harry Potter", Attribute: "Daniel Radcliffe", Source: "IMDB"})
//	st.AddRow(latenttruth.Row{Entity: "Harry Potter", Attribute: "Johnny Depp", Source: "BadSource.com"})
//	// ... more triples ...
//	ds := latenttruth.BuildDatasetRows(st.Rows())
//	fit, err := latenttruth.NewLTM(latenttruth.Config{}).Fit(ds)
//	if err != nil { ... }
//	records, err := latenttruth.Integrate(ds, fit.Result, 0.5)
//
// Large datasets can be fitted with entity-sharded parallel inference
// (FitSharded / CompileSharded): the claim store is partitioned by entity,
// shards are swept concurrently, and the global per-source confusion
// counts are reconciled at a configurable sync interval — sync interval 1
// is an exact mode, bit-identical to the single-engine fit. The
// truth-serving daemon's background refits use the single engine.
//
// The serving daemon (NewTruthServer) scales writes with durability
// (DurabilityConfig: write-ahead log + checkpoints + crash recovery) and
// reads with replication (StartFollower): a durable primary ships its
// checkpoint and WAL over HTTP to read-only followers that replay its
// refit schedule and serve bit-identical truth tables.
//
// This root package is a facade over the internal packages; it re-exports
// everything a downstream integrator needs: the data model (§2), LTM and
// its incremental/online variants (§5), the seven baseline methods (§6.2),
// evaluation utilities (threshold sweeps, ROC/AUC — §3.1, Figures 2–3),
// dataset I/O, and the simulated evaluation corpora (§6.1.1). The cmd/
// directory provides executables, examples/ runnable walkthroughs, and
// bench_test.go regenerates every table and figure of the paper. See
// docs/ARCHITECTURE.md for the layer map and docs/PAPER_MAP.md for the
// paper-artifact-to-code index.
package latenttruth
