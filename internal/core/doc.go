// Package core implements the paper's primary contribution: the Latent
// Truth Model (§4), its collapsed Gibbs sampling inference (§5.2,
// Algorithm 1, Equation 2), maximum-a-posteriori source-quality estimation
// (§5.3, the read-off behind Table 8), the incremental predictor LTMinc
// (§5.4, Equation 3), and the positive-claims-only truncation LTMpos used
// as an ablation in §6.2.
//
// The generative process being inverted is:
//
//	for each source s:   φ0_s ~ Beta(α0,1, α0,0)   // false positive rate
//	                     φ1_s ~ Beta(α1,1, α1,0)   // sensitivity
//	for each fact f:     θ_f  ~ Beta(β1, β0)
//	                     t_f  ~ Bernoulli(θ_f)
//	for each claim c∈Cf: o_c  ~ Bernoulli(φ^{t_f}_{s_c})
//
// θ and φ are integrated out analytically (Beta–Bernoulli conjugacy), so
// the sampler only walks the space of truth assignments t, with per-source
// confusion counts as sufficient statistics.
//
// Inference runs on a compiled engine (engine.go): the claim table
// flattened once into a CSR-style layout, every log(count + α) of
// Equation 2 memoized per source, and a per-chain cache of each
// (source, label, observation) cell's claim term, refreshed when a flip
// moves its source's counts, so the sweep reads one cached term per label
// per claim. A verbatim Algorithm 1 transcription is retained in
// reference.go as the bit-identical oracle.
// Alongside the one-call LTM.Fit, the package exposes a step-level Sampler
// (sampler.go) — single sweeps, sample keeps, confusion-count
// export/import, shared log tables — which is the substrate the
// entity-sharded parallel fitter (internal/shard) drives. Multi-chain
// fits with Gelman–Rubin diagnostics (chains.go), the uncollapsed naive
// sampler and an EM alternative (§5.2 design-choice ablations) round out
// the inference surface.
package core
