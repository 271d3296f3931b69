// Package stream implements the online / incremental integration mode of
// §5.4: when data arrives as a stream of batches, source quality learned
// on already-integrated batches becomes the prior for new batches, so the
// model never needs to re-train on the cumulative data.
//
// Two §5.4 policies are provided:
//
//   - Online.Step: fit LTM on the new batch only, with each source's
//     hyperparameters set to prior + expected confusion counts accumulated
//     so far (full incremental learning);
//   - Online.Predict: assume quality is unchanged over the medium term and
//     apply the closed-form LTMinc posterior (Equation 3) — no sampling at
//     all, the fastest path (Table 9's LTMinc row).
//
// Online.Refit covers §5.4's "periodically the model can then be
// retrained batch-style on the total cumulative data" with one
// single-engine fit, and Online.StepDirty re-sweeps only the entities a
// batch touched, conditioned on the quality accumulated from the rest.
package stream
