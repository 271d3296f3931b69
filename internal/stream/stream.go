package stream

import (
	"fmt"
	"sort"

	"latenttruth/internal/core"
	"latenttruth/internal/model"
)

// Online is a stateful incremental truth finder. It is not safe for
// concurrent use.
type Online struct {
	base core.Config
	// counts[source][i][j] accumulates expected confusion counts over all
	// processed batches.
	counts map[string]*[2][2]float64
	// batches counts processed batches; factsSeen the cumulative facts.
	batches   int
	factsSeen int
}

// NewOnline returns an online truth finder with the given base
// configuration. The base Priors must be fully specified (use
// core.DefaultPriors sized to a typical batch when in doubt).
func NewOnline(base core.Config) (*Online, error) {
	if base.Priors == (core.Priors{}) {
		return nil, fmt.Errorf("stream: base configuration needs explicit priors")
	}
	if err := base.Priors.Validate(); err != nil {
		return nil, err
	}
	return &Online{base: base, counts: make(map[string]*[2][2]float64)}, nil
}

// Batches returns the number of batches processed by Step so far.
func (o *Online) Batches() int { return o.batches }

// HasQuality reports whether any per-source quality has been accumulated
// yet. Serving layers use it to decide whether the sampling-free Predict
// fast path is meaningful or a full fit is needed first.
func (o *Online) HasQuality() bool { return len(o.counts) > 0 }

// SourcesSeen returns the number of distinct sources with accumulated
// quality.
func (o *Online) SourcesSeen() int { return len(o.counts) }

// FactsSeen returns the cumulative number of facts across processed batches.
func (o *Online) FactsSeen() int { return o.factsSeen }

// sourcePriors materializes per-source hyperparameters from the base
// priors plus accumulated expected counts.
func (o *Online) sourcePriors() map[string]core.Priors {
	if len(o.counts) == 0 {
		return nil
	}
	out := make(map[string]core.Priors, len(o.counts))
	for name, e := range o.counts {
		out[name] = core.Priors{
			FP:   o.base.Priors.FP + e[0][1],
			TN:   o.base.Priors.TN + e[0][0],
			TP:   o.base.Priors.TP + e[1][1],
			FN:   o.base.Priors.FN + e[1][0],
			True: o.base.Priors.True,
			Fls:  o.base.Priors.Fls,
		}
	}
	return out
}

// Step integrates a new batch: it fits LTM on the batch with the
// accumulated per-source quality priors, then folds the batch's expected
// confusion counts into the accumulator. It returns the batch fit.
func (o *Online) Step(batch *model.Dataset) (*core.FitResult, error) {
	cfg := o.base
	cfg.SourcePriors = o.sourcePriors()
	fit, err := core.New(cfg).Fit(batch)
	if err != nil {
		return nil, fmt.Errorf("stream: batch %d: %w", o.batches, err)
	}
	e := core.ExpectedCounts(batch, fit.Prob)
	for s, name := range batch.Sources {
		acc, ok := o.counts[name]
		if !ok {
			acc = new([2][2]float64)
			o.counts[name] = acc
		}
		for i := 0; i <= 1; i++ {
			for j := 0; j <= 1; j++ {
				acc[i][j] += e[s][i][j]
			}
		}
	}
	o.batches++
	o.factsSeen += batch.NumFacts()
	return fit, nil
}

// StepDirty is the dirty-entity reconciliation of §5.4's incremental
// learning: sub is the sub-dataset of just the entities a batch touched,
// and prevContrib is those entities' expected-count contribution under the
// previous posterior (keyed by source name; as computed by the serving
// layer from the last published snapshot).
//
// The sub fit is conditioned on everything the accumulator knows about
// each source from the clean remainder of the corpus: the per-source
// priors are the base priors plus (accumulated counts − prevContrib), so
// the dirty entities are re-estimated against quality evidence they did
// not themselves produce. Afterwards the accumulator is reconciled with
// the delta — counts += newContrib − prevContrib — which keeps it tracking
// the cumulative expected counts without ever re-sweeping clean entities.
// Negative cells (float cancellation noise between a sum and its partial
// re-sum) are clamped to zero; the periodic full Refit re-anchors the
// accumulator exactly, bounding any drift.
func (o *Online) StepDirty(sub *model.Dataset, prevContrib map[string][2][2]float64) (*core.FitResult, error) {
	cfg := o.base
	sp := make(map[string]core.Priors, sub.NumSources())
	for _, name := range sub.Sources {
		var acc [2][2]float64
		if a := o.counts[name]; a != nil {
			acc = *a
		}
		if pc, ok := prevContrib[name]; ok {
			for i := 0; i <= 1; i++ {
				for j := 0; j <= 1; j++ {
					acc[i][j] -= pc[i][j]
					if acc[i][j] < 0 {
						acc[i][j] = 0
					}
				}
			}
		}
		sp[name] = core.Priors{
			FP:   o.base.Priors.FP + acc[0][1],
			TN:   o.base.Priors.TN + acc[0][0],
			TP:   o.base.Priors.TP + acc[1][1],
			FN:   o.base.Priors.FN + acc[1][0],
			True: o.base.Priors.True,
			Fls:  o.base.Priors.Fls,
		}
	}
	cfg.SourcePriors = sp
	fit, err := core.New(cfg).Fit(sub)
	if err != nil {
		return nil, fmt.Errorf("stream: dirty step: %w", err)
	}
	e := core.ExpectedCounts(sub, fit.Prob)
	for si, name := range sub.Sources {
		acc, ok := o.counts[name]
		if !ok {
			acc = new([2][2]float64)
			o.counts[name] = acc
		}
		pc := prevContrib[name]
		for i := 0; i <= 1; i++ {
			for j := 0; j <= 1; j++ {
				acc[i][j] += e[si][i][j] - pc[i][j]
				if acc[i][j] < 0 {
					acc[i][j] = 0
				}
			}
		}
	}
	o.batches++
	o.factsSeen += sub.NumFacts()
	return fit, nil
}

// Refit performs §5.4's "periodically the model can then be retrained
// batch-style on the total cumulative data": it fits LTM once on the
// supplied cumulative dataset with the base priors (no carried
// per-source priors, so stale estimates cannot compound) and REPLACES the
// accumulated expected counts with the refit's. The caller is responsible
// for retaining and merging the arrived batches (see store.Merge).
// Batch and fact counters are reset to reflect the refit dataset.
func (o *Online) Refit(cumulative *model.Dataset) (*core.FitResult, error) {
	fit, err := core.New(o.base).Fit(cumulative)
	if err != nil {
		return nil, fmt.Errorf("stream: refit: %w", err)
	}
	e := core.ExpectedCounts(cumulative, fit.Prob)
	o.counts = make(map[string]*[2][2]float64, cumulative.NumSources())
	for s, name := range cumulative.Sources {
		acc := new([2][2]float64)
		*acc = e[s]
		o.counts[name] = acc
	}
	o.batches = 1
	o.factsSeen = cumulative.NumFacts()
	return fit, nil
}

// Predict applies the closed-form LTMinc posterior (Equation 3) to a batch
// using the quality accumulated so far, without updating any state. It is
// the "source quality remains relatively unchanged over the medium term"
// fast path of §5.4.
func (o *Online) Predict(batch *model.Dataset) (*model.Result, error) {
	inc, err := core.NewIncrementalFromQuality(o.Quality(), o.base.Priors)
	if err != nil {
		return nil, fmt.Errorf("stream: %w", err)
	}
	return inc.Infer(batch)
}

// State is the serializable part of an Online accumulator: everything
// needed to reconstruct it bit-identically in a fresh process. Counts are
// deep-copied in both directions; JSON round-trips are exact because Go
// marshals float64 with the shortest representation that parses back to
// the same bits.
type State struct {
	Batches   int                      `json:"batches"`
	FactsSeen int                      `json:"facts_seen"`
	Priors    core.Priors              `json:"priors"`
	Counts    map[string][2][2]float64 `json:"counts"`
}

// State captures the accumulator for checkpointing.
func (o *Online) State() State {
	st := State{
		Batches:   o.batches,
		FactsSeen: o.factsSeen,
		Priors:    o.base.Priors,
		Counts:    make(map[string][2][2]float64, len(o.counts)),
	}
	for name, e := range o.counts {
		st.Counts[name] = *e
	}
	return st
}

// RestoreOnline reconstructs an online truth finder from a checkpointed
// State: base supplies the fit configuration (iterations, seed, ...) while the priors and accumulated counts come from the
// state, so a restored accumulator predicts and refits bit-identically to
// the one that was checkpointed.
func RestoreOnline(base core.Config, st State) (*Online, error) {
	base.Priors = st.Priors
	o, err := NewOnline(base)
	if err != nil {
		return nil, err
	}
	o.batches = st.Batches
	o.factsSeen = st.FactsSeen
	for name, e := range st.Counts {
		acc := new([2][2]float64)
		*acc = e
		o.counts[name] = acc
	}
	return o, nil
}

// Quality returns the current accumulated MAP quality estimate per source,
// in lexicographic source-name order. Rows come from the same closed form
// the batch estimator uses (core.QualityFromCounts), so a quality table
// derived from accumulated counts is bit-identical to one derived from a
// full fit whose expected counts match — the invariant the serving layer's
// cross-partition quality merge depends on.
func (o *Online) Quality() []model.SourceQuality {
	names := make([]string, 0, len(o.counts))
	for name := range o.counts {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]model.SourceQuality, 0, len(names))
	for _, name := range names {
		out = append(out, core.QualityFromCounts(name, *o.counts[name], o.base.Priors))
	}
	return out
}
