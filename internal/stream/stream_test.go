package stream

import (
	"encoding/json"
	"math"
	"testing"

	"latenttruth/internal/core"
	"latenttruth/internal/model"
	"latenttruth/internal/store"
	"latenttruth/internal/synth"
)

// testCorpus builds a small book-like corpus cheap enough for unit tests.
func testCorpus(t *testing.T, seed int64) *synth.Corpus {
	t.Helper()
	spec := synth.CorpusSpec{
		Name: "streamtest", NumEntities: 300,
		TrueAttrWeights:  []float64{0.5, 0.4, 0.1},
		FalseCandWeights: []float64{0.5, 0.4, 0.1},
		LabelEntities:    40,
		Seed:             seed,
		Sources: []synth.SourceProfile{
			{Name: "good", Coverage: 0.9, Sensitivity: 0.95, FPR: 0.02},
			{Name: "lazy", Coverage: 0.8, Sensitivity: 0.5, FPR: 0.02},
			{Name: "messy", Coverage: 0.8, Sensitivity: 0.85, FPR: 0.35},
			{Name: "ok", Coverage: 0.7, Sensitivity: 0.8, FPR: 0.05},
		},
	}
	c, err := synth.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewOnlineRequiresPriors(t *testing.T) {
	if _, err := NewOnline(core.Config{}); err == nil {
		t.Fatal("expected error without priors")
	}
	if _, err := NewOnline(core.Config{Priors: core.Priors{FP: -1}}); err == nil {
		t.Fatal("expected error for invalid priors")
	}
	if _, err := NewOnline(core.Config{Priors: core.DefaultPriors(100)}); err != nil {
		t.Fatal(err)
	}
}

func TestOnlineAccumulatesQuality(t *testing.T) {
	c := testCorpus(t, 1)
	batches := store.SplitEntities(c.Dataset, 3)
	o, err := NewOnline(core.Config{Priors: core.DefaultPriors(300), Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if o.Batches() != 0 || o.FactsSeen() != 0 {
		t.Fatal("fresh online state not empty")
	}
	for i, b := range batches {
		if _, err := o.Step(b); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	if o.Batches() != 3 {
		t.Fatalf("Batches = %d", o.Batches())
	}
	if o.FactsSeen() != c.Dataset.NumFacts() {
		t.Fatalf("FactsSeen = %d, want %d", o.FactsSeen(), c.Dataset.NumFacts())
	}
	// Accumulated quality must separate the generator's good and messy
	// sources on the specificity axis, and good vs lazy on sensitivity.
	q := map[string]struct{ sens, spec float64 }{}
	for _, sq := range o.Quality() {
		q[sq.Source] = struct{ sens, spec float64 }{sq.Sensitivity, sq.Specificity}
	}
	if q["good"].spec <= q["messy"].spec {
		t.Fatalf("specificity: good %v <= messy %v", q["good"].spec, q["messy"].spec)
	}
	if q["good"].sens <= q["lazy"].sens {
		t.Fatalf("sensitivity: good %v <= lazy %v", q["good"].sens, q["lazy"].sens)
	}
}

func TestOnlinePredictUsesAccumulatedQuality(t *testing.T) {
	c := testCorpus(t, 2)
	batches := store.SplitEntities(c.Dataset, 4)
	o, err := NewOnline(core.Config{Priors: core.DefaultPriors(200), Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches[:3] {
		if _, err := o.Step(b); err != nil {
			t.Fatal(err)
		}
	}
	last := batches[3]
	res, err := o.Predict(last)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := c.TruthOf(last)
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for f, v := range truth {
		if (res.Prob[f] >= 0.5) == v {
			correct++
		}
	}
	acc := float64(correct) / float64(len(truth))
	if acc < 0.9 {
		t.Fatalf("LTMinc accuracy on final batch = %v", acc)
	}
	// Predict must not mutate state.
	if o.Batches() != 3 {
		t.Fatalf("Predict changed batch count to %d", o.Batches())
	}
}

func TestOnlineStepImprovesOverColdPredict(t *testing.T) {
	// Predicting a batch from zero accumulated knowledge uses only prior
	// means; after warming up on other batches, prediction should be at
	// least as accurate.
	c := testCorpus(t, 3)
	batches := store.SplitEntities(c.Dataset, 4)
	cold, err := NewOnline(core.Config{Priors: core.DefaultPriors(200), Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := NewOnline(core.Config{Priors: core.DefaultPriors(200), Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches[:3] {
		if _, err := warm.Step(b); err != nil {
			t.Fatal(err)
		}
	}
	last := batches[3]
	truth, err := c.TruthOf(last)
	if err != nil {
		t.Fatal(err)
	}
	accOf := func(o *Online) float64 {
		res, err := o.Predict(last)
		if err != nil {
			t.Fatal(err)
		}
		correct := 0
		for f, v := range truth {
			if (res.Prob[f] >= 0.5) == v {
				correct++
			}
		}
		return float64(correct) / float64(len(truth))
	}
	coldAcc, warmAcc := accOf(cold), accOf(warm)
	if warmAcc < coldAcc-0.02 {
		t.Fatalf("warm accuracy %v worse than cold %v", warmAcc, coldAcc)
	}
}

func TestOnlineRefit(t *testing.T) {
	c := testCorpus(t, 5)
	batches := store.SplitEntities(c.Dataset, 3)
	o, err := NewOnline(core.Config{Priors: core.DefaultPriors(300), Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		if _, err := o.Step(b); err != nil {
			t.Fatal(err)
		}
	}
	incrementalQ := o.Quality()
	// Periodic batch refit on the cumulative data.
	fit, err := o.Refit(c.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	if o.Batches() != 1 || o.FactsSeen() != c.Dataset.NumFacts() {
		t.Fatalf("counters after refit: %d batches, %d facts", o.Batches(), o.FactsSeen())
	}
	refitQ := o.Quality()
	if len(refitQ) != len(incrementalQ) {
		t.Fatalf("quality rows: %d vs %d", len(refitQ), len(incrementalQ))
	}
	// Refit and incremental quality must broadly agree (same data).
	byName := map[string]float64{}
	for _, q := range incrementalQ {
		byName[q.Source] = q.Sensitivity
	}
	for _, q := range refitQ {
		if d := q.Sensitivity - byName[q.Source]; d > 0.15 || d < -0.15 {
			t.Errorf("%s sensitivity drifted %v after refit", q.Source, d)
		}
	}
	// Refit accuracy on the full corpus is high.
	truth, err := c.TruthOf(c.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for f, v := range truth {
		if (fit.Prob[f] >= 0.5) == v {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(truth)); acc < 0.9 {
		t.Fatalf("refit accuracy %v", acc)
	}
}

func TestOnlineQualityBounds(t *testing.T) {
	c := testCorpus(t, 4)
	o, err := NewOnline(core.Config{Priors: core.DefaultPriors(300), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.Step(c.Dataset); err != nil {
		t.Fatal(err)
	}
	for _, q := range o.Quality() {
		for name, v := range map[string]float64{
			"sens": q.Sensitivity, "spec": q.Specificity,
			"prec": q.Precision, "acc": q.Accuracy,
		} {
			if v <= 0 || v >= 1 || math.IsNaN(v) {
				t.Fatalf("%s %s = %v", q.Source, name, v)
			}
		}
	}
	// Quality list is sorted by source name.
	qs := o.Quality()
	for i := 1; i < len(qs); i++ {
		if qs[i-1].Source > qs[i].Source {
			t.Fatal("quality not sorted by source name")
		}
	}
}

func TestStateRoundTripIsBitIdentical(t *testing.T) {
	c := testCorpus(t, 7)
	batches := store.SplitEntities(c.Dataset, 4)
	o, err := NewOnline(core.Config{Priors: core.DefaultPriors(300), Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches[:3] {
		if _, err := o.Step(b); err != nil {
			t.Fatal(err)
		}
	}

	// Serialize through JSON exactly as the checkpoint manifest does.
	raw, err := json.Marshal(o.State())
	if err != nil {
		t.Fatal(err)
	}
	var st State
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreOnline(core.Config{Seed: 5}, st)
	if err != nil {
		t.Fatal(err)
	}

	if restored.Batches() != o.Batches() || restored.FactsSeen() != o.FactsSeen() {
		t.Fatalf("counters: restored (%d, %d), want (%d, %d)",
			restored.Batches(), restored.FactsSeen(), o.Batches(), o.FactsSeen())
	}
	// Quality must match to the last bit: JSON float64 round-trips are
	// exact and the counts are copied verbatim.
	qa, qb := o.Quality(), restored.Quality()
	if len(qa) != len(qb) {
		t.Fatalf("quality rows: %d vs %d", len(qa), len(qb))
	}
	for i := range qa {
		if qa[i] != qb[i] {
			t.Fatalf("quality row %d differs: %+v vs %+v", i, qa[i], qb[i])
		}
	}
	// And so must downstream inference: Predict and Step from the restored
	// accumulator produce bit-identical results.
	last := batches[3]
	ra, err := o.Predict(last)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := restored.Predict(last)
	if err != nil {
		t.Fatal(err)
	}
	for f := range ra.Prob {
		if ra.Prob[f] != rb.Prob[f] {
			t.Fatalf("fact %d: %v vs %v", f, ra.Prob[f], rb.Prob[f])
		}
	}
	fa, err := o.Step(last)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := restored.Step(last)
	if err != nil {
		t.Fatal(err)
	}
	for f := range fa.Prob {
		if fa.Prob[f] != fb.Prob[f] {
			t.Fatalf("post-step fact %d: %v vs %v", f, fa.Prob[f], fb.Prob[f])
		}
	}
}

func TestRestoreOnlineRejectsBadPriors(t *testing.T) {
	if _, err := RestoreOnline(core.Config{}, State{}); err == nil {
		t.Fatal("expected error restoring a state with zero priors")
	}
}

// dirtyContrib computes the expected-count contribution of the given
// entities under a posterior — the serving layer's input to StepDirty.
func dirtyContrib(ds *model.Dataset, prob []float64, entities []int) map[string][2][2]float64 {
	out := make(map[string][2][2]float64)
	for _, e := range entities {
		for _, f := range ds.FactsByEntity[e] {
			pt := prob[f]
			for _, ci := range ds.ClaimsByFact[f] {
				c := ds.Claims[ci]
				o := 0
				if c.Observation {
					o = 1
				}
				name := ds.Sources[c.Source]
				acc := out[name]
				acc[1][o] += pt
				acc[0][o] += 1 - pt
				out[name] = acc
			}
		}
	}
	return out
}

// TestStepDirtyReconcilesCounts: after a full Refit anchors the
// accumulator, a StepDirty over a subset of entities must (a) keep the
// accumulator close to the cumulative expected counts — within the float
// cancellation noise of subtracting a partial sum — and (b) produce a fit
// whose quality stays consistent with the generator's source separation.
func TestStepDirtyReconcilesCounts(t *testing.T) {
	c := testCorpus(t, 9)
	o, err := NewOnline(core.Config{Priors: core.DefaultPriors(c.Dataset.NumFacts()), Seed: 3, Iterations: 40})
	if err != nil {
		t.Fatal(err)
	}
	full, err := o.Refit(c.Dataset)
	if err != nil {
		t.Fatal(err)
	}

	// Re-estimate the first third of the entities as "dirty" against the
	// accumulated quality of the rest.
	n := c.Dataset.NumEntities() / 3
	var dirtyIDs []int
	for e := 0; e < n; e++ {
		dirtyIDs = append(dirtyIDs, e)
	}
	sub := store.FilterEntities(c.Dataset, func(e int, _ string) bool { return e < n })
	prev := dirtyContrib(c.Dataset, full.Prob, dirtyIDs)

	fit, err := o.StepDirty(sub, prev)
	if err != nil {
		t.Fatal(err)
	}
	if len(fit.Prob) != sub.NumFacts() {
		t.Fatalf("dirty fit has %d probs for %d sub facts", len(fit.Prob), sub.NumFacts())
	}

	// Reconstruct what the accumulator should hold: cumulative counts with
	// the dirty entities' contribution replaced by the re-fit's.
	newContrib := core.ExpectedCounts(sub, fit.Prob)
	cum := core.ExpectedCounts(c.Dataset, full.Prob)
	st := o.State()
	for s, name := range c.Dataset.Sources {
		var want [2][2]float64
		want = cum[s]
		pc := prev[name]
		var nc [2][2]float64
		for si, sn := range sub.Sources {
			if sn == name {
				nc = newContrib[si]
				break
			}
		}
		got := st.Counts[name]
		for i := 0; i <= 1; i++ {
			for j := 0; j <= 1; j++ {
				w := want[i][j] - pc[i][j] + nc[i][j]
				if w < 0 {
					w = 0
				}
				if math.Abs(got[i][j]-w) > 1e-6*(1+math.Abs(w)) {
					t.Fatalf("source %s counts[%d][%d] = %v, want %v", name, i, j, got[i][j], w)
				}
			}
		}
	}
	if o.Batches() != 2 {
		t.Fatalf("Batches = %d after Refit+StepDirty", o.Batches())
	}
}

// TestStepDirtyNoOpDelta: re-fitting a dirty subset whose posterior does
// not move must leave every clean source's accumulated counts exactly
// unchanged for cells untouched by the subset (x + (y − y) = x holds
// bitwise in IEEE arithmetic when y is finite).
func TestStepDirtyUntouchedSourcesUnchanged(t *testing.T) {
	c := testCorpus(t, 12)
	o, err := NewOnline(core.Config{Priors: core.DefaultPriors(c.Dataset.NumFacts()), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.Refit(c.Dataset); err != nil {
		t.Fatal(err)
	}
	before := o.State()

	// A sub-dataset covering only entity 0, with a synthetic source no other
	// entity uses, must not perturb sources outside its cover at all beyond
	// the delta arithmetic on the covering ones.
	sub := store.FilterEntities(c.Dataset, func(e int, _ string) bool { return e == 0 })
	prev := dirtyContrib(c.Dataset, o.mustProb(t, c.Dataset), []int{0})
	if _, err := o.StepDirty(sub, prev); err != nil {
		t.Fatal(err)
	}
	after := o.State()
	covered := make(map[string]bool)
	for _, s := range sub.Sources {
		covered[s] = true
	}
	for name, b := range before.Counts {
		if covered[name] {
			continue
		}
		if after.Counts[name] != b {
			t.Fatalf("uncovered source %s counts changed: %v -> %v", name, b, after.Counts[name])
		}
	}
}

// mustProb recomputes the posterior the accumulator's quality implies for
// ds — a stand-in for "the previous snapshot's posterior" in tests.
func (o *Online) mustProb(t *testing.T, ds *model.Dataset) []float64 {
	t.Helper()
	res, err := o.Predict(ds)
	if err != nil {
		t.Fatal(err)
	}
	return res.Prob
}
