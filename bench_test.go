package latenttruth_test

// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation section (§6), plus ablation benches for the design
// choices called out in DESIGN.md. Each benchmark regenerates its
// experiment end to end on the simulated corpora; accuracy-style outcomes
// are attached as custom benchmark metrics so `go test -bench` output
// doubles as a compact reproduction report. cmd/experiments prints the
// full tables (use -repeats 10 there for the paper's averaging).
//
// Corpora are generated once and shared across benchmarks; generation
// cost is excluded from timings via b.ResetTimer.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"latenttruth"
	"latenttruth/internal/core"
	"latenttruth/internal/eval"
	"latenttruth/internal/experiments"
	"latenttruth/internal/model"
	"latenttruth/internal/segment"
	"latenttruth/internal/stats"
	"latenttruth/internal/store"
)

var bench struct {
	once    sync.Once
	corpora *experiments.Corpora
	err     error
}

// benchCorpora generates (once) the book and movie corpora.
func benchCorpora(b *testing.B) *experiments.Corpora {
	b.Helper()
	bench.once.Do(func() {
		bench.corpora, bench.err = experiments.LoadCorpora(benchConfig())
	})
	if bench.err != nil {
		b.Fatal(bench.err)
	}
	return bench.corpora
}

// benchConfig is the shared experiment configuration: single repetition
// per bench iteration (testing.B supplies the averaging), paper-default
// LTM settings.
func benchConfig() experiments.Config {
	return experiments.Config{Seed: 42, Repeats: 1, LTM: core.Config{Seed: 7}}
}

// --- Table 7: inference quality at threshold 0.5 ---------------------------

func BenchmarkTable7Book(b *testing.B) {
	corpora := benchCorpora(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t7, err := experiments.RunTable7(corpora.Book, benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		reportRow(b, t7, "LTM")
	}
}

func BenchmarkTable7Movie(b *testing.B) {
	corpora := benchCorpora(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t7, err := experiments.RunTable7(corpora.Movie, benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		reportRow(b, t7, "LTM")
	}
}

// reportRow attaches one method's accuracy and F1 as benchmark metrics.
func reportRow(b *testing.B, t7 *experiments.Table7, method string) {
	for _, r := range t7.Rows {
		if r.Method == method {
			b.ReportMetric(r.Accuracy, "accuracy")
			b.ReportMetric(r.F1, "F1")
		}
	}
}

// --- Table 8: source quality -----------------------------------------------

func BenchmarkTable8(b *testing.B) {
	corpora := benchCorpora(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t8, err := experiments.RunTable8(corpora.Movie, benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(t8.SensSpearman, "sens-spearman")
		b.ReportMetric(t8.SpecSpearman, "spec-spearman")
	}
}

// --- Table 9 and Figure 6: runtime scaling ---------------------------------

func BenchmarkTable9(b *testing.B) {
	corpora := benchCorpora(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTable9(corpora.Movie, benchConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure6(b *testing.B) {
	corpora := benchCorpora(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f6, err := experiments.RunFigure6(corpora.Movie, benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(f6.Fit.R2, "R2")
	}
}

// --- Figure 2: accuracy vs threshold ---------------------------------------

func BenchmarkFigure2Book(b *testing.B) {
	corpora := benchCorpora(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFigure2(corpora.Book, benchConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure2Movie(b *testing.B) {
	corpora := benchCorpora(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFigure2(corpora.Movie, benchConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 3: AUC ----------------------------------------------------------

func BenchmarkFigure3(b *testing.B) {
	corpora := benchCorpora(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f3, err := experiments.RunFigure3(corpora, benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		for j, m := range f3.Methods {
			if m == "LTM" {
				b.ReportMetric(f3.BookAUC[j], "book-AUC")
				b.ReportMetric(f3.MovieAUC[j], "movie-AUC")
			}
		}
	}
}

// --- Figure 4: degraded synthetic quality -----------------------------------

func BenchmarkFigure4(b *testing.B) {
	cfg := benchConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f4, err := experiments.RunFigure4(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(f4.VaryingSensitivity[0].Accuracy, "acc-sens0.1")
		b.ReportMetric(f4.VaryingSpecificity[0].Accuracy, "acc-spec0.1")
	}
}

// --- Figure 5: convergence ----------------------------------------------------

func BenchmarkFigure5(b *testing.B) {
	corpora := benchCorpora(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f5, err := experiments.RunFigure5(corpora.Movie, benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(f5.Points[0].Accuracy.Mean, "acc@7iters")
		b.ReportMetric(f5.Points[len(f5.Points)-1].Accuracy.Mean, "acc@500iters")
	}
}

// --- Core micro-benchmarks ---------------------------------------------------

// BenchmarkLTMGibbs measures raw sampler throughput on the movie corpus
// (claims processed per sweep; paper: linear in |C|, Figure 6).
func BenchmarkLTMGibbs(b *testing.B) {
	corpora := benchCorpora(b)
	ds := corpora.Movie.Dataset
	cfg := latenttruth.Config{Iterations: 20, BurnIn: 5, Seed: 7}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := latenttruth.NewLTM(cfg).Fit(ds); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(ds.NumClaims()*20)*float64(b.N)/b.Elapsed().Seconds(), "claimsweeps/s")
}

// BenchmarkLTMinc measures the closed-form incremental predictor
// (Equation 3), the fast path of Table 9.
func BenchmarkLTMinc(b *testing.B) {
	corpora := benchCorpora(b)
	ds := corpora.Movie.Dataset
	fit, err := latenttruth.NewLTM(latenttruth.Config{Seed: 7}).Fit(ds)
	if err != nil {
		b.Fatal(err)
	}
	inc, err := latenttruth.NewIncremental(ds, fit)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := inc.Infer(ds); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClaimGeneration measures Definitions 2-3 derivation (raw
// triples to fact+claim tables) on the book corpus's positive claims.
func BenchmarkClaimGeneration(b *testing.B) {
	corpora := benchCorpora(b)
	ds := corpora.Book.Dataset
	st := latenttruth.NewMemoryStorage()
	for _, c := range ds.Claims {
		if c.Observation {
			f := ds.Facts[c.Fact]
			st.AddRow(latenttruth.Row{
				Entity:    ds.Entities[f.Entity],
				Attribute: f.Attribute,
				Source:    ds.Sources[c.Source],
			})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := latenttruth.BuildDatasetRows(st.Rows())
		if out.NumFacts() == 0 {
			b.Fatal("empty build")
		}
	}
}

// --- Gibbs sweep micro-benchmarks (engine-level) -----------------------------
//
// BenchmarkGibbsSweep* track the sampler engine's sweep throughput in
// isolation from the end-to-end table benches: dense synthetic datasets at
// three fact fan-outs (claims per fact = number of sources), plus single-
// vs multi-chain execution. The claimsweeps/s metric is the engine's
// claims-processed-per-second figure of merit.

// benchSweepDataset generates a dense synthetic dataset whose fan-out is
// the source count.
func benchSweepDataset(b *testing.B, facts, sources int) *latenttruth.Dataset {
	b.Helper()
	ds, _, err := latenttruth.PaperSynthetic(latenttruth.PaperSyntheticConfig{
		NumFacts: facts, NumSources: sources,
		Alpha0: [2]float64{5, 95}, Alpha1: [2]float64{85, 15},
		Beta: [2]float64{10, 10}, Seed: int64(facts + sources),
	})
	if err != nil {
		b.Fatal(err)
	}
	return ds
}

const sweepBenchIters = 20

func benchmarkGibbsSweep(b *testing.B, facts, sources int) {
	ds := benchSweepDataset(b, facts, sources)
	cfg := latenttruth.Config{Iterations: sweepBenchIters, BurnIn: 5, Seed: 7}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := latenttruth.NewLTM(cfg).Fit(ds); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(ds.NumClaims()*sweepBenchIters)*float64(b.N)/b.Elapsed().Seconds(), "claimsweeps/s")
}

// Small fan-out: many cheap facts (8 claims each).
func BenchmarkGibbsSweepSmall(b *testing.B) { benchmarkGibbsSweep(b, 500, 8) }

// Medium fan-out: the shape of the simulated corpora (25 claims per fact).
func BenchmarkGibbsSweepMedium(b *testing.B) { benchmarkGibbsSweep(b, 2000, 25) }

// Large fan-out: few facts with very long claim lists (150 claims each),
// the regime where the per-claim inner loop dominates.
func BenchmarkGibbsSweepLarge(b *testing.B) { benchmarkGibbsSweep(b, 1000, 150) }

// BenchmarkGibbsSweepChains measures multi-chain execution on the medium
// sweep dataset: one compiled layout and log-table set shared by all
// chains, chains scheduled on a worker pool sized to GOMAXPROCS.
func BenchmarkGibbsSweepChains(b *testing.B) {
	ds := benchSweepDataset(b, 2000, 25)
	// Keep every post-burn-in sweep so the Gelman–Rubin diagnostic has
	// enough samples per chain at this short iteration count.
	cfg := latenttruth.Config{Iterations: sweepBenchIters, BurnIn: 5, Seed: 7,
		SampleGap: latenttruth.NoSampleGap}
	b.Run("Chains1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := latenttruth.NewLTM(cfg).Fit(ds); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, chains := range []int{2, 4} {
		b.Run(fmt.Sprintf("Chains%d", chains), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := latenttruth.FitChains(latenttruth.NewLTM(cfg), ds, chains); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGibbsSweepCompiled isolates the layout-reuse path: repeated
// fits of one dataset through a pre-compiled engine (the multi-type
// integrator's access pattern) versus compiling per fit.
func BenchmarkGibbsSweepCompiled(b *testing.B) {
	ds := benchSweepDataset(b, 2000, 25)
	cfg := latenttruth.Config{Iterations: sweepBenchIters, BurnIn: 5, Seed: 7}
	eng := latenttruth.CompileDataset(ds)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Fit(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(ds.NumClaims()*sweepBenchIters)*float64(b.N)/b.Elapsed().Seconds(), "claimsweeps/s")
}

// --- Sharded fit benchmarks --------------------------------------------------
//
// BenchmarkShardedFit{2,4,8} run the entity-sharded parallel fitter on the
// large synthetic dataset (2000 facts × 100 sources = 200k claims) at the
// default sync interval, against the single-engine baseline
// (BenchmarkShardedFitSingle). Each sharded bench reports speedup-vs-single
// measured in-process, so `go test -bench ShardedFit` prints the scaling
// curve directly; the speedup tracks available cores (shards sweep on a
// GOMAXPROCS-bounded pool) and tops out at the shard count.

// shardedBench lazily generates the shared dataset and times the
// single-engine baseline once.
var shardedBench struct {
	once      sync.Once
	ds        *latenttruth.Dataset
	singleSec float64
	err       error
}

const shardedBenchIters = 20

func shardedBenchSetup(b *testing.B) (*latenttruth.Dataset, float64) {
	b.Helper()
	shardedBench.once.Do(func() {
		ds, _, err := latenttruth.PaperSynthetic(latenttruth.PaperSyntheticConfig{
			NumFacts: 2000, NumSources: 100,
			Alpha0: [2]float64{5, 95}, Alpha1: [2]float64{85, 15},
			Beta: [2]float64{10, 10}, Seed: 99,
		})
		if err != nil {
			shardedBench.err = err
			return
		}
		shardedBench.ds = ds
		cfg := latenttruth.Config{Iterations: shardedBenchIters, BurnIn: 5, Seed: 7}
		eng := latenttruth.CompileDataset(ds)
		if _, err := eng.Fit(cfg); err != nil { // warm-up
			shardedBench.err = err
			return
		}
		start := time.Now()
		const reps = 3
		for i := 0; i < reps; i++ {
			if _, err := eng.Fit(cfg); err != nil {
				shardedBench.err = err
				return
			}
		}
		shardedBench.singleSec = time.Since(start).Seconds() / reps
	})
	if shardedBench.err != nil {
		b.Fatal(shardedBench.err)
	}
	return shardedBench.ds, shardedBench.singleSec
}

// BenchmarkShardedFitSingle is the unsharded baseline on the same dataset
// and iteration budget.
func BenchmarkShardedFitSingle(b *testing.B) {
	ds, _ := shardedBenchSetup(b)
	cfg := latenttruth.Config{Iterations: shardedBenchIters, BurnIn: 5, Seed: 7}
	eng := latenttruth.CompileDataset(ds)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Fit(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(ds.NumClaims()*shardedBenchIters)*float64(b.N)/b.Elapsed().Seconds(), "claimsweeps/s")
}

func benchmarkShardedFit(b *testing.B, shards int) {
	ds, singleSec := shardedBenchSetup(b)
	cfg := latenttruth.Config{Iterations: shardedBenchIters, BurnIn: 5, Seed: 7}
	fitter, err := latenttruth.CompileSharded(ds, shards)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fitter.Fit(cfg, latenttruth.DefaultSyncEvery); err != nil {
			b.Fatal(err)
		}
	}
	perOp := b.Elapsed().Seconds() / float64(b.N)
	b.ReportMetric(float64(ds.NumClaims()*shardedBenchIters)*float64(b.N)/b.Elapsed().Seconds(), "claimsweeps/s")
	b.ReportMetric(singleSec/perOp, "speedup-vs-single")
}

func BenchmarkShardedFit2(b *testing.B) { benchmarkShardedFit(b, 2) }
func BenchmarkShardedFit4(b *testing.B) { benchmarkShardedFit(b, 4) }
func BenchmarkShardedFit8(b *testing.B) { benchmarkShardedFit(b, 8) }

// --- Ablations (design choices from DESIGN.md §4) ----------------------------

// BenchmarkAblationSampling compares the paper's binary sample averaging
// (Algorithm 1) with the Rao-Blackwellized default on the movie corpus.
func BenchmarkAblationSampling(b *testing.B) {
	corpora := benchCorpora(b)
	ds := corpora.Movie.Dataset
	for _, mode := range []struct {
		name   string
		binary bool
	}{{"Binary", true}, {"RaoBlackwell", false}} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := latenttruth.Config{Seed: 7, BinarySamples: mode.binary}
			for i := 0; i < b.N; i++ {
				fit, err := latenttruth.NewLTM(cfg).Fit(ds)
				if err != nil {
					b.Fatal(err)
				}
				m, err := eval.Evaluate(ds, fit.Result, 0.5)
				if err != nil {
					b.Fatal(err)
				}
				auc, err := eval.AUC(ds, fit.Result)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(m.Accuracy, "accuracy")
				b.ReportMetric(auc, "AUC")
			}
		})
	}
}

// BenchmarkAblationPriorStrength sweeps the specificity prior's total
// count: the paper argues it must be on the order of the number of facts
// (§6.2); too weak lets the model flip truths, too strong washes out the
// data.
func BenchmarkAblationPriorStrength(b *testing.B) {
	corpora := benchCorpora(b)
	ds := corpora.Movie.Dataset
	for _, scale := range []struct {
		name  string
		total float64
	}{{"Weak100", 100}, {"Paper10k", 10000}, {"Strong100k", 100000}} {
		b.Run(scale.name, func(b *testing.B) {
			p := latenttruth.Priors{
				FP: 0.01 * scale.total, TN: 0.99 * scale.total,
				TP: 50, FN: 50, True: 10, Fls: 10,
			}
			for i := 0; i < b.N; i++ {
				fit, err := latenttruth.NewLTM(latenttruth.Config{Priors: p, Seed: 7}).Fit(ds)
				if err != nil {
					b.Fatal(err)
				}
				m, err := eval.Evaluate(ds, fit.Result, 0.5)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(m.Accuracy, "accuracy")
			}
		})
	}
}

// BenchmarkAblationNegativeClaims quantifies the paper's central claim:
// dropping negative claims (LTMpos) destroys discrimination.
func BenchmarkAblationNegativeClaims(b *testing.B) {
	corpora := benchCorpora(b)
	ds := corpora.Movie.Dataset
	for _, v := range []struct {
		name   string
		method latenttruth.Method
	}{
		{"WithNegative", latenttruth.NewLTM(latenttruth.Config{Seed: 7})},
		{"PositiveOnly", latenttruth.NewLTMPos(latenttruth.Config{Seed: 7})},
	} {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := v.method.Infer(ds)
				if err != nil {
					b.Fatal(err)
				}
				m, err := eval.Evaluate(ds, res, 0.5)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(m.Accuracy, "accuracy")
				b.ReportMetric(m.FPR, "FPR")
			}
		})
	}
}

// BenchmarkAblationInference compares the three inference engines for the
// same model: the paper's collapsed Gibbs sampler, the uncollapsed (naive)
// Gibbs sampler it improves on, and the deterministic EM alternative —
// quality vs cost of the §5.2 design choice.
func BenchmarkAblationInference(b *testing.B) {
	corpora := benchCorpora(b)
	ds := corpora.Movie.Dataset
	for _, v := range []struct {
		name   string
		method latenttruth.Method
	}{
		{"Collapsed", latenttruth.NewLTM(latenttruth.Config{Seed: 7})},
		{"Naive", latenttruth.NewNaiveLTM(latenttruth.Config{Seed: 7})},
		{"EM", latenttruth.NewEMLTM(latenttruth.Config{Seed: 7})},
	} {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := v.method.Infer(ds)
				if err != nil {
					b.Fatal(err)
				}
				m, err := eval.Evaluate(ds, res, 0.5)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(m.Accuracy, "accuracy")
			}
		})
	}
}

// BenchmarkAblationBurnIn sweeps the burn-in length at fixed total
// iterations (convergence design choice behind Figure 5's schedule).
func BenchmarkAblationBurnIn(b *testing.B) {
	corpora := benchCorpora(b)
	ds := corpora.Movie.Dataset
	for _, burn := range []int{2, 20, 60} {
		b.Run(map[int]string{2: "BurnIn2", 20: "BurnIn20", 60: "BurnIn60"}[burn], func(b *testing.B) {
			cfg := latenttruth.Config{Iterations: 100, BurnIn: burn, SampleGap: 4, Seed: 7}
			for i := 0; i < b.N; i++ {
				fit, err := latenttruth.NewLTM(cfg).Fit(ds)
				if err != nil {
					b.Fatal(err)
				}
				m, err := eval.Evaluate(ds, fit.Result, 0.5)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(m.Accuracy, "accuracy")
			}
		})
	}
}

// BenchmarkAblationAdversarialFilter measures the §7 iterative filter
// against a straight fit when an adversarial source is injected.
func BenchmarkAblationAdversarialFilter(b *testing.B) {
	corpora := benchCorpora(b)
	base := latenttruth.SubsampleEntities(corpora.Movie.Dataset, 2000, 99)
	ds, err := latenttruth.InjectAdversary(base, "fabricator", 0.8, 3)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("StraightFit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fit, err := latenttruth.NewLTM(latenttruth.Config{Seed: 7}).Fit(ds)
			if err != nil {
				b.Fatal(err)
			}
			m, err := eval.Evaluate(ds, fit.Result, 0.5)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(m.Accuracy, "accuracy")
		}
	})
	b.Run("IterativeFilter", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			af := latenttruth.NewAdversarialFilter(latenttruth.Config{Seed: 7})
			out, err := af.Run(ds)
			if err != nil {
				b.Fatal(err)
			}
			m, err := eval.Evaluate(out.Dataset, out.Fit.Result, 0.5)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(m.Accuracy, "accuracy")
			b.ReportMetric(float64(len(out.Removed)), "removed")
		}
	})
}

// --- Durability: WAL append and crash recovery ------------------------------

// walBenchBatch is the ingest batch every durability bench appends: 128
// rows, a realistic bulk-ingest request.
func walBenchBatch() []latenttruth.Row {
	rows := make([]latenttruth.Row, 0, 128)
	for j := 0; len(rows) < 128; j++ {
		e := fmt.Sprintf("entity-%04d", j%997)
		for s := 0; s < 4 && len(rows) < 128; s++ {
			rows = append(rows, latenttruth.Row{
				Entity:    e,
				Attribute: fmt.Sprintf("attribute-%d", (j+s)%7),
				Source:    fmt.Sprintf("source-%02d", (j*3+s)%41),
			})
		}
	}
	return rows
}

// walBenchBody is the walBenchBatch marshaled as a POST /claims request
// body, built once.
var walBenchBody struct {
	sync.Once
	body []byte
}

func walBenchRequestBody(b *testing.B) []byte {
	b.Helper()
	walBenchBody.Do(func() {
		type claim struct {
			Entity    string `json:"entity"`
			Attribute string `json:"attribute"`
			Source    string `json:"source"`
		}
		var claims []claim
		for _, r := range walBenchBatch() {
			claims = append(claims, claim{r.Entity, r.Attribute, r.Source})
		}
		var err error
		walBenchBody.body, err = json.Marshal(map[string]any{"claims": claims})
		if err != nil {
			b.Fatal(err)
		}
	})
	return walBenchBody.body
}

// benchmarkIngest measures the daemon's ingest path — POST /claims through
// the real handler, JSON decode included — for one durability
// configuration, returning seconds per batch. To keep memory bounded
// regardless of b.N, the server is recycled (off the clock) every
// ingestResetEvery batches — identically for the in-memory baseline and
// every WAL variant, so the comparison stays apples-to-apples.
const ingestResetEvery = 4096

func benchmarkIngest(b *testing.B, durability latenttruth.DurabilityConfig, obs latenttruth.ObsConfig) float64 {
	b.Helper()
	body := walBenchRequestBody(b)
	rowsPerBatch := len(walBenchBatch())
	newServer := func() *latenttruth.TruthServer {
		if durability.DataDir != "" {
			durability.DataDir = b.TempDir()
		}
		s, err := latenttruth.NewTruthServer(latenttruth.ServeConfig{
			RefitInterval: -1,
			Durability:    durability,
			Obs:           obs,
		})
		if err != nil {
			b.Fatal(err)
		}
		return s
	}
	s := newServer()
	h := s.Handler()
	defer func() { s.Close() }()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%ingestResetEvery == 0 {
			b.StopTimer()
			s.Close()
			s = newServer()
			h = s.Handler()
			b.StartTimer()
		}
		req := httptest.NewRequest("POST", "/claims", bytes.NewReader(body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != 202 {
			b.Fatalf("POST /claims: status %d: %s", w.Code, w.Body.String())
		}
	}
	b.StopTimer()
	perOp := b.Elapsed().Seconds() / float64(b.N)
	b.ReportMetric(float64(rowsPerBatch)/perOp, "rows/s")
	return perOp
}

// ingestBaseline memoizes the in-memory (no WAL) seconds per batch so the
// WAL benches can report their overhead percentage directly (the
// acceptance metric: NoSync overhead < 15% vs the in-memory path).
var ingestBaseline struct {
	sync.Once
	secPerOp float64
}

func ingestBaselineSec(b *testing.B) float64 {
	b.Helper()
	ingestBaseline.Do(func() {
		body := walBenchRequestBody(b)
		s, err := latenttruth.NewTruthServer(latenttruth.ServeConfig{
			RefitInterval: -1,
			Obs:           latenttruth.ObsConfig{Disabled: true},
		})
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		h := s.Handler()
		const reps = 4096
		start := time.Now()
		for i := 0; i < reps; i++ {
			req := httptest.NewRequest("POST", "/claims", bytes.NewReader(body))
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			if w.Code != 202 {
				b.Fatalf("POST /claims: status %d", w.Code)
			}
		}
		ingestBaseline.secPerOp = time.Since(start).Seconds() / reps
	})
	return ingestBaseline.secPerOp
}

// BenchmarkIngestInMemory is the pre-durability, pre-instrumentation
// baseline: the full POST /claims path with nothing touching disk and
// the metrics registry off (ObsConfig.Disabled), so its numbers stay
// comparable with the committed history.
func BenchmarkIngestInMemory(b *testing.B) {
	benchmarkIngest(b, latenttruth.DurabilityConfig{}, latenttruth.ObsConfig{Disabled: true})
}

// BenchmarkIngestInstrumented is the same in-memory ingest path with the
// default observability on — HTTP middleware, ingest counters, span
// plumbing — and reports its cost over BenchmarkIngestInMemory. The
// registry is atomic-counter cheap; the gate keeps it within noise of
// the uninstrumented path.
func BenchmarkIngestInstrumented(b *testing.B) {
	base := ingestBaselineSec(b)
	perOp := benchmarkIngest(b, latenttruth.DurabilityConfig{}, latenttruth.ObsConfig{})
	b.ReportMetric((perOp-base)/base*100, "overhead-vs-memory-%")
}

func benchmarkWALAppend(b *testing.B, fsync latenttruth.FsyncPolicy) {
	base := ingestBaselineSec(b)
	perOp := benchmarkIngest(b, latenttruth.DurabilityConfig{
		DataDir: "pending", // replaced with a fresh TempDir per server
		Fsync:   fsync,
	}, latenttruth.ObsConfig{Disabled: true})
	b.ReportMetric((perOp-base)/base*100, "overhead-vs-memory-%")
}

// BenchmarkWALAppendNoSync: write-ahead to the page cache only (survives
// SIGKILL, not power loss) — the fastest durable mode.
func BenchmarkWALAppendNoSync(b *testing.B) { benchmarkWALAppend(b, latenttruth.FsyncNever) }

// BenchmarkWALAppendInterval: fsync piggybacked at most every 100ms.
func BenchmarkWALAppendInterval(b *testing.B) { benchmarkWALAppend(b, latenttruth.FsyncInterval) }

// BenchmarkWALAppendAlways: fsync on every batch — each op pays a disk
// round trip.
func BenchmarkWALAppendAlways(b *testing.B) { benchmarkWALAppend(b, latenttruth.FsyncAlways) }

// BenchmarkRecovery measures a cold server boot against an existing data
// directory: load the newest checkpoint (a fitted corpus) and replay a
// 64-batch WAL tail.
func BenchmarkRecovery(b *testing.B) {
	dir := b.TempDir()
	cfg := latenttruth.ServeConfig{
		LTM:           latenttruth.Config{Iterations: 40},
		RefitInterval: -1,
		Durability:    latenttruth.DurabilityConfig{DataDir: dir, Fsync: latenttruth.FsyncNever},
	}
	s, err := latenttruth.NewTruthServer(cfg)
	if err != nil {
		b.Fatal(err)
	}
	rows := walBenchBatch()
	if _, err := s.Ingest(rows); err != nil {
		b.Fatal(err)
	}
	if _, err := s.Refit(""); err != nil { // writes the checkpoint
		b.Fatal(err)
	}
	for i := 0; i < 64; i++ { // acknowledged tail, never checkpointed
		if _, err := s.Ingest(rows); err != nil {
			b.Fatal(err)
		}
	}
	s.Close()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := latenttruth.NewTruthServer(cfg)
		if err != nil {
			b.Fatal(err)
		}
		rs := r.RecoveryStats()
		if rs.ColdStart || rs.ReplayedBatches != 64 {
			b.Fatalf("recovery stats %+v", rs)
		}
		b.StopTimer()
		r.Close()
		b.StartTimer()
	}
}

// --- Streaming query engine over snapshots ---------------------------------
//
// All query benches share one ≥10⁶-claim zipfian corpus wrapped in a
// standalone snapshot (probabilities drawn deterministically — the engine
// only reads them, so no Gibbs fit is needed at this scale).
// BenchmarkQueryTruthMaterialize is the pre-engine baseline each
// engine-side bench is judged against: materialize the full truth table,
// then filter/sort/slice it.

var queryBench struct {
	once sync.Once
	ds   *latenttruth.Dataset
	sn   *latenttruth.TruthSnapshot
	err  error
}

const queryBenchClaims = 1_000_000

func queryBenchSetup(b *testing.B) (*latenttruth.Dataset, *latenttruth.TruthSnapshot) {
	b.Helper()
	queryBench.once.Do(func() {
		ds, err := latenttruth.ScaleCorpus(latenttruth.ScaleSpec{
			Claims: queryBenchClaims, Seed: 17,
		})
		if err != nil {
			queryBench.err = err
			return
		}
		rng := stats.NewRNG(23)
		res := latenttruth.Result{Method: "bench", Prob: make([]float64, ds.NumFacts())}
		for f := range res.Prob {
			res.Prob[f] = rng.Float64()
		}
		queryBench.ds = ds
		queryBench.sn, queryBench.err = latenttruth.NewTruthSnapshot(ds, &res, 0.5)
	})
	if queryBench.err != nil {
		b.Fatal(queryBench.err)
	}
	return queryBench.ds, queryBench.sn
}

// drainTruth pulls a truth stream dry and returns the row count.
func drainTruth(b *testing.B, rows *latenttruth.TruthQueryRows) int {
	n := 0
	for {
		if _, ok := rows.Next(); !ok {
			return n
		}
		n++
	}
}

// BenchmarkQueryTruthMaterialize is the materialize-then-filter baseline:
// build the complete truth table, then keep the rows of one entity above
// a probability floor — what GET /truth cost before the query engine.
func BenchmarkQueryTruthMaterialize(b *testing.B) {
	ds, sn := queryBenchSetup(b)
	entity := ds.Entities[len(ds.Entities)/2]
	b.ReportAllocs()
	b.ResetTimer()
	kept := 0
	for i := 0; i < b.N; i++ {
		kept = 0
		for _, row := range sn.AllTruth() {
			if row.Entity == entity && row.Probability >= 0.25 {
				kept++
			}
		}
	}
	b.ReportMetric(float64(kept), "rows/op")
}

// BenchmarkQueryTruthScan streams the full unfiltered table — the
// worst-case row volume, with O(1) engine-side memory.
func BenchmarkQueryTruthScan(b *testing.B) {
	_, sn := queryBenchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := latenttruth.QueryTruth(sn, latenttruth.TruthQueryOptions{})
		if err != nil {
			b.Fatal(err)
		}
		drainTruth(b, rows)
	}
}

// BenchmarkQueryTruthPushdown answers the same question as the
// Materialize baseline through the engine: the entity filter rides the
// FactsByEntity index straight to the entity's facts, so work is
// proportional to the result, not the corpus.
func BenchmarkQueryTruthPushdown(b *testing.B) {
	ds, sn := queryBenchSetup(b)
	entity := ds.Entities[len(ds.Entities)/2]
	opts := latenttruth.TruthQueryOptions{Entity: entity, MinProb: 0.25}
	b.ReportAllocs()
	b.ResetTimer()
	kept := 0
	for i := 0; i < b.N; i++ {
		rows, err := latenttruth.QueryTruth(sn, opts)
		if err != nil {
			b.Fatal(err)
		}
		kept = drainTruth(b, rows)
	}
	b.ReportMetric(float64(kept), "rows/op")
}

// BenchmarkQueryTruthTopK ranks the 100 most confident facts with a
// k-bounded heap instead of materializing and sorting all of them.
func BenchmarkQueryTruthTopK(b *testing.B) {
	_, sn := queryBenchSetup(b)
	opts := latenttruth.TruthQueryOptions{TopK: 100}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := latenttruth.QueryTruth(sn, opts)
		if err != nil {
			b.Fatal(err)
		}
		if n := drainTruth(b, rows); n != 100 {
			b.Fatalf("topk drained %d rows", n)
		}
	}
}

// BenchmarkQueryTruthAgg folds every fact into the per-source rollup —
// O(sources) memory, no intermediate row ever allocated.
func BenchmarkQueryTruthAgg(b *testing.B) {
	ds, sn := queryBenchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		groups, err := latenttruth.QueryTruthAggregate(sn, latenttruth.AggBySource, latenttruth.TruthQueryOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if len(groups) != len(ds.Sources) {
			b.Fatalf("%d groups", len(groups))
		}
	}
}

// --- Dirty-entity incremental refits -----------------------------------------
//
// BenchmarkDirtyRefit{Pct01,Pct10,Full} measure the serving daemon's refit
// cost as a function of the dirty-set size on a ≥10⁶-claim corpus: batches
// touching 0.1% and 10% of the entities under the dirty policy, against
// the full-refit baseline over the same corpus. The acceptance target is
// Pct01 ≥10x faster than Full with zero decision flips (reported as a
// metric by Pct01).

var dirtyBench struct {
	corpusOnce sync.Once
	serverOnce sync.Once
	rows       []latenttruth.Row
	s          *latenttruth.TruthServer
	entities   []string
	sources    []string
	round      int
	err        error
}

const dirtyBenchClaims = 1_000_000

// dirtyBenchCorpus generates the bench corpus once, as ingestable rows.
func dirtyBenchCorpus(b *testing.B) {
	b.Helper()
	dirtyBench.corpusOnce.Do(func() {
		ds, err := latenttruth.ScaleCorpus(latenttruth.ScaleSpec{
			Claims: dirtyBenchClaims, Seed: 31,
		})
		if err != nil {
			dirtyBench.err = err
			return
		}
		for _, c := range ds.Claims {
			if c.Observation {
				f := ds.Facts[c.Fact]
				dirtyBench.rows = append(dirtyBench.rows, latenttruth.Row{
					Entity:    ds.Entities[f.Entity],
					Attribute: f.Attribute,
					Source:    ds.Sources[c.Source],
				})
			}
		}
		dirtyBench.entities = append([]string(nil), ds.Entities...)
		dirtyBench.sources = []string{ds.Sources[0], ds.Sources[1%len(ds.Sources)]}
	})
	if dirtyBench.err != nil {
		b.Fatal(dirtyBench.err)
	}
}

// dirtyBenchSetup builds the shared in-memory server once; every bench
// then mutates and refits it (the accumulated growth per iteration is
// negligible next to the corpus).
func dirtyBenchSetup(b *testing.B) *latenttruth.TruthServer {
	b.Helper()
	dirtyBenchCorpus(b)
	dirtyBench.serverOnce.Do(func() {
		dirtyBench.s, dirtyBench.err = newDirtyBenchServer(latenttruth.DurabilityConfig{})
	})
	if dirtyBench.err != nil {
		b.Fatal(dirtyBench.err)
	}
	return dirtyBench.s
}

// newDirtyBenchServer ingests the bench corpus into a dirty-policy server
// and runs the full anchor fit (and, when durable, its first checkpoint).
func newDirtyBenchServer(dur latenttruth.DurabilityConfig) (*latenttruth.TruthServer, error) {
	s, err := latenttruth.NewTruthServer(latenttruth.ServeConfig{
		LTM:           latenttruth.Config{Iterations: 25, BurnIn: 5, Seed: 7},
		Policy:        latenttruth.RefitDirty,
		FullEvery:     1 << 30, // dirty refits only; the anchor is explicit
		RefitInterval: -1,
		Shards:        8,
		Durability:    dur,
	})
	if err != nil {
		return nil, err
	}
	if _, err := s.Ingest(dirtyBench.rows); err != nil {
		s.Close()
		return nil, err
	}
	if _, err := s.Refit(""); err != nil { // full anchor fit
		s.Close()
		return nil, err
	}
	return s, nil
}

// dirtyBenchBatch asserts one never-seen attribute for the first n
// entities from two known sources — each round dirties exactly n entities.
func dirtyBenchBatch(n, round int) []latenttruth.Row {
	rows := make([]latenttruth.Row, 0, 2*n)
	attr := fmt.Sprintf("dirty-%d", round)
	for i := 0; i < n; i++ {
		for _, src := range dirtyBench.sources {
			rows = append(rows, latenttruth.Row{
				Entity: dirtyBench.entities[i], Attribute: attr, Source: src,
			})
		}
	}
	return rows
}

func benchmarkDirtyRefit(b *testing.B, s *latenttruth.TruthServer, pct float64, override latenttruth.RefitPolicy, countFlips bool) {
	n := int(float64(len(dirtyBench.entities)) * pct / 100)
	if n < 1 {
		n = 1
	}
	dirtied := make(map[string]bool, n)
	for _, e := range dirtyBench.entities[:n] {
		dirtied[e] = true
	}
	flips := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dirtyBench.round++
		batch := dirtyBenchBatch(n, dirtyBench.round)
		prev := s.Snapshot()
		if _, err := s.Ingest(batch); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		sn, err := s.Refit(override)
		if err != nil {
			b.Fatal(err)
		}
		want := latenttruth.RefitDirty
		if override != "" {
			want = override
		}
		if sn.Mode != want {
			b.Fatalf("refit mode %q, want %q", sn.Mode, want)
		}
		if countFlips {
			// Zero-decision-flips check, off the clock: clean entities'
			// thresholded decisions must survive every dirty refit bit-for-bit
			// (the copy-on-write guarantee; dirty facts may legitimately move).
			b.StopTimer()
			for f := range prev.Result.Prob {
				fact := prev.Dataset.Facts[f]
				if dirtied[prev.Dataset.Entities[fact.Entity]] {
					continue
				}
				if prev.Result.Predict(f, prev.Threshold) != sn.Result.Predict(f, sn.Threshold) {
					flips++
				}
			}
			b.StartTimer()
		}
	}
	b.ReportMetric(float64(n), "dirty-entities")
	if countFlips {
		b.ReportMetric(float64(flips), "decision-flips")
	}
}

func BenchmarkDirtyRefitPct01(b *testing.B) {
	benchmarkDirtyRefit(b, dirtyBenchSetup(b), 0.1, "", true)
}

func BenchmarkDirtyRefitPct10(b *testing.B) {
	benchmarkDirtyRefit(b, dirtyBenchSetup(b), 10, "", false)
}

// BenchmarkDirtyRefitFull is the baseline: the same 0.1% mutation load
// refitted with a forced full fit — what every refit cost before the
// dirty fast path.
func BenchmarkDirtyRefitFull(b *testing.B) {
	benchmarkDirtyRefit(b, dirtyBenchSetup(b), 0.1, latenttruth.RefitFull, false)
}

// BenchmarkDirtyRefitDurablePct01 is Pct01 on a durable server, so each
// refit also pays its checkpoint (the append-only triples.csv, the
// posterior and the manifest, fsynced) and the WAL marker. The server is
// rebuilt per run because its data directory lives under b.TempDir();
// the build is off the clock.
func BenchmarkDirtyRefitDurablePct01(b *testing.B) {
	dirtyBenchCorpus(b)
	s, err := newDirtyBenchServer(latenttruth.DurabilityConfig{DataDir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(s.Close)
	b.ReportAllocs()
	benchmarkDirtyRefit(b, s, 0.1, "", true)
}

// BenchmarkQueryTruthPaginated walks the full table in 1000-row pages,
// re-entering through the cursor each page — the cost of a client
// paginating to exhaustion, including cursor decode + seek per page.
func BenchmarkQueryTruthPaginated(b *testing.B) {
	ds, sn := queryBenchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		total, cursor := 0, ""
		for {
			rows, err := latenttruth.QueryTruth(sn, latenttruth.TruthQueryOptions{Limit: 1000, Cursor: cursor})
			if err != nil {
				b.Fatal(err)
			}
			total += drainTruth(b, rows)
			if cursor = rows.NextCursor(); cursor == "" {
				break
			}
		}
		if total != ds.NumFacts() {
			b.Fatalf("paginated %d of %d rows", total, ds.NumFacts())
		}
	}
}

// --- Disk-backed segment store: data skipping and recovery ------------------

// segBenchStore writes a 16-segment corpus (entity-sorted, so each segment
// owns a disjoint entity range and the zone maps can discriminate) and
// opens a segments-kind backend over it, returning the backend plus a
// mid-corpus probe entity. The segments are written directly rather than
// through Seal, which would merge equal-sized segments into one.
func segBenchStore(b *testing.B) (latenttruth.StorageBackend, string) {
	b.Helper()
	const segments, rowsPerSeg = 16, 16_384
	dir := b.TempDir()
	db := model.NewRawDB()
	var refs []segment.Ref
	n := 0
	for s := 0; s < segments; s++ {
		first := db.Len()
		for r := 0; r < rowsPerSeg; r++ {
			db.AddRow(latenttruth.Row{
				Entity:    fmt.Sprintf("entity-%07d", n/8),
				Attribute: fmt.Sprintf("attribute-%d", n%8),
				Source:    fmt.Sprintf("source-%02d", n%37),
			})
			n++
		}
		ref, err := segment.Write(dir, uint64(s+1), first, db.Rows()[first:])
		if err != nil {
			b.Fatal(err)
		}
		refs = append(refs, ref)
	}
	st, err := store.OpenSegmentBacked(dir, refs, db)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { st.Close() })
	return st, fmt.Sprintf("entity-%07d", (segments*rowsPerSeg/2)/8)
}

// BenchmarkSegmentScanFull is the no-skipping baseline: answer an entity
// point query by walking every row of the corpus, what any scoped read
// cost when the heap row array was the only representation.
func BenchmarkSegmentScanFull(b *testing.B) {
	st, probe := segBenchStore(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hits := 0
		for _, r := range st.Rows() {
			if r.Entity == probe {
				hits++
			}
		}
		if hits != 8 {
			b.Fatalf("probe hit %d rows, want 8", hits)
		}
	}
}

// BenchmarkSegmentScanSkip answers the same point query through the
// storage reader: per-segment zone maps and blooms rule out 15 of the 16
// segments without I/O, and page zone maps narrow the one remaining
// segment to the pages that can hold the entity.
func BenchmarkSegmentScanSkip(b *testing.B) {
	st, probe := segBenchStore(b)
	rd := st.Reader()
	before := st.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hits := 0
		err := rd.ScanEntities(map[string]struct{}{probe: {}}, func(latenttruth.Row) { hits++ })
		if err != nil {
			b.Fatal(err)
		}
		if hits != 8 {
			b.Fatalf("probe hit %d rows, want 8", hits)
		}
	}
	b.StopTimer()
	after := st.Stats()
	ops := after.SegmentsScanned + after.SegmentsSkipped - before.SegmentsScanned - before.SegmentsSkipped
	if ops > 0 {
		b.ReportMetric(float64(after.SegmentsSkipped-before.SegmentsSkipped)/float64(ops)*16, "segments-skipped/op")
	}
}

// BenchmarkSealFullMerge times the worst checkpoint seal: 2^19 rows sealed
// earlier plus 2^19 new ones, which Seal merges into one 2^20-row segment,
// rewriting the whole corpus from the heap rows, fsyncing and re-verifying
// it. A server pays this under its refit lock once the rows since the
// first segment outnumber it.
func BenchmarkSealFullMerge(b *testing.B) {
	const half = 1 << 19
	dir := b.TempDir()
	db := model.NewRawDB()
	for n := 0; n < 2*half; n++ {
		db.AddRow(latenttruth.Row{
			Entity:    fmt.Sprintf("entity-%07d", (n*7919)%(2*half)/8),
			Attribute: fmt.Sprintf("attribute-%d", n%8),
			Source:    fmt.Sprintf("source-%02d", n%37),
		})
	}
	ref, err := segment.Write(dir, 1, 0, db.Rows()[:half])
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st, err := store.Open(store.StorageMemory, dir, []segment.Ref{ref}, db)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		refs, err := st.Seal(2)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if len(refs) != 1 || refs[0].Rows != 2*half {
			b.Fatalf("sealed %v, want one %d-row segment", refs, 2*half)
		}
		st.Close()
		b.StartTimer()
	}
}

// BenchmarkRecoverySegments is BenchmarkRecovery on the segment backend:
// a cold boot reopens the sealed segments (CRC-verified, no CSV parse)
// and replays only the 64-batch WAL tail.
func BenchmarkRecoverySegments(b *testing.B) {
	dir := b.TempDir()
	cfg := latenttruth.ServeConfig{
		LTM:           latenttruth.Config{Iterations: 40},
		RefitInterval: -1,
		Storage:       latenttruth.StorageSegments,
		Durability:    latenttruth.DurabilityConfig{DataDir: dir, Fsync: latenttruth.FsyncNever},
	}
	s, err := latenttruth.NewTruthServer(cfg)
	if err != nil {
		b.Fatal(err)
	}
	rows := walBenchBatch()
	if _, err := s.Ingest(rows); err != nil {
		b.Fatal(err)
	}
	if _, err := s.Refit(""); err != nil { // checkpoint: seals the segment
		b.Fatal(err)
	}
	for i := 0; i < 64; i++ { // acknowledged tail, never checkpointed
		if _, err := s.Ingest(rows); err != nil {
			b.Fatal(err)
		}
	}
	s.Close()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := latenttruth.NewTruthServer(cfg)
		if err != nil {
			b.Fatal(err)
		}
		rs := r.RecoveryStats()
		if rs.ColdStart || rs.ReplayedBatches != 64 {
			b.Fatalf("recovery stats %+v", rs)
		}
		b.StopTimer()
		r.Close()
		b.StartTimer()
	}
}
