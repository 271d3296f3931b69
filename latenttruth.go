package latenttruth

import (
	"io"

	"latenttruth/internal/baselines"
	"latenttruth/internal/cluster"
	"latenttruth/internal/core"
	"latenttruth/internal/dataset"
	"latenttruth/internal/eval"
	"latenttruth/internal/integrate"
	"latenttruth/internal/ltmx"
	"latenttruth/internal/model"
	"latenttruth/internal/obs"
	"latenttruth/internal/query"
	"latenttruth/internal/replica"
	"latenttruth/internal/serve"
	"latenttruth/internal/shard"
	"latenttruth/internal/stats"
	"latenttruth/internal/store"
	"latenttruth/internal/stream"
	"latenttruth/internal/synth"
	"latenttruth/internal/wal"
)

// Dataset operations (the store substrate).

// DatasetStats summarizes a dataset's shape.
type DatasetStats = store.Stats

// Summarize computes corpus statistics for ds.
func Summarize(ds *Dataset) DatasetStats { return store.Summarize(ds) }

// SplitEntities partitions ds into k datasets of near-equal entity counts,
// e.g. to form arrival batches for the streaming mode.
func SplitEntities(ds *Dataset, k int) []*Dataset { return store.SplitEntities(ds, k) }

// SubsampleEntities restricts ds to n uniformly sampled entities,
// deterministically from seed.
func SubsampleEntities(ds *Dataset, n int, seed int64) *Dataset {
	return store.SubsampleEntities(ds, n, stats.NewRNG(seed))
}

// FilterEntities keeps only entities for which keep returns true.
func FilterEntities(ds *Dataset, keep func(id int, name string) bool) *Dataset {
	return store.FilterEntities(ds, keep)
}

// ConflictingOnly keeps only entities with at least minFacts facts and
// minSources covering sources.
func ConflictingOnly(ds *Dataset, minFacts, minSources int) *Dataset {
	return store.ConflictingOnly(ds, minFacts, minSources)
}

// MergeDatasets unions two datasets with disjoint entity sets.
func MergeDatasets(a, b *Dataset) (*Dataset, error) { return store.Merge(a, b) }

// Data model (paper §2, Definitions 1–4).
type (
	// RawDB is the raw input database of (entity, attribute, source) rows.
	RawDB = model.RawDB
	// Row is one raw database row.
	Row = model.Row
	// Dataset is the derived fact + claim tables with indexes.
	Dataset = model.Dataset
	// Fact is a distinct entity–attribute pair.
	Fact = model.Fact
	// Claim is a positive or negative source assertion about a fact.
	Claim = model.Claim
	// Result holds a method's per-fact truth probabilities.
	Result = model.Result
	// SourceQuality is the two-sided quality estimate of one source.
	SourceQuality = model.SourceQuality
	// Method is the interface all truth-finding algorithms implement.
	Method = model.Method
)

// NewRawDB returns an empty raw database.
//
// Deprecated: construct corpora through the storage API instead —
// NewMemoryStorage().AddRow(...) then BuildDatasetRows(st.Rows()) — which
// is the same duplicate-free insertion-order substrate the serving layer
// runs on, works with both storage kinds, and exposes scoped scans via
// Reader(). RawDB remains the in-memory representation (ReadTriples still
// returns one); only direct construction is deprecated.
func NewRawDB() *RawDB { return model.NewRawDB() }

// BuildDataset derives the fact and claim tables from a raw database,
// including the negative claims of Definition 3.
func BuildDataset(db *RawDB) *Dataset { return model.Build(db) }

// BuildDatasetRows derives the fact and claim tables straight from an
// insertion-ordered, duplicate-free row sequence — typically
// StorageBackend.Rows(). Equivalent to BuildDataset over a RawDB holding
// the same rows in the same order.
func BuildDatasetRows(rows []Row) *Dataset { return model.BuildRows(rows) }

// Latent Truth Model (paper §4–5).
type (
	// Config controls LTM inference (priors, iterations, burn-in, seed).
	Config = core.Config
	// Priors are the Beta hyperparameters of the model.
	Priors = core.Priors
	// LTM is the Latent Truth Model estimator.
	LTM = core.LTM
	// FitResult is a full LTM fit: truth posteriors plus source quality.
	FitResult = core.FitResult
	// Checkpoint requests a prediction after a given number of iterations.
	Checkpoint = core.Checkpoint
	// Incremental is the sampling-free LTMinc predictor (Equation 3).
	Incremental = core.Incremental
	// LTMPos is the positive-claims-only ablation.
	LTMPos = core.LTMPos
	// NaiveLTM is the uncollapsed Gibbs sampler (ablation baseline for
	// the collapsed sampler's efficiency claim).
	NaiveLTM = core.NaiveLTM
	// EMLTM is the deterministic expectation-maximization alternative.
	EMLTM = core.EM
)

// NoBurnIn and NoSampleGap are sentinel Config values requesting an
// explicit zero where the zero value itself means "use the default".
const (
	NoBurnIn    = core.NoBurnIn
	NoSampleGap = core.NoSampleGap
)

// NewLTM returns an LTM estimator; zero-valued Config fields take the
// paper's defaults.
func NewLTM(cfg Config) *LTM { return core.New(cfg) }

// Engine is a dataset compiled once into the sampler's flat claim layout;
// reuse it to fit the same dataset repeatedly (different priors, seeds, or
// chain counts) without paying the per-fit flattening cost.
type Engine = core.Engine

// CompileDataset compiles ds for repeated sampling with Engine.Fit and
// Engine.FitChains.
func CompileDataset(ds *Dataset) *Engine { return core.Compile(ds) }

// ShardedFitter is a dataset compiled for entity-sharded parallel
// inference: the claim store partitioned by entity, one engine layout per
// shard, per-source counts reconciled at a configurable sync interval
// (distributed-LDA style). Compile once with CompileSharded and call Fit
// with as many configurations as needed.
type ShardedFitter = shard.Fitter

// DefaultSyncEvery is the shard count-reconciliation interval used when a
// caller leaves it zero (5 sweeps).
const DefaultSyncEvery = shard.DefaultSyncEvery

// CompileSharded partitions ds into (at most) shards entity shards and
// compiles one sampler engine per shard for repeated sharded fits.
func CompileSharded(ds *Dataset, shards int) (*ShardedFitter, error) {
	return shard.Compile(ds, shards)
}

// FitSharded runs entity-sharded collapsed Gibbs sampling: the dataset is
// partitioned by entity into shards swept concurrently, with the global
// per-source confusion counts reconciled every syncEvery sweeps.
// syncEvery = 1 selects the exact barrier mode, which is bit-identical to
// NewLTM(cfg).Fit(ds) but sequential; syncEvery = 0 means DefaultSyncEvery.
// shards <= 1 falls back to the single-engine fit.
func FitSharded(ds *Dataset, cfg Config, shards, syncEvery int) (*FitResult, error) {
	return shard.Fit(ds, shard.Config{Shards: shards, SyncEvery: syncEvery, LTM: cfg})
}

// NewLTMPos returns the positive-claims-only variant (ablation).
func NewLTMPos(cfg Config) *LTMPos { return core.NewPos(cfg) }

// NewNaiveLTM returns the uncollapsed Gibbs sampler over the same model.
func NewNaiveLTM(cfg Config) *NaiveLTM { return core.NewNaive(cfg) }

// NewEMLTM returns the deterministic EM estimator (iterated Equation 3
// plus §5.3 quality re-estimation).
func NewEMLTM(cfg Config) *EMLTM { return core.NewEM(cfg) }

// MultiChainResult is the output of parallel multi-chain inference.
type MultiChainResult = core.MultiChainResult

// FitChains runs several independent Gibbs chains concurrently, pools
// their samples, and reports per-fact Gelman–Rubin mixing diagnostics.
func FitChains(m *LTM, ds *Dataset, chains int) (*MultiChainResult, error) {
	return m.FitChains(ds, chains)
}

// DefaultPriors returns the paper's recommended hyperparameters scaled to
// a dataset with numFacts facts (§6.2).
func DefaultPriors(numFacts int) Priors { return core.DefaultPriors(numFacts) }

// NewIncremental builds an LTMinc predictor from a fit produced on ds.
func NewIncremental(ds *Dataset, fit *FitResult) (*Incremental, error) {
	return core.NewIncremental(ds, fit)
}

// NewIncrementalFromQuality builds an LTMinc predictor from an explicit
// quality table (e.g. loaded from disk).
func NewIncrementalFromQuality(quality []SourceQuality, priors Priors) (*Incremental, error) {
	return core.NewIncrementalFromQuality(quality, priors)
}

// EstimateQuality reads MAP source quality off posterior truth
// probabilities (§5.3).
func EstimateQuality(ds *Dataset, prob []float64, p Priors) ([]SourceQuality, []float64, []float64) {
	return core.EstimateQuality(ds, prob, p)
}

// RankedQuality sorts a quality table by decreasing sensitivity (Table 8
// presentation order).
func RankedQuality(quality []SourceQuality) []SourceQuality {
	return core.RankedQuality(quality)
}

// Baseline methods (paper §6.2).

// Methods returns LTM plus every baseline of the paper's evaluation, in
// Table 7 row order.
func Methods(ltmCfg Config) []Method { return baselines.All(ltmCfg) }

// MethodByName constructs the named method ("LTM", "Voting", "TruthFinder",
// "3-Estimates", ...).
func MethodByName(name string, ltmCfg Config) (Method, error) {
	return baselines.ByName(name, ltmCfg)
}

// MethodNames lists the available method names in Table 7 order.
func MethodNames() []string { return baselines.Names() }

// Evaluation (paper §3.1, §6.2).
type (
	// Metrics bundles precision, recall, FPR, accuracy and F1.
	Metrics = eval.Metrics
	// Confusion is a 2×2 confusion matrix.
	Confusion = eval.Confusion
	// ROCPoint is one operating point of a ROC curve.
	ROCPoint = eval.ROCPoint
	// SweepPoint is one threshold of an accuracy/F1 sweep.
	SweepPoint = eval.SweepPoint
)

// Evaluate computes Table 7-style metrics against the labeled subset.
func Evaluate(ds *Dataset, r *Result, threshold float64) (Metrics, error) {
	return eval.Evaluate(ds, r, threshold)
}

// ThresholdSweep evaluates accuracy and F1 across thresholds (Figure 2).
func ThresholdSweep(ds *Dataset, r *Result, thresholds []float64) ([]SweepPoint, error) {
	return eval.ThresholdSweep(ds, r, thresholds)
}

// ROC computes the ROC curve over the labeled subset.
func ROC(ds *Dataset, r *Result) ([]ROCPoint, error) { return eval.ROC(ds, r) }

// AUC computes the area under the ROC curve (Figure 3).
func AUC(ds *Dataset, r *Result) (float64, error) { return eval.AUC(ds, r) }

// PRPoint is one operating point of a precision–recall curve.
type PRPoint = eval.PRPoint

// PrecisionRecall computes the precision–recall curve over labeled facts.
func PrecisionRecall(ds *Dataset, r *Result) ([]PRPoint, error) {
	return eval.PrecisionRecall(ds, r)
}

// AveragePrecision computes the area under the precision–recall curve.
func AveragePrecision(ds *Dataset, r *Result) (float64, error) {
	return eval.AveragePrecision(ds, r)
}

// CalibrationBin is one bin of a reliability diagram.
type CalibrationBin = eval.CalibrationBin

// Calibration bins labeled facts by predicted probability and returns the
// reliability diagram plus the expected calibration error.
func Calibration(ds *Dataset, r *Result, bins int) ([]CalibrationBin, float64, error) {
	return eval.Calibration(ds, r, bins)
}

// Brier returns the Brier score of a result over the labeled facts.
func Brier(ds *Dataset, r *Result) (float64, error) { return eval.Brier(ds, r) }

// MetricsCI bundles bootstrap confidence intervals for the Table 7
// metrics.
type MetricsCI = eval.MetricsCI

// BootstrapMetrics computes percentile-bootstrap confidence intervals for
// a result's metrics by resampling the labeled facts.
func BootstrapMetrics(ds *Dataset, r *Result, threshold float64, resamples int, level float64, seed int64) (MetricsCI, error) {
	return eval.BootstrapMetrics(ds, r, threshold, resamples, level, seed)
}

// Integration output.
type (
	// Record is a merged record: an entity with its accepted attributes.
	Record = integrate.Record
	// Attribute is one attribute value of a merged record.
	Attribute = integrate.Attribute
	// Conflict describes an entity whose record required resolution.
	Conflict = integrate.Conflict
)

// Integrate builds merged records from a method's result at a threshold.
func Integrate(ds *Dataset, r *Result, threshold float64) ([]Record, error) {
	return integrate.Merge(ds, r, threshold)
}

// IntegrationConflicts filters merged records down to contested entities.
func IntegrationConflicts(records []Record) []Conflict {
	return integrate.Conflicts(records)
}

// Streaming / online mode (paper §5.4).
type (
	// Online is the stateful incremental truth finder.
	Online = stream.Online
)

// NewOnline returns an online truth finder with the given base config.
func NewOnline(base Config) (*Online, error) { return stream.NewOnline(base) }

// Truth serving (the always-on daemon layer behind cmd/truthserve).
type (
	// TruthServer is the long-lived serving daemon: batched claim
	// ingestion, background refits, snapshot-swapped lock-free reads.
	TruthServer = serve.Server
	// ServeConfig parameterizes a TruthServer.
	ServeConfig = serve.Config
	// RefitPolicy selects the background refit strategy.
	RefitPolicy = serve.RefitPolicy
	// TruthSnapshot is one immutable serving state (dataset + fit + cached
	// integrated record table).
	TruthSnapshot = serve.Snapshot
	// TruthRow is one row of the served truth table.
	TruthRow = serve.TruthRow
)

// The available refit policies: full engine refit every time, §5.4 full
// incremental learning on each arrived batch served through the LTMinc
// closed form, or dirty-entity delta refits that re-sweep only the
// entities the drained batches touched.
const (
	RefitFull   = serve.RefitFull
	RefitOnline = serve.RefitOnline
	RefitDirty  = serve.RefitDirty
)

// ErrNoServeData is returned by TruthServer.Refit before any claim has
// been ingested.
var ErrNoServeData = serve.ErrNoData

// Claim storage (the backend API a TruthServer runs on, selected by
// ServeConfig.Storage / the truthserve -storage flag).
type (
	// StorageBackend is the claim-store API behind the serving layer: an
	// append-only, duplicate-free raw-claim store with an insertion-order
	// row view and lock-free point-in-time readers. Both implementations
	// honor a bit-identity promise — the same AddRow order yields the same
	// Rows() sequence, so every derived truth decision is
	// backend-independent.
	StorageBackend = store.Backend
	// StorageReader is one immutable row snapshot supporting scoped scans
	// (by entity set, entity range, or source). On the segment backend the
	// scans consult per-segment zone maps and bloom filters to skip
	// segments that cannot match.
	StorageReader = store.Reader
	// SegmentStats reports a backend's shape: resident vs on-disk row
	// counts, segment count and bytes, and the data-skipping counters.
	SegmentStats = store.StorageStats
)

// The available storage kinds for ServeConfig.Storage: heap-resident
// rows (the default), or heap rows backed by immutable on-disk segments
// sealed at checkpoint time — recovery then reopens the CRC-verified
// segments and replays only the short WAL tail instead of re-reading the
// whole corpus from CSV.
const (
	StorageMemory   = store.StorageMemory
	StorageSegments = store.StorageSegments
)

// NewMemoryStorage returns the heap-resident claim store. Use it (with
// BuildDatasetRows) anywhere a raw corpus is assembled row by row.
func NewMemoryStorage() StorageBackend { return store.NewMemory() }

// NewSegmentStorage returns a claim store that seals its rows into
// immutable, checksummed segments under dir when Seal is called (the
// serving layer does this at checkpoint time). Library users who only
// need an in-process corpus should prefer NewMemoryStorage; segment
// storage earns its keep under a durable TruthServer.
func NewSegmentStorage(dir string) StorageBackend { return store.NewSegmentBacked(dir) }

// Streaming queries (the lazy snapshot query engine behind GET /truth and
// GET /records — composable iterators with predicate pushdown, stable
// cursor pagination, bounded-heap top-k and zero-materialization rollups).
type (
	// TruthQueryOptions filters, orders and pages a truth query.
	TruthQueryOptions = query.TruthOptions
	// TruthQueryRow is one streamed truth row (TruthRow plus the fact id).
	TruthQueryRow = query.Row
	// TruthQueryRows is a lazy truth result; pull with Next, resume with
	// NextCursor.
	TruthQueryRows = query.Rows
	// RecordQueryOptions selects and pages the integrated record table.
	RecordQueryOptions = query.RecordOptions
	// RecordQueryRows is a lazy record listing.
	RecordQueryRows = query.RecordRows
	// AggKind names a streaming rollup dimension (AggByEntity or
	// AggBySource).
	AggKind = query.AggKind
	// AggGroup is one rollup row of QueryTruthAggregate.
	AggGroup = query.Group
)

// The available rollup dimensions.
const (
	AggByEntity = query.AggByEntity
	AggBySource = query.AggBySource
)

// Typed query errors: the not-found triple distinguishes which name failed
// to resolve; ErrStaleCursor reports a pagination cursor minted on a
// different snapshot (restart the scan on the current one).
var (
	ErrNoEntity    = query.ErrNoEntity
	ErrNoFact      = query.ErrNoFact
	ErrNoSource    = query.ErrNoSource
	ErrStaleCursor = query.ErrStaleCursor
)

// NewTruthSnapshot builds a standalone queryable snapshot from any fitted
// dataset — the library entry point for running the streaming query engine
// over a fit without a serving daemon:
//
//	sn, _ := latenttruth.NewTruthSnapshot(ds, res.Result, 0.5)
//	rows, _ := latenttruth.QueryTruth(sn, latenttruth.TruthQueryOptions{MinProb: 0.9})
//	for { row, ok := rows.Next(); if !ok { break }; ... }
func NewTruthSnapshot(ds *Dataset, res *Result, threshold float64) (*TruthSnapshot, error) {
	return serve.NewQuerySnapshot(ds, res, threshold)
}

// QueryTruth compiles opts against sn and returns a lazy row stream:
// predicates are evaluated inside the scan (selective filters skip via the
// snapshot's indexes instead of scanning), and nothing is materialized
// beyond the rows the caller pulls (top-k holds a k-bounded heap).
func QueryTruth(sn *TruthSnapshot, opts TruthQueryOptions) (*TruthQueryRows, error) {
	return sn.QueryTruth(opts)
}

// QueryRecords streams sn's integrated record table under the same
// filter/pagination contract as QueryTruth.
func QueryRecords(sn *TruthSnapshot, opts RecordQueryOptions) (*RecordQueryRows, error) {
	return sn.QueryRecords(opts)
}

// QueryTruthAggregate folds the facts matching opts into per-entity or
// per-source rollups without materializing intermediate rows.
func QueryTruthAggregate(sn *TruthSnapshot, by AggKind, opts TruthQueryOptions) ([]AggGroup, error) {
	return sn.QueryAggregate(by, opts)
}

// Durability (crash safety for the serving daemon: write-ahead log,
// checkpointed snapshots, recovery on start).
type (
	// DurabilityConfig enables write-ahead logging and checkpointing on a
	// TruthServer (ServeConfig.Durability). With DataDir set, every
	// acknowledged batch survives a crash and startup recovers the exact
	// pre-crash state from the newest checkpoint plus the WAL tail.
	DurabilityConfig = serve.Durability
	// FsyncPolicy selects when WAL appends are fsynced.
	FsyncPolicy = wal.SyncPolicy
	// DurabilityStats is the GET /durability payload.
	DurabilityStats = serve.DurabilityStats
)

// The available WAL fsync policies: fsync on every append, at most once
// per interval, or never (page-cache only — still survives a SIGKILL of
// the process, not power loss).
const (
	FsyncAlways   = wal.SyncAlways
	FsyncInterval = wal.SyncInterval
	FsyncNever    = wal.SyncNever
)

// NewTruthServer returns a truth-serving daemon with the given
// configuration. Call Start for the background refit loop, Handler for the
// HTTP API, and Close to shut down. When cfg.Durability.DataDir is set,
// construction recovers any durable state found there.
func NewTruthServer(cfg ServeConfig) (*TruthServer, error) { return serve.New(cfg) }

// Observability (the metrics registry, Prometheus /metrics exposition,
// leveled logging and refit tracing behind ServeConfig.Obs,
// ClusterConfig.Obs and ReplicaConfig.LogLevel).
type (
	// ObsConfig tunes a server's (or router's) observability: Disabled
	// turns the instrument set off for baseline comparisons, SlowRequest
	// sets the slow-request log threshold, LogLevel gates diagnostics.
	ObsConfig = serve.ObsConfig
	// LogLevel is a log severity; the zero value is LogInfo.
	LogLevel = obs.Level
)

// The available log levels, in increasing severity order for gating
// (debug < info < warn < error).
const (
	LogDebug = obs.LevelDebug
	LogInfo  = obs.LevelInfo
	LogWarn  = obs.LevelWarn
	LogError = obs.LevelError
)

// ParseLogLevel reads a -log-level flag value ("debug", "info", "warn"
// or "error").
func ParseLogLevel(s string) (LogLevel, error) { return obs.ParseLevel(s) }

// BuildVersion and BuildCommit report the binary's build identity, set
// at link time via
//
//	-ldflags "-X latenttruth/internal/obs.Version=v1.2.3 -X latenttruth/internal/obs.Commit=abc1234"
//
// and defaulting to "dev"/"none". They label the build_info metric and
// the version/commit fields of GET /stats.
func BuildVersion() string { return obs.Version }

// BuildCommit reports the VCS commit the binary was built from; see
// BuildVersion.
func BuildCommit() string { return obs.Commit }

// Replication (WAL log shipping: one durable primary, a fleet of
// read-only followers serving bit-identical snapshots).
type (
	// ReplicationConfig tunes the primary side of log shipping: follower
	// cursor TTL, max-lag eviction, long-poll bounds
	// (ServeConfig.Replication).
	ReplicationConfig = serve.Replication
	// ReplicationCursor is one follower's acknowledged position as seen by
	// the primary (the /durability "replication_cursors" section).
	ReplicationCursor = serve.ReplicationCursor
	// ReplicaConfig parameterizes a read replica: the primary's URL plus
	// the follower's own serving configuration (which must match the
	// primary's model-relevant fields for bit-identical snapshots).
	ReplicaConfig = replica.Config
	// TruthFollower is a running read replica: it bootstraps from the
	// primary's newest checkpoint, tails its WAL over HTTP, and serves
	// /truth, /quality, /records and /stats locally; writes return 503
	// with the primary's address.
	TruthFollower = replica.Follower
	// ReplicationStats is the follower's progress report (the follower's
	// GET /replication/status payload).
	ReplicationStats = replica.Stats
)

// ErrFollower is returned by Ingest and Refit on a read-only follower.
var ErrFollower = serve.ErrFollower

// StartFollower bootstraps (when its data directory is cold) and starts a
// read replica of cfg.Primary. The follower restarts from its own
// mirrored log — it never re-downloads a checkpoint unless the primary
// evicted it and truncated the history it needs, in which case it
// re-bootstraps automatically. Call Handler for the HTTP API and Close to
// stop.
func StartFollower(cfg ReplicaConfig) (*TruthFollower, error) { return replica.Start(cfg) }

// Extensions (paper §7).
type (
	// AdversarialFilter iteratively removes low-specificity sources.
	AdversarialFilter = ltmx.AdversarialFilter
	// MultiType jointly integrates several attribute types.
	MultiType = ltmx.MultiType
	// Clustered infers entity clusters with cluster-specific quality.
	Clustered = ltmx.Clustered
	// ClusteredResult is the clustered integrator's output.
	ClusteredResult = ltmx.ClusteredResult
	// NumericClaim is a numeric assertion for the Gaussian variant.
	NumericClaim = ltmx.NumericClaim
	// GaussianConfig configures the Gaussian (real-valued loss) variant.
	GaussianConfig = ltmx.GaussianConfig
	// GaussianResult is the Gaussian variant's output.
	GaussianResult = ltmx.GaussianResult
)

// NewAdversarialFilter returns a §7 adversarial-source filter.
func NewAdversarialFilter(cfg Config) *AdversarialFilter { return ltmx.NewAdversarialFilter(cfg) }

// InjectAdversary adds a fabricating source to a copy of ds (for testing
// the adversarial filter and robustness studies).
func InjectAdversary(ds *Dataset, name string, coverage float64, perEntity int) (*Dataset, error) {
	return ltmx.InjectAdversary(ds, name, coverage, perEntity)
}

// NewMultiType returns a §7 joint multi-attribute-type integrator.
func NewMultiType(cfg Config) *MultiType { return ltmx.NewMultiType(cfg) }

// NewClustered returns a §7 entity-clustered integrator with k clusters.
func NewClustered(cfg Config, k int) *Clustered { return ltmx.NewClustered(cfg, k) }

// GaussianTruth infers numeric truths and source variances (§7's
// real-valued loss extension).
func GaussianTruth(claims []NumericClaim, cfg GaussianConfig) (*GaussianResult, error) {
	return ltmx.GaussianTruth(claims, cfg)
}

// Simulated corpora and synthetic data (paper §6.1.1; see DESIGN.md §3 for
// the substitution rationale).
type (
	// Corpus is a generated dataset with complete ground truth.
	Corpus = synth.Corpus
	// CorpusSpec parameterizes a simulated corpus.
	CorpusSpec = synth.CorpusSpec
	// SourceProfile describes one simulated source.
	SourceProfile = synth.SourceProfile
	// PaperSyntheticConfig parameterizes the dense §6.1.1 synthetic data.
	PaperSyntheticConfig = synth.PaperSyntheticConfig
)

// BookCorpus generates the simulated book-author corpus.
func BookCorpus(seed int64) (*Corpus, error) { return synth.BookCorpus(seed) }

// MovieCorpus generates the simulated movie-director corpus.
func MovieCorpus(seed int64) (*Corpus, error) { return synth.MovieCorpus(seed) }

// Table1Example returns the paper's running Harry Potter example.
func Table1Example() *Corpus { return synth.Table1Example() }

// GenerateCorpus builds a corpus from a custom specification.
func GenerateCorpus(spec CorpusSpec) (*Corpus, error) { return synth.Generate(spec) }

// ScaleSpec parameterizes a load-scale corpus sized by total claim count
// (zipfian entity sizes, configurable source pool, deterministic from
// seed) for benchmarks and read-path load tests at 10⁶–10⁷ claims.
type ScaleSpec = synth.ScaleSpec

// ScaleCorpus generates a claim-count-targeted corpus.
func ScaleCorpus(spec ScaleSpec) (*Dataset, error) { return synth.ScaleCorpus(spec) }

// PaperSynthetic draws the dense synthetic dataset of §6.1.1.
func PaperSynthetic(cfg PaperSyntheticConfig) (*Dataset, []SourceQuality, error) {
	return synth.PaperSynthetic(cfg)
}

// DefaultPaperSynthetic returns the paper's base synthetic setting.
func DefaultPaperSynthetic() PaperSyntheticConfig { return synth.DefaultPaperSynthetic() }

// Dataset I/O (CSV).

// ReadTriples parses a triples CSV (entity,attribute,source).
func ReadTriples(r io.Reader) (*RawDB, error) { return dataset.ReadTriples(r) }

// WriteTriples writes a raw database as CSV.
func WriteTriples(w io.Writer, db *RawDB) error { return dataset.WriteTriples(w, db) }

// WriteTriplesRows is WriteTriples over a bare row slice — typically
// StorageBackend.Rows().
func WriteTriplesRows(w io.Writer, rows []Row) error { return dataset.WriteTriplesRows(w, rows) }

// ReadLabels applies a labels CSV (entity,attribute,truth) to a dataset.
func ReadLabels(r io.Reader, ds *Dataset) error { return dataset.ReadLabels(r, ds) }

// WriteLabels writes a dataset's labels as CSV.
func WriteLabels(w io.Writer, ds *Dataset) error { return dataset.WriteLabels(w, ds) }

// WriteTruth writes a method's truth table at a threshold as CSV.
func WriteTruth(w io.Writer, ds *Dataset, res *Result, threshold float64) error {
	return dataset.WriteTruth(w, ds, res, threshold)
}

// WriteQuality writes a source-quality table as CSV.
func WriteQuality(w io.Writer, quality []SourceQuality) error {
	return dataset.WriteQuality(w, quality)
}

// ReadQuality parses a source-quality CSV.
func ReadQuality(r io.Reader) ([]SourceQuality, error) { return dataset.ReadQuality(r) }

// SaveFile writes the output of write to path crash-safely: temp file in
// the target directory, fsync, atomic rename, directory fsync. Readers
// never observe a truncated or half-written file.
func SaveFile(path string, write func(io.Writer) error) error {
	return dataset.SaveFile(path, write)
}

// Multi-primary partitioned cluster: N independent primaries each own an
// entity-hash range, fronted by a stateless scatter-gather router (see
// internal/cluster's package documentation for the partitioning and
// equivalence contract).
type (
	// ClusterRouter is the stateless scatter-gather front of a cluster.
	ClusterRouter = cluster.Router
	// ClusterConfig configures a ClusterRouter.
	ClusterConfig = cluster.Config
	// PartitionQuality is one partition's quality-count basis
	// (GET /partition/quality), the input to MergeQuality.
	PartitionQuality = serve.PartitionQuality
)

// NewClusterRouter validates the partition map and returns a router.
func NewClusterRouter(cfg ClusterConfig) (*ClusterRouter, error) { return cluster.NewRouter(cfg) }

// PartitionOf maps an entity to its owning partition in [0, k).
func PartitionOf(entity string, k int) int { return cluster.PartitionOf(entity, k) }

// SplitClaimBatch partitions a claim batch by entity hash into k
// order-preserving, disjoint sub-batches.
func SplitClaimBatch(rows []Row, k int) [][]Row { return cluster.SplitBatch(rows, k) }

// MergeClusterQuality merges the partitions' quality-count bases into one
// Table 8 via the shared closed form (bit-identical to a single fit over
// the same counts).
func MergeClusterQuality(parts []PartitionQuality) ([]SourceQuality, error) {
	return cluster.MergeQuality(parts)
}
