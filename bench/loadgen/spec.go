// Package loadgen is the repository's end-to-end load benchmark. It
// generates a corpus with synth.ScaleCorpus, preloads most of it into a
// truth-serving daemon, and drives the rest through real HTTP as an
// open-loop schedule: POST /claims → WAL → drain → fit → publish →
// GET /truth. The untraced run measures a truthserve child process; the
// traced run drives an in-process serve.Server with the same
// configuration and splits the time by layer.
package loadgen

import (
	"fmt"
	"strconv"
	"time"

	"latenttruth/internal/core"
	"latenttruth/internal/serve"
	"latenttruth/internal/store"
	"latenttruth/internal/wal"
)

// Workload names.
const (
	ReadSnapshot  = "read_snapshot"
	WriteDirty    = "write_dirty"
	MixedSegments = "mixed_segments"
	RefitFull     = "refit_full"
)

// Workloads lists every workload in run order.
var Workloads = []string{ReadSnapshot, WriteDirty, MixedSegments, RefitFull}

// step is one open-loop write rate, held for a share of the window.
type step struct {
	Rate  float64 // claims per second
	Share float64 // fraction of the window
}

// weighted is one route of a read mix, its share of the reads, and the
// connection (0 or 1) its reads use.
type weighted struct {
	Route  string
	Weight float64
	Conn   int
}

// Spec is one workload: the server configuration that both the child
// process (Flags) and the traced in-process server (ServeConfig) derive
// from, and the traffic the generator sends.
type Spec struct {
	Name string

	Policy    serve.RefitPolicy
	FullEvery int
	// RefitInterval is the background refit period; negative turns the
	// timer off, so refits happen only when a client asks for one.
	RefitInterval time.Duration
	Storage       string
	Durable       bool

	// Writes is the open-loop claim schedule, in 32-claim batches.
	Writes []step
	// ReadRate is the open-loop read rate (reads/s) over ReadMix. Writes
	// always use connection 0.
	ReadRate float64
	ReadMix  []weighted
	// Refits is the number of closed-loop batch + POST /refit?policy=full
	// cycles; the loop also stops when the window ends.
	Refits int
	// Latency names the request class the gated latency_* metrics report.
	Latency string
}

// Request classes the latency_* metrics can report.
const (
	classRead      = "read"
	classFreshness = "freshness"
	classRefit     = "refit"
)

var specs = map[string]Spec{
	// Almost all work is in HTTP and query: WAL, refit, store and core never
	// run, so changes there should not move it.
	ReadSnapshot: {
		Name: ReadSnapshot, Policy: serve.RefitFull, FullEvery: 10,
		RefitInterval: -1, Storage: store.StorageMemory,
		ReadRate: 2000,
		// Entity lookups and whole-table scans use separate connections, as
		// a client keeping point reads off its analytics pool would. Over
		// two shared connections lookups queued behind 10 ms rollups, and
		// their p90 followed how often both connections were busy more
		// than the server (25% between runs of one commit).
		ReadMix: []weighted{
			{"truth_entity", 0.80, 0}, {"records_entity", 0.10, 0},
			{"truth_source", 0.07, 1}, {"truth_topk", 0.025, 1}, {"truth_agg", 0.005, 1},
		},
		Latency: classRead,
	},
	// Almost all work is in ingest, WAL, store.ExtendDirty, dirty sweeps and
	// checkpoints. Full anchors are left out (-full-every 1000) because they
	// would make freshness bimodal; refit_full covers them.
	WriteDirty: {
		Name: WriteDirty, Policy: serve.RefitDirty, FullEvery: 1000,
		RefitInterval: 100 * time.Millisecond, Storage: store.StorageMemory, Durable: true,
		Writes:  []step{{1600, 0.5}, {3200, 1.0 / 6}, {6400, 1.0 / 6}, {12800, 1.0 / 6}},
		Latency: classFreshness,
	},
	// The first rate step of write_dirty on the segment backend, with reads
	// alongside on the second connection: a storage change that helps
	// writes but slows scoped scans, or helps one backend only, shows here.
	MixedSegments: {
		Name: MixedSegments, Policy: serve.RefitDirty, FullEvery: 1000,
		RefitInterval: 100 * time.Millisecond, Storage: store.StorageSegments, Durable: true,
		Writes:   []step{{1600, 1}},
		ReadRate: 400,
		// Uneven on purpose: a 50/50 mix of a fast and a slow route puts the
		// median on the boundary between the two and makes it jump.
		ReadMix: []weighted{{"claims_entity", 0.7, 1}, {"truth_entity", 0.3, 1}},
		Latency: classRead,
	},
	// Almost all work is in model.BuildRows, the core Gibbs engine and
	// integrate — the paper's batch inference. HTTP and storage are
	// negligible.
	RefitFull: {
		Name: RefitFull, Policy: serve.RefitFull, FullEvery: 10,
		RefitInterval: -1, Storage: store.StorageMemory,
		Refits:  12,
		Latency: classRefit,
	},
}

// Lookup returns the named workload's spec.
func Lookup(name string) (Spec, error) {
	s, ok := specs[name]
	if !ok {
		return Spec{}, fmt.Errorf("loadgen: unknown workload %q (want one of %v)", name, Workloads)
	}
	return s, nil
}

// serverSeed is the sampler seed of every server; the workload seed only
// shapes the generated inputs.
const serverSeed = 1

// Flags returns the truthserve command line for this workload. The pprof
// listener lets the benchmark collect the set-up's garbage before the
// window.
func (s Spec) Flags(addr, pprofAddr, preload, dataDir string) []string {
	args := []string{
		"-addr", addr,
		"-pprof", pprofAddr,
		"-preload", preload,
		"-seed", strconv.Itoa(serverSeed),
		"-policy", string(s.Policy),
		"-full-every", strconv.Itoa(s.FullEvery),
		"-refit-interval", s.RefitInterval.String(),
		"-storage", s.Storage,
		"-log-level", "warn",
	}
	if s.Durable {
		args = append(args, "-data-dir", dataDir, "-fsync", string(wal.SyncInterval))
	}
	return args
}

// ServeConfig returns the in-process equivalent of Flags. The refit timer
// is always off: the traced run drives refits itself, by the same rule
// the timer uses, so it can time each one.
func (s Spec) ServeConfig(dataDir string) serve.Config {
	cfg := serve.Config{
		LTM:           core.Config{Seed: serverSeed},
		Policy:        s.Policy,
		FullEvery:     s.FullEvery,
		RefitInterval: -1,
		Storage:       s.Storage,
		Obs:           serve.ObsConfig{SlowRequest: time.Second},
	}
	if s.Durable {
		cfg.Durability = serve.Durability{DataDir: dataDir, Fsync: wal.SyncInterval}
	}
	return cfg
}

// streamRows is the number of held-out rows the schedule sends in a
// window of the given length.
func (s Spec) streamRows(seconds float64) int {
	n := 0
	for _, st := range s.Writes {
		n += stepBatches(st, seconds) * batchRows
	}
	return n + s.Refits*batchRows
}

// stepBatches is the number of batches one write step sends.
func stepBatches(st step, seconds float64) int {
	return int(st.Rate*st.Share*seconds/batchRows + 0.5)
}
