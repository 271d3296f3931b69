package serve

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"latenttruth/internal/core"
	"latenttruth/internal/model"
	"latenttruth/internal/wal"
)

// durableConfig returns a manual-refit config persisting under dir.
func durableConfig(policy RefitPolicy, dir string) Config {
	cfg := testConfig(policy)
	cfg.Durability = Durability{DataDir: dir, Fsync: wal.SyncNever}
	return cfg
}

// batchRows builds deterministic, mildly conflicting claim batches: batch
// i asserts attributes for a rotating window of entities from a rotating
// subset of sources.
func batchRows(i int) []model.Row {
	rows := make([]model.Row, 0, 12)
	for j := 0; j < 4; j++ {
		e := fmt.Sprintf("e%02d", (i*3+j)%17)
		for s := 0; s < 3; s++ {
			rows = append(rows, model.Row{
				Entity:    e,
				Attribute: fmt.Sprintf("a%d", (i+j+s)%5),
				Source:    fmt.Sprintf("s%d", (i+s)%4),
			})
		}
	}
	return rows
}

// mustIngest ingests rows or fails the test.
func mustIngest(t *testing.T, s *Server, rows []model.Row) {
	t.Helper()
	if _, err := s.Ingest(rows); err != nil {
		t.Fatalf("ingest: %v", err)
	}
}

// mustRefit forces a refit or fails the test.
func mustRefit(t *testing.T, s *Server) *Snapshot {
	t.Helper()
	sn, err := s.Refit("")
	if err != nil {
		t.Fatalf("refit: %v", err)
	}
	return sn
}

// mustEqualSnapshots asserts two snapshots carry bit-identical model
// state: same sequence, mode, truth probabilities, predictions and source
// quality.
func mustEqualSnapshots(t *testing.T, got, want *Snapshot) {
	t.Helper()
	if got.Seq != want.Seq || got.Mode != want.Mode {
		t.Fatalf("snapshot identity: got (seq=%d, %s), want (seq=%d, %s)",
			got.Seq, got.Mode, want.Seq, want.Mode)
	}
	gr, wr := got.AllTruth(), want.AllTruth()
	if len(gr) != len(wr) {
		t.Fatalf("truth rows: %d, want %d", len(gr), len(wr))
	}
	for i := range gr {
		if gr[i] != wr[i] {
			t.Fatalf("truth row %d: %+v, want %+v", i, gr[i], wr[i])
		}
	}
	if len(got.Quality) != len(want.Quality) {
		t.Fatalf("quality rows: %d, want %d", len(got.Quality), len(want.Quality))
	}
	for i := range got.Quality {
		if got.Quality[i] != want.Quality[i] {
			t.Fatalf("quality row %d: %+v, want %+v", i, got.Quality[i], want.Quality[i])
		}
	}
	if got.Stats != want.Stats {
		t.Fatalf("stats: %+v, want %+v", got.Stats, want.Stats)
	}
}

// crash "kills" a durable server without any shutdown path: the test just
// stops using it. Nothing is flushed or closed — exactly the state a
// SIGKILL leaves behind (appends went through write(2), so they are in
// the page cache; Close was never called).
func crash(*Server) {}

func TestDurableColdStartMatchesMemoryServer(t *testing.T) {
	dir := t.TempDir()
	d, err := New(durableConfig(RefitFull, dir))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	m, err := New(testConfig(RefitFull))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	if !d.RecoveryStats().ColdStart {
		t.Fatalf("expected cold start, got %+v", d.RecoveryStats())
	}
	for i := 0; i < 4; i++ {
		mustIngest(t, d, batchRows(i))
		mustIngest(t, m, batchRows(i))
	}
	mustEqualSnapshots(t, mustRefit(t, d), mustRefit(t, m))

	// The durable server left a WAL segment and a checkpoint behind.
	if segs, err := os.ReadDir(wal.LogDir(dir)); err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segments (err=%v)", err)
	}
	cps, err := os.ReadDir(wal.CheckpointDir(dir))
	if err != nil || len(cps) == 0 {
		t.Fatalf("no checkpoints (err=%v)", err)
	}
	if _, err := os.Stat(filepath.Join(wal.CheckpointDir(dir), cps[0].Name(), "MANIFEST.json")); err != nil {
		t.Fatalf("checkpoint manifest missing: %v", err)
	}
}

// TestDurableRestartBitIdentical is the acceptance scenario run fully
// in-process for every policy: ingest, refit, ingest more, crash with the
// second batch acknowledged but uncompacted, restart, refit — and compare
// against an uninterrupted run of the identical schedule.
func TestDurableRestartBitIdentical(t *testing.T) {
	for _, policy := range []RefitPolicy{RefitFull, RefitOnline} {
		t.Run(string(policy), func(t *testing.T) {
			dir := t.TempDir()

			// Reference: one uninterrupted server.
			ref, err := New(testConfig(policy))
			if err != nil {
				t.Fatal(err)
			}
			defer ref.Close()

			// Durable run: same schedule with a crash in the middle.
			a, err := New(durableConfig(policy, dir))
			if err != nil {
				t.Fatal(err)
			}
			// Refits 1..3 happen before the crash so the online policy is
			// past its initial full fit and has real accumulated quality
			// in the checkpoint.
			for r := 0; r < 3; r++ {
				mustIngest(t, a, batchRows(r))
				mustIngest(t, ref, batchRows(r))
				mustRefit(t, a)
				mustRefit(t, ref)
			}
			// Two more acknowledged batches that never see a refit before
			// the crash: they exist only in the WAL tail.
			mustIngest(t, a, batchRows(10))
			mustIngest(t, a, batchRows(11))
			mustIngest(t, ref, batchRows(10))
			mustIngest(t, ref, batchRows(11))
			crash(a)

			b, err := New(durableConfig(policy, dir))
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			rs := b.RecoveryStats()
			if rs.ColdStart || rs.ReplayedBatches != 2 {
				t.Fatalf("recovery stats %+v, want 2 replayed batches", rs)
			}
			if b.Pending() != a.Pending() {
				t.Fatalf("pending after recovery = %d, want %d", b.Pending(), a.Pending())
			}
			if b.Refits() != ref.Refits() {
				t.Fatalf("refit counters after recovery %+v, want %+v", b.Refits(), ref.Refits())
			}

			// The 4th refit folds the replayed tail exactly as the
			// uninterrupted server folds its pending rows.
			mustEqualSnapshots(t, mustRefit(t, b), mustRefit(t, ref))

			// And the runs stay in lockstep afterwards (cadence counters,
			// accumulated quality and sequence numbers all survived).
			mustIngest(t, b, batchRows(20))
			mustIngest(t, ref, batchRows(20))
			mustEqualSnapshots(t, mustRefit(t, b), mustRefit(t, ref))
		})
	}
}

func TestDurableRecoveryAfterTornTail(t *testing.T) {
	dir := t.TempDir()
	a, err := New(durableConfig(RefitFull, dir))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		mustIngest(t, a, batchRows(i))
	}
	mustRefit(t, a)
	mustIngest(t, a, batchRows(3))
	mustIngest(t, a, batchRows(4))
	crash(a)

	// Tear the final record: the crash happened mid-write. The active
	// segment is preallocated (zero-padded), so find the end of the real
	// data first and cut into it.
	segs, err := os.ReadDir(wal.LogDir(dir))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments (err=%v)", err)
	}
	path := filepath.Join(wal.LogDir(dir), segs[len(segs)-1].Name())
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	end := len(data)
	for end > 0 && data[end-1] == 0 {
		end--
	}
	if err := os.Truncate(path, int64(end-4)); err != nil {
		t.Fatal(err)
	}

	b, err := New(durableConfig(RefitFull, dir))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	rs := b.RecoveryStats()
	if rs.TornBytes == 0 || rs.ReplayedBatches != 1 {
		t.Fatalf("recovery stats %+v, want torn bytes and exactly 1 replayed batch", rs)
	}
	// Batch 3 survived, batch 4 (torn) is gone; the server still refits
	// and serves.
	if b.Pending() != len(batchRows(3)) {
		t.Fatalf("pending = %d, want %d", b.Pending(), len(batchRows(3)))
	}
	mustRefit(t, b)
}

func TestDurableConfigChangeDropsQualityKeepsData(t *testing.T) {
	dir := t.TempDir()
	a, err := New(durableConfig(RefitOnline, dir))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		mustIngest(t, a, batchRows(i))
		mustRefit(t, a)
	}
	claims := a.Snapshot().Stats.Claims
	crash(a)

	cfg := durableConfig(RefitOnline, dir)
	cfg.LTM = core.Config{Iterations: 60, Seed: 9} // different model config
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if !b.DurabilityStats().QualityDropped {
		t.Fatal("expected QualityDropped on config change")
	}
	// Triples are config-independent and fully recovered; the next refit
	// must be a full re-anchor (the accumulated quality is gone).
	sn := mustRefit(t, b)
	if sn.Stats.Claims != claims {
		t.Fatalf("claims after config change = %d, want %d", sn.Stats.Claims, claims)
	}
	if sn.Mode != RefitFull {
		t.Fatalf("first refit after quality drop ran %q, want full", sn.Mode)
	}
}

// TestDurableRecoversRetiredPolicyMarker: a log written by a server that
// still offered the retired "incremental" policy carries refit markers
// naming it. Recovery must keep every row around such a marker, and the
// next refit must publish them all.
func TestDurableRecoversRetiredPolicyMarker(t *testing.T) {
	dir := t.TempDir()
	a, err := New(durableConfig(RefitOnline, dir))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(testConfig(RefitOnline))
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	for _, s := range []*Server{a, ref} {
		mustIngest(t, s, batchRows(0))
		mustRefit(t, s)
		mustIngest(t, s, batchRows(1))
	}
	if _, err := a.dur.log.AppendNote("refit:incremental|dirty=0"); err != nil {
		t.Fatal(err)
	}
	mustIngest(t, a, batchRows(2))
	mustIngest(t, ref, batchRows(2))
	crash(a)

	b, err := New(durableConfig(RefitOnline, dir))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if want := len(batchRows(1)) + len(batchRows(2)); b.Pending() != want {
		t.Fatalf("pending after recovery = %d, want %d", b.Pending(), want)
	}
	mustEqualSnapshots(t, mustRefit(t, b), mustRefit(t, ref))
	if b.Pending() != 0 {
		t.Fatalf("pending after refit = %d, want 0", b.Pending())
	}
}

func TestIngestIsAllOrNothing(t *testing.T) {
	dir := t.TempDir()
	s, err := New(durableConfig(RefitFull, dir))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	bad := []model.Row{
		{Entity: "e1", Attribute: "a", Source: "s"},
		{Entity: "", Attribute: "a", Source: "s"}, // invalid mid-batch
		{Entity: "e2", Attribute: "a", Source: "s"},
	}
	if _, err := s.Ingest(bad); err == nil {
		t.Fatal("expected validation error")
	}
	multiline := []model.Row{{Entity: "e\nvil", Attribute: "a", Source: "s"}}
	if _, err := s.Ingest(multiline); err == nil {
		t.Fatal("expected line-break rejection")
	}
	// Nothing leaked: no pending rows, no lifetime count, no WAL record.
	if s.Pending() != 0 || s.ingest.Total() != 0 {
		t.Fatalf("partial accept: pending=%d total=%d", s.Pending(), s.ingest.Total())
	}
	if st := s.DurabilityStats(); st.WAL.LastSeq != 0 {
		t.Fatalf("rejected batch reached the WAL: %+v", st.WAL)
	}
	// A subsequent valid batch is accepted cleanly.
	mustIngest(t, s, batchRows(0))
	if st := s.DurabilityStats(); st.WAL.LastSeq != 1 {
		t.Fatalf("valid batch did not reach the WAL: %+v", st.WAL)
	}
}

// TestDurableRecoveryProperty drives random batch/refit sequences under
// random policies and asserts recover(checkpoint, walTail) reproduces the
// in-memory state bit-identically for every one of them.
func TestDurableRecoveryProperty(t *testing.T) {
	for trial := 0; trial < 6; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		policy := RefitOnline
		if trial%3 == 0 {
			policy = RefitFull
		}
		t.Run(fmt.Sprintf("trial%d_%s", trial, policy), func(t *testing.T) {
			dir := t.TempDir()
			a, err := New(durableConfig(policy, dir))
			if err != nil {
				t.Fatal(err)
			}
			ref, err := New(testConfig(policy))
			if err != nil {
				t.Fatal(err)
			}
			defer ref.Close()

			refits := 0
			for op, nb := 0, 0; op < 14; op++ {
				if rng.Float64() < 0.65 || refits == 0 {
					rows := batchRows(rng.Intn(40))
					if rng.Float64() < 0.2 { // occasional duplicate batch
						rows = append(rows, rows[:rng.Intn(len(rows))+1]...)
					}
					mustIngest(t, a, rows)
					mustIngest(t, ref, rows)
					nb++
				} else if nb > 0 {
					mustRefit(t, a)
					mustRefit(t, ref)
					refits++
				}
			}
			crash(a)

			b, err := New(durableConfig(policy, dir))
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			if b.Pending() != a.Pending() {
				t.Fatalf("pending %d, want %d", b.Pending(), a.Pending())
			}
			if b.Refits() != a.Refits() {
				t.Fatalf("counters %+v, want %+v", b.Refits(), a.Refits())
			}
			// One more refit from recovered state vs uninterrupted state
			// must agree to the bit.
			mustEqualSnapshots(t, mustRefit(t, b), mustRefit(t, ref))
		})
	}
}

// TestDurableConcurrentIngest exercises the write-ahead path under
// concurrency (meaningful under -race) and checks the recovered claim
// count matches everything that was acknowledged.
func TestDurableConcurrentIngest(t *testing.T) {
	dir := t.TempDir()
	a, err := New(durableConfig(RefitFull, dir))
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 4, 8
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if _, err := a.Ingest(batchRows(w*perWriter + i)); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				if i == perWriter/2 && w == 0 {
					if _, err := a.Refit(""); err != nil {
						t.Errorf("mid-stream refit: %v", err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	want := mustRefit(t, a)
	total := a.ingest.Total()
	crash(a)

	b, err := New(durableConfig(RefitFull, dir))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if b.ingest.Total() != total {
		t.Fatalf("recovered total %d, want %d", b.ingest.Total(), total)
	}
	if b.Pending() != 0 {
		t.Fatalf("pending %d, want 0 (everything was refitted)", b.Pending())
	}
	// No tail to replay: recovery must reproduce the checkpointed claim
	// set exactly, and the next refit re-derives the same truth table.
	sn := mustRefit(t, b)
	if sn.Stats.Claims != want.Stats.Claims || sn.Stats.Facts != want.Stats.Facts {
		t.Fatalf("recovered corpus %+v, want %+v", sn.Stats, want.Stats)
	}
	for i, r := range sn.AllTruth() {
		if r != want.AllTruth()[i] {
			t.Fatalf("truth row %d: %+v, want %+v", i, r, want.AllTruth()[i])
		}
	}
}

func TestDurabilityEndpoint(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, durableConfig(RefitFull, dir))
	mustIngest(t, s, batchRows(0))
	mustRefit(t, s)

	resp, err := http.Get(ts.URL + "/durability")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Enabled bool   `json:"enabled"`
		Fsync   string `json:"fsync"`
		WAL     struct {
			LastSeq  uint64 `json:"last_seq"`
			Segments int    `json:"segments"`
		} `json:"wal"`
		Checkpoints       int64 `json:"checkpoints"`
		LastCheckpointSeq int64 `json:"last_checkpoint_seq"`
		Recovery          struct {
			ColdStart bool `json:"cold_start"`
		} `json:"recovery"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	// LastSeq is 2: the ingested batch at seq 1 plus the refit's marker
	// control record at seq 2 (the drain cut replication followers replay).
	if !body.Enabled || body.Fsync != "never" || body.WAL.LastSeq != 2 ||
		body.WAL.Segments != 1 || body.Checkpoints != 1 ||
		body.LastCheckpointSeq != 1 || !body.Recovery.ColdStart {
		t.Fatalf("durability payload %+v", body)
	}

	// Memory-only servers report disabled.
	_, mts := newTestServer(t, testConfig(RefitFull))
	resp2, err := http.Get(mts.URL + "/durability")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var mem struct {
		Enabled bool `json:"enabled"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&mem); err != nil {
		t.Fatal(err)
	}
	if mem.Enabled {
		t.Fatal("memory-only server reports durability enabled")
	}
}

func TestNewRejectsBadFsyncPolicy(t *testing.T) {
	cfg := testConfig(RefitFull)
	cfg.Durability = Durability{DataDir: t.TempDir(), Fsync: "sometimes"}
	if _, err := New(cfg); err == nil {
		t.Fatal("expected error for bogus fsync policy")
	}
}
