package replica

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"latenttruth/internal/core"
	"latenttruth/internal/model"
	"latenttruth/internal/obs"
	"latenttruth/internal/serve"
	"latenttruth/internal/wal"
)

// primaryConfig is a durable manual-refit primary config with a fast
// sampler.
func primaryConfig(dir string) serve.Config {
	return serve.Config{
		LTM:           core.Config{Iterations: 40, Seed: 1},
		Policy:        serve.RefitFull,
		FullEvery:     3,
		RefitInterval: -1,
		Durability:    serve.Durability{DataDir: dir, Fsync: wal.SyncNever},
	}
}

// followerConfig mirrors the primary's model configuration over its own
// data directory, with snappy replication timing for tests.
func followerConfig(primary, dir string) Config {
	return Config{
		Primary:      primary,
		Serve:        primaryConfig(dir),
		PollWait:     300 * time.Millisecond,
		RetryBackoff: 50 * time.Millisecond,
	}
}

// batchRows builds deterministic, mildly conflicting claim batches.
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

// newPrimary builds a durable primary with its HTTP front end.
func newPrimary(t *testing.T, dir string) (*serve.Server, *httptest.Server) {
	t.Helper()
	s, err := serve.New(primaryConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

// ingestRefit pushes a batch and refits, returning the snapshot.
func ingestRefit(t *testing.T, s *serve.Server, i int) *serve.Snapshot {
	t.Helper()
	if _, err := s.Ingest(batchRows(i)); err != nil {
		t.Fatal(err)
	}
	sn, err := s.Refit("")
	if err != nil {
		t.Fatal(err)
	}
	return sn
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// waitSnapshotSeq waits until the follower serves snapshot seq.
func waitSnapshotSeq(t *testing.T, f *Follower, seq int64) *serve.Snapshot {
	t.Helper()
	waitFor(t, fmt.Sprintf("follower snapshot seq %d", seq), func() bool {
		sn := f.Server().Snapshot()
		return sn != nil && sn.Seq >= seq
	})
	return f.Server().Snapshot()
}

// mustEqualSnapshots asserts two snapshots carry bit-identical model
// state.
func mustEqualSnapshots(t *testing.T, got, want *serve.Snapshot) {
	t.Helper()
	if got == nil || want == nil {
		t.Fatalf("nil snapshot (got=%v want=%v)", got != nil, want != nil)
	}
	if got.Seq != want.Seq || got.Mode != want.Mode {
		t.Fatalf("snapshot identity: got (seq=%d, %s), want (seq=%d, %s)", got.Seq, got.Mode, want.Seq, want.Mode)
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

// TestFollowerBitIdenticalTruth is the tentpole acceptance scenario in
// process: a follower bootstraps from the primary's checkpoint, tails its
// WAL over real HTTP, and after replaying through the primary's refit
// marker at sequence N serves a snapshot bit-identical to the primary's
// snapshot N.
func TestFollowerBitIdenticalTruth(t *testing.T) {
	prim, ts := newPrimary(t, t.TempDir())
	ingestRefit(t, prim, 0)
	boot := ingestRefit(t, prim, 1)

	f, err := Start(followerConfig(ts.URL, t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if st := f.Stats(); !st.Bootstrapped || st.BootstrapSeq != 2 {
		t.Fatalf("bootstrap stats %+v, want bootstrapped at seq 2", st)
	}
	// Before any further marker the follower already serves the snapshot
	// restored from the primary's checkpoint: same seq, mode and
	// posterior as the primary's.
	mustEqualSnapshots(t, f.Server().Snapshot(), boot)

	// Each primary refit ships a marker; the follower's replayed snapshot
	// must match the primary's bit for bit, seq for seq.
	want := ingestRefit(t, prim, 2)
	mustEqualSnapshots(t, waitSnapshotSeq(t, f, want.Seq), want)

	want = ingestRefit(t, prim, 3)
	mustEqualSnapshots(t, waitSnapshotSeq(t, f, want.Seq), want)

	// Reads are served locally; writes bounce to the primary.
	fts := httptest.NewServer(f.Handler())
	defer fts.Close()
	resp, err := http.Get(fts.URL + "/truth")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follower /truth status %d", resp.StatusCode)
	}
	resp, err = http.Post(fts.URL+"/claims", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("follower /claims status %d, want 503", resp.StatusCode)
	}
	resp, err = http.Get(fts.URL + "/replication/status")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follower /replication/status status %d", resp.StatusCode)
	}
}

// TestFollowerFromColdPrimary starts the follower before the primary has
// ever refitted: there is no checkpoint, so the follower starts empty and
// replays the log from sequence 1 — including the primary's very first
// refit, whose default priors are sized to the same dataset on both sides.
func TestFollowerFromColdPrimary(t *testing.T) {
	prim, ts := newPrimary(t, t.TempDir())
	f, err := Start(followerConfig(ts.URL, t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if st := f.Stats(); st.Bootstrapped {
		t.Fatalf("follower of a cold primary reports a bootstrap: %+v", st)
	}
	want := ingestRefit(t, prim, 0)
	mustEqualSnapshots(t, waitSnapshotSeq(t, f, want.Seq), want)
}

// TestFollowerRestartResumesWithoutRebootstrap closes a caught-up
// follower, restarts it on the same directory, and asserts it resumed
// from its own mirrored log — no checkpoint download — and still tracks
// the primary bit-identically.
func TestFollowerRestartResumesWithoutRebootstrap(t *testing.T) {
	prim, ts := newPrimary(t, t.TempDir())
	ingestRefit(t, prim, 0)

	folDir := t.TempDir()
	f, err := Start(followerConfig(ts.URL, folDir))
	if err != nil {
		t.Fatal(err)
	}
	want := ingestRefit(t, prim, 1)
	mustEqualSnapshots(t, waitSnapshotSeq(t, f, want.Seq), want)
	id := f.Stats().ID
	f.Close()

	// More primary progress while the follower is down.
	want = ingestRefit(t, prim, 2)

	f2, err := Start(followerConfig(ts.URL, folDir))
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	st := f2.Stats()
	if st.Bootstrapped || st.BootstrapSeq != 0 {
		t.Fatalf("restart re-bootstrapped: %+v", st)
	}
	if st.ID != id {
		t.Fatalf("follower id changed across restart: %q -> %q", id, st.ID)
	}
	// The recovered local state already serves (snapshot from its own
	// checkpoint + marker replay), and the tail catches up to the primary.
	mustEqualSnapshots(t, waitSnapshotSeq(t, f2, want.Seq), want)
}

// TestFollowerEvictionRebootstraps drives a follower far past the
// primary's lag bound while it is down: its cursor is evicted, the
// history it needs is truncated, and on return it gets 410 and
// re-bootstraps from a fresh checkpoint instead of wedging.
func TestFollowerEvictionRebootstraps(t *testing.T) {
	primDir := t.TempDir()
	cfg := primaryConfig(primDir)
	cfg.Durability.SegmentBytes = 4 << 10
	cfg.Durability.RetainCheckpoints = 1
	cfg.Replication = serve.Replication{MaxLagBatches: 4, CursorTTL: 10 * time.Millisecond}
	prim, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(prim.Handler())
	defer func() { ts.Close(); prim.Close() }()
	ingestRefit(t, prim, 0)

	folDir := t.TempDir()
	f, err := Start(followerConfig(ts.URL, folDir))
	if err != nil {
		t.Fatal(err)
	}
	want := ingestRefit(t, prim, 1)
	mustEqualSnapshots(t, waitSnapshotSeq(t, f, want.Seq), want)
	f.Close()

	// Push the log far past the lag bound; refits evict + truncate.
	for i := 2; i < 40; i++ {
		if _, err := prim.Ingest(batchRows(i)); err != nil {
			t.Fatal(err)
		}
		if i%5 == 0 {
			time.Sleep(15 * time.Millisecond) // let the TTL lapse
			if _, err := prim.Refit(""); err != nil {
				t.Fatal(err)
			}
		}
	}
	time.Sleep(15 * time.Millisecond)
	if _, err := prim.Refit(""); err != nil {
		t.Fatal(err)
	}
	if first := prim.DurabilityStats().WAL.FirstSeq; first <= 3 {
		t.Skipf("history was not truncated (first_seq=%d)", first)
	}

	f2, err := Start(followerConfig(ts.URL, folDir))
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	waitFor(t, "re-bootstrap after eviction", func() bool { return f2.Stats().Rebootstraps >= 1 })
	// The re-bootstrapped follower serves the checkpoint state right away
	// and replays the primary's next refit bit-identically.
	want = ingestRefit(t, prim, 50)
	mustEqualSnapshots(t, waitSnapshotSeq(t, f2, want.Seq), want)
}

// TestCascadedFollower chains a follower off another follower: the
// intermediate's durable mirror re-exposes the same /replication feed, so
// the leaf converges on the same bit-identical snapshots as the primary.
func TestCascadedFollower(t *testing.T) {
	prim, ts := newPrimary(t, t.TempDir())
	ingestRefit(t, prim, 0)

	mid, err := Start(followerConfig(ts.URL, t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer mid.Close()
	mts := httptest.NewServer(mid.Handler())
	defer mts.Close()

	leaf, err := Start(followerConfig(mts.URL, t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer leaf.Close()

	want := ingestRefit(t, prim, 1)
	mustEqualSnapshots(t, waitSnapshotSeq(t, mid, want.Seq), want)
	mustEqualSnapshots(t, waitSnapshotSeq(t, leaf, want.Seq), want)
}

func TestStartValidation(t *testing.T) {
	if _, err := Start(Config{Serve: primaryConfig(t.TempDir())}); err == nil {
		t.Fatal("missing primary accepted")
	}
	if _, err := Start(Config{Primary: "http://x.invalid"}); err == nil {
		t.Fatal("missing data dir accepted")
	}
	if _, err := Start(Config{Primary: "not a url", Serve: primaryConfig(t.TempDir())}); err == nil {
		t.Fatal("bogus primary URL accepted")
	}
}

// TestFollowerMetrics: a follower's /metrics concatenates its inner
// server's registry with its own replica_* families. The result must be
// one valid exposition carrying both, and must merge with a primary's.
func TestFollowerMetrics(t *testing.T) {
	prim, ts := newPrimary(t, t.TempDir())
	ingestRefit(t, prim, 0)
	f, err := Start(followerConfig(ts.URL, t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := ingestRefit(t, prim, 1)
	waitSnapshotSeq(t, f, want.Seq)

	scrape := func(base string) ([]byte, map[string]bool) {
		t.Helper()
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s/metrics: status %d", base, resp.StatusCode)
		}
		fams, err := obs.ParseExposition(bytes.NewReader(body))
		if err != nil {
			t.Fatalf("GET %s/metrics: %v", base, err)
		}
		names := make(map[string]bool, len(fams))
		for _, fam := range fams {
			names[fam.Name] = true
		}
		return body, names
	}
	fts := httptest.NewServer(f.Handler())
	defer fts.Close()
	folBody, folFams := scrape(fts.URL)
	primBody, primFams := scrape(ts.URL)

	for _, name := range []string{"replica_applied_refits_total", "replica_caught_up", "replica_last_applied_seq"} {
		if !folFams[name] {
			t.Errorf("follower /metrics lacks %s", name)
		}
	}
	for name := range primFams {
		if !folFams[name] {
			t.Errorf("follower /metrics lacks the server family %s", name)
		}
	}
	if _, err := obs.Merge([][]byte{primBody, folBody}); err != nil {
		t.Fatalf("merging primary and follower /metrics: %v", err)
	}
}
