package serve

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"latenttruth/internal/model"
	"latenttruth/internal/wal"
)

// injectFitFailure arms the server's test-only fit hook to fail exactly
// once, after the drain cut but before any model work — the spot where a
// real engine error (OOM, bad priors) would surface.
func injectFitFailure(s *Server) error {
	boom := errors.New("injected fit failure")
	s.testFitErr = func() error {
		s.testFitErr = nil // one-shot
		return boom
	}
	return boom
}

// freshCount returns how many of rows are new to a database that has
// already absorbed each batch in prior — the number a snapshot's Compacted
// stat must report after those rows are drained.
func freshCount(prior [][]model.Row, rows []model.Row) int {
	db := model.NewRawDB()
	for _, b := range prior {
		for _, r := range b {
			db.AddRow(r)
		}
	}
	n := 0
	for _, r := range rows {
		if db.AddRow(r) {
			n++
		}
	}
	return n
}

// TestOrphanRefitMarkerKeepsFollowerAligned is the regression test for the
// orphan-marker bug: a durable primary appends its refit marker at the
// drain cut, and if the fit then fails the marker is already in the WAL —
// followers replay it and publish a snapshot the primary never produced.
// The fix resolves the failed attempt (same rows, no second marker) before
// the next refit drains, so primary and follower snapshot sequences can
// never diverge. Run under both the full and dirty policies: the dirty
// path additionally exercises carry resolution through StepDirty.
func TestOrphanRefitMarkerKeepsFollowerAligned(t *testing.T) {
	for _, policy := range []RefitPolicy{RefitFull, RefitDirty} {
		t.Run(string(policy), func(t *testing.T) {
			cfg := durableConfig(policy, t.TempDir())
			cfg.FullEvery = 100 // keep post-anchor refits on the fast path
			prim, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer prim.Close()

			// Seed corpus and a successful first refit (always a full fit).
			for i := 0; i < 3; i++ {
				mustIngest(t, prim, batchRows(i))
			}
			if sn := mustRefit(t, prim); sn.Seq != 1 {
				t.Fatalf("first refit seq %d, want 1", sn.Seq)
			}

			// A batch arrives and its refit fails AFTER the marker append.
			mustIngest(t, prim, batchRows(3))
			boom := injectFitFailure(prim)
			if _, err := prim.Refit(""); !errors.Is(err, boom) {
				t.Fatalf("injected refit error = %v, want %v", err, boom)
			}
			if sn := prim.Snapshot(); sn.Seq != 1 {
				t.Fatalf("failed refit advanced the snapshot to seq %d", sn.Seq)
			}

			// The orphan is real: the WAL already holds 2 markers (one per
			// attempt) even though only 1 snapshot was ever published.
			if n := countMarkers(t, prim); n != 2 {
				t.Fatalf("%d markers after failed refit, want 2 (one orphaned)", n)
			}

			// Next refit must resolve the orphan first (seq 2, batch 3's
			// rows, NO new marker) and only then drain batch 4 under a new
			// marker (seq 3).
			mustIngest(t, prim, batchRows(4))
			if sn := mustRefit(t, prim); sn.Seq != 3 {
				t.Fatalf("post-recovery seq %d, want 3 (orphan resolved as 2)", sn.Seq)
			}
			if n := countMarkers(t, prim); n != 3 {
				t.Fatalf("%d markers after recovery, want 3 (resolution must not re-mark)", n)
			}
			if got := prim.Refits().Refits; got != 3 {
				t.Fatalf("refit counter %d, want 3", got)
			}

			// A follower replaying the primary's WAL verbatim — orphan
			// marker included — must land on the identical serving state.
			folCfg := durableConfig(policy, t.TempDir())
			folCfg.FullEvery = 100
			folCfg.FollowerOf = "http://primary.invalid"
			fol, err := New(folCfg)
			if err != nil {
				t.Fatal(err)
			}
			defer fol.Close()
			if err := prim.dur.log.Replay(1, func(b wal.Batch) error {
				return fol.ApplyReplicated(b)
			}); err != nil {
				t.Fatal(err)
			}
			mustEqualSnapshots(t, fol.Snapshot(), prim.Snapshot())
		})
	}
}

// countMarkers replays a durable server's WAL and counts refit markers.
func countMarkers(t *testing.T, s *Server) int {
	t.Helper()
	n := 0
	if err := s.dur.log.Replay(1, func(b wal.Batch) error {
		if _, _, ok := parseRefitNote(b); ok {
			n++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestCompactedCountSurvivesFailedFit is the regression test for the lost
// compacted stat: a refit drains rows, folds them into the database, then
// fails — the next successful snapshot must still report those rows as
// compacted by it, not silently absorb them with Compacted = 0.
func TestCompactedCountSurvivesFailedFit(t *testing.T) {
	s, err := New(testConfig(RefitFull))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	mustIngest(t, s, batchRows(0))
	want0 := freshCount(nil, batchRows(0))
	if sn := mustRefit(t, s); sn.Compacted != want0 {
		t.Fatalf("refit 1 compacted %d, want %d", sn.Compacted, want0)
	}

	mustIngest(t, s, batchRows(1))
	want1 := freshCount([][]model.Row{batchRows(0)}, batchRows(1))
	boom := injectFitFailure(s)
	if _, err := s.Refit(""); !errors.Is(err, boom) {
		t.Fatalf("injected refit error = %v, want %v", err, boom)
	}
	if s.Pending() != 0 {
		t.Fatalf("%d rows still pending after drain; carry should hold them", s.Pending())
	}

	// The retry publishes the carried attempt: same rows, same count.
	sn := mustRefit(t, s)
	if sn.Seq != 2 {
		t.Fatalf("retry seq %d, want 2", sn.Seq)
	}
	if sn.Compacted != want1 {
		t.Fatalf("retry compacted %d, want %d (count lost across the failed attempt)", sn.Compacted, want1)
	}
}

// TestDirtyRefitAllDirtyMatchesFull is the equivalence property anchoring
// the fast path: when every entity is dirty there is no clean remainder to
// keep, and the dirty policy must produce a snapshot bit-identical to a
// full-policy server fed the same batches.
func TestDirtyRefitAllDirtyMatchesFull(t *testing.T) {
	// The server fits with one engine, i.e. a single shard; the subtest is
	// named for that so the case keeps the name it had under a shard table.
	t.Run("shards=1", func(t *testing.T) {
		mk := func(policy RefitPolicy) *Server {
			cfg := testConfig(policy)
			cfg.FullEvery = 100
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { s.Close() })
			return s
		}
		d, f := mk(RefitDirty), mk(RefitFull)

		rows := positiveRows(testCorpus(t, 7).Dataset)
		entities := map[string]struct{}{}
		for _, r := range rows {
			entities[r.Entity] = struct{}{}
		}
		mustIngest(t, d, rows)
		mustIngest(t, f, rows)
		mustEqualSnapshots(t, mustRefit(t, d), mustRefit(t, f))

		// Two rounds of batches that touch EVERY entity: the dirty server must
		// detect the degenerate case and match the full server exactly.
		for r := 0; r < 2; r++ {
			var batch []model.Row
			for e := range entities {
				batch = append(batch,
					model.Row{Entity: e, Attribute: fmt.Sprintf("x%d", r), Source: "good"},
					model.Row{Entity: e, Attribute: fmt.Sprintf("x%d", r), Source: "messy"})
			}
			mustIngest(t, d, batch)
			mustIngest(t, f, batch)
			sd, sf := mustRefit(t, d), mustRefit(t, f)
			if sd.Mode != RefitFull {
				t.Fatalf("round %d: all-dirty refit mode %q, want full fallback", r, sd.Mode)
			}
			mustEqualSnapshots(t, sd, sf)
		}
	})
}

// TestDirtyRefitCleanEntitiesUnchanged is the isolation property: a dirty
// refit may only move posteriors of entities the drained batches touched.
// Every clean entity's truth rows must be bitwise identical to the
// previous snapshot — not approximately stable, identical.
func TestDirtyRefitCleanEntitiesUnchanged(t *testing.T) {
	cfg := testConfig(RefitDirty)
	cfg.FullEvery = 100
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	mustIngest(t, s, positiveRows(testCorpus(t, 9).Dataset))
	prev := mustRefit(t, s)
	if prev.Mode != RefitFull {
		t.Fatalf("first refit mode %q, want full anchor", prev.Mode)
	}

	// Pick a stable trio of entities to keep dirtying.
	dirtySet := map[string]struct{}{}
	for _, row := range prev.AllTruth() {
		if len(dirtySet) == 3 {
			break
		}
		dirtySet[row.Entity] = struct{}{}
	}

	for round := 0; round < 3; round++ {
		var batch []model.Row
		for e := range dirtySet {
			batch = append(batch,
				model.Row{Entity: e, Attribute: fmt.Sprintf("fresh%d", round), Source: "good"},
				model.Row{Entity: e, Attribute: fmt.Sprintf("fresh%d", round), Source: "lazy"})
		}
		mustIngest(t, s, batch)
		sn := mustRefit(t, s)
		if sn.Mode != RefitDirty {
			t.Fatalf("round %d: mode %q, want dirty", round, sn.Mode)
		}
		if sn.DirtyEntities != len(dirtySet) {
			t.Fatalf("round %d: %d dirty entities, want %d", round, sn.DirtyEntities, len(dirtySet))
		}
		if sn.Freshness <= 0 {
			t.Fatalf("round %d: freshness %v, want > 0 after a pending ingest", round, sn.Freshness)
		}

		was := map[[2]string]TruthRow{}
		for _, row := range prev.AllTruth() {
			was[[2]string{row.Entity, row.Attribute}] = row
		}
		cleanNow, cleanWas := 0, 0
		for _, row := range sn.AllTruth() {
			if _, dirty := dirtySet[row.Entity]; dirty {
				continue
			}
			cleanNow++
			old, ok := was[[2]string{row.Entity, row.Attribute}]
			if !ok {
				t.Fatalf("round %d: clean fact %s/%s appeared from nowhere", round, row.Entity, row.Attribute)
			}
			if row != old {
				t.Fatalf("round %d: clean entity moved: %+v was %+v", round, row, old)
			}
		}
		for key := range was {
			if _, dirty := dirtySet[key[0]]; !dirty {
				cleanWas++
			}
		}
		if cleanNow != cleanWas {
			t.Fatalf("round %d: %d clean facts, want %d (clean facts must be preserved)", round, cleanNow, cleanWas)
		}
		// The dirty entities' new facts did land.
		for e := range dirtySet {
			if _, err := sn.Truth(e, fmt.Sprintf("fresh%d", round)); err != nil {
				t.Fatalf("round %d: dirty entity %s's new fact missing: %v", round, e, err)
			}
		}
		prev = sn
	}
	if got := s.Refits(); got.DirtyRefits != 3 || got.FullRefits != 1 {
		t.Fatalf("refit counters %+v, want 3 dirty / 1 full", got)
	}
}

// TestDirtyRefitRestartBitIdentical extends the durability acceptance
// scenario to the dirty policy: the checkpointed posterior plus the WAL's
// dirty-set markers must let a crashed server replay partial refits
// bit-identically to an uninterrupted twin — including dirty refits that
// extend the restored snapshot after recovery.
func TestDirtyRefitRestartBitIdentical(t *testing.T) {
	dir := t.TempDir()
	mk := func(durableDir string) *Server {
		var cfg Config
		if durableDir != "" {
			cfg = durableConfig(RefitDirty, durableDir)
		} else {
			cfg = testConfig(RefitDirty)
		}
		cfg.FullEvery = 100
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	ref := mk("")
	defer ref.Close()
	a := mk(dir)

	// Full anchor, then two dirty refits, then two acknowledged batches
	// that never see a refit before the crash.
	for r := 0; r < 3; r++ {
		mustIngest(t, a, batchRows(r))
		mustIngest(t, ref, batchRows(r))
		mustEqualSnapshots(t, mustRefit(t, a), mustRefit(t, ref))
	}
	mustIngest(t, a, batchRows(10))
	mustIngest(t, a, batchRows(11))
	mustIngest(t, ref, batchRows(10))
	mustIngest(t, ref, batchRows(11))
	crash(a)

	b := mk(dir)
	defer b.Close()
	// Recovery restored the published snapshot itself — before the next
	// refit runs, the server already serves what it served pre-crash.
	restored := b.Snapshot()
	if restored == nil {
		t.Fatal("no snapshot restored from the checkpointed posterior")
	}
	mustEqualSnapshots(t, restored, a.Snapshot())
	if b.Pending() != a.Pending() {
		t.Fatalf("pending after recovery = %d, want %d", b.Pending(), a.Pending())
	}
	// The refit counters — including the dirty-refit count, which feeds
	// /stats — survive alongside the snapshot they describe.
	if got, want := b.Refits(), a.Refits(); got != want {
		t.Fatalf("refit counters after recovery = %+v, want %+v", got, want)
	}

	// The next refit is a DIRTY refit over the restored snapshot: it only
	// works bit-identically if the posterior, the accumulated counts and
	// the replayed dirty set all survived.
	sb, sr := mustRefit(t, b), mustRefit(t, ref)
	if sb.Mode != RefitDirty {
		t.Fatalf("post-recovery refit mode %q, want dirty", sb.Mode)
	}
	mustEqualSnapshots(t, sb, sr)

	// And the runs stay in lockstep, including a forced full re-anchor —
	// proof the reconciled confusion counts did not drift.
	mustIngest(t, b, batchRows(20))
	mustIngest(t, ref, batchRows(20))
	mustEqualSnapshots(t, mustRefit(t, b), mustRefit(t, ref))
	fb, err := b.Refit(RefitFull)
	if err != nil {
		t.Fatal(err)
	}
	fr, err := ref.Refit(RefitFull)
	if err != nil {
		t.Fatal(err)
	}
	mustEqualSnapshots(t, fb, fr)
}

// TestDirtyRefitUnderConcurrentReads wires the dirty policy into the -race
// suite: in-process readers validate snapshot integrity while dirty refits
// (and their copy-on-write posterior scatter) run, checking the publication
// ordering of everything reachable from the snapshot pointer.
func TestDirtyRefitUnderConcurrentReads(t *testing.T) {
	cfg := testConfig(RefitDirty)
	cfg.FullEvery = 100
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	mustIngest(t, s, positiveRows(testCorpus(t, 11).Dataset))
	mustRefit(t, s)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastSeq int64
			for {
				select {
				case <-stop:
					return
				default:
				}
				sn := s.Snapshot()
				if sn == nil {
					continue
				}
				if sn.Seq < lastSeq {
					errs <- fmt.Errorf("seq went backwards: %d after %d", sn.Seq, lastSeq)
					return
				}
				lastSeq = sn.Seq
				if len(sn.Result.Prob) != sn.Dataset.NumFacts() ||
					len(sn.Records) != sn.Dataset.NumEntities() {
					errs <- fmt.Errorf("torn snapshot at seq %d", sn.Seq)
					return
				}
			}
		}()
	}

	for i := 0; i < 8; i++ {
		rows := make([]model.Row, 0, 4)
		for j := 0; j < 2; j++ {
			rows = append(rows, model.Row{
				Entity:    fmt.Sprintf("dirty-e%d", i%3),
				Attribute: fmt.Sprintf("a%d-%d", i, j),
				Source:    fmt.Sprintf("s%d", j),
			})
		}
		mustIngest(t, s, rows)
		if sn := mustRefit(t, s); sn.Mode != RefitDirty {
			t.Fatalf("refit %d mode %q, want dirty", i, sn.Mode)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}
