package store

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"latenttruth/internal/model"
	"latenttruth/internal/segment"
)

// fillBackends adds the same rows to a memory-only and a segments-kind
// backend, sealing the segment side every sealEvery rows so several
// segments exist.
func fillBackends(t *testing.T, rows []model.Row, sealEvery int) (*SegmentBacked, *SegmentBacked) {
	t.Helper()
	mem := NewMemory()
	seg := NewSegmentBacked(t.TempDir())
	t.Cleanup(func() { seg.Close() })
	id := uint64(1)
	for i, r := range rows {
		if mem.AddRow(r) != seg.AddRow(r) {
			t.Fatalf("row %d: backends disagree on insertion", i)
		}
		if sealEvery > 0 && (i+1)%sealEvery == 0 {
			if _, err := seg.Seal(id); err != nil {
				t.Fatalf("Seal: %v", err)
			}
			id++
		}
	}
	return mem, seg
}

func collect(t *testing.T, scan func(fn func(model.Row)) error) map[model.Row]int {
	t.Helper()
	got := make(map[model.Row]int)
	if err := scan(func(r model.Row) { got[r]++ }); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestBackendScanEquivalence is the storage-API contract: both kinds
// return identical insertion-order rows (the bit-identity substrate) and
// identical scan results for entity sets, entity ranges and sources —
// with the segment side skipping at least one segment on scoped probes.
func TestBackendScanEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rows := randomRows(rng, 50, 4, 12, 4000)
	mem, seg := fillBackends(t, rows, 700) // several sealed segments + tail

	if !reflect.DeepEqual(mem.Rows(), seg.Rows()) {
		t.Fatal("backends disagree on insertion-order rows")
	}
	mr, sr := mem.Reader(), seg.Reader()

	probe := map[string]struct{}{"e003": {}, "e042": {}}
	gm := collect(t, func(fn func(model.Row)) error { return mr.ScanEntities(probe, fn) })
	gs := collect(t, func(fn func(model.Row)) error { return sr.ScanEntities(probe, fn) })
	if !reflect.DeepEqual(gm, gs) {
		t.Fatalf("ScanEntities differs: memory %d rows, segments %d rows", len(gm), len(gs))
	}

	gm = collect(t, func(fn func(model.Row)) error { return mr.ScanEntityRange("e010", "e019", fn) })
	gs = collect(t, func(fn func(model.Row)) error { return sr.ScanEntityRange("e010", "e019", fn) })
	if !reflect.DeepEqual(gm, gs) {
		t.Fatal("ScanEntityRange differs between backends")
	}

	gm = collect(t, func(fn func(model.Row)) error { return mr.ScanSource("s05", fn) })
	gs = collect(t, func(fn func(model.Row)) error { return sr.ScanSource("s05", fn) })
	if !reflect.DeepEqual(gm, gs) {
		t.Fatal("ScanSource differs between backends")
	}

	st := seg.Stats()
	if st.Kind != StorageSegments || st.Segments == 0 || st.OnDisk == 0 {
		t.Fatalf("segment stats look wrong: %+v", st)
	}
	if st.Resident != len(seg.Rows()) {
		t.Fatalf("resident %d != rows %d", st.Resident, len(seg.Rows()))
	}
	if st.SegmentsScanned == 0 {
		t.Error("scoped scans never opened a segment")
	}
}

// TestSegmentBackedReopen seals, reopens from refs (the recovery shape)
// and checks rows, stats and a scan all survive the round trip.
func TestSegmentBackedReopen(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rows := randomRows(rng, 30, 3, 8, 1500)
	seg := NewSegmentBacked(t.TempDir())
	defer seg.Close()
	for _, r := range rows {
		seg.AddRow(r)
	}
	refs, err := seg.Seal(1)
	if err != nil {
		t.Fatal(err)
	}
	// More rows + a second seal: refs accumulate, earlier segments stay.
	extra := randomRows(rng, 30, 3, 8, 500)
	for _, r := range extra {
		seg.AddRow(r)
	}
	refs, err = seg.Seal(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 2 {
		t.Fatalf("got %d refs, want 2", len(refs))
	}

	// Recovery: rebuild the RawDB from the segments alone, then adopt.
	loaded := make([]model.Row, refs[len(refs)-1].FirstRow+refs[len(refs)-1].Rows)
	dir := seg.dir
	for _, ref := range refs {
		s, err := segment.Open(dir, ref)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.ReadRows(loaded); err != nil {
			t.Fatal(err)
		}
		s.Close()
	}
	db := model.NewRawDB()
	for _, r := range loaded {
		db.AddRow(r)
	}
	re, err := OpenSegmentBacked(dir, refs, db)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if !reflect.DeepEqual(re.Rows(), seg.Rows()) {
		t.Fatal("reopened backend rows differ from original insertion order")
	}
	st := re.Stats()
	if st.OnDisk != re.Len() || st.Segments != 2 {
		t.Fatalf("reopened stats: %+v", st)
	}

	// A coverage gap must refuse to open.
	bad := []segment.Ref{refs[1]}
	if _, err := OpenSegmentBacked(dir, bad, db); err == nil {
		t.Fatal("OpenSegmentBacked accepted refs with a coverage gap")
	}
}

// TestExtendDirtyScanMatchesDataset is the basis-equivalence property: for
// random corpora, prefix cuts and dirty sets, ExtendDirtyScan over either
// backend's reader produces an Extension bit-identical to ExtendDirty's —
// so serving from segments cannot change a single truth decision.
func TestExtendDirtyScanMatchesDataset(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 60; trial++ {
		rows := randomRows(rng, 2+rng.Intn(20), 1+rng.Intn(4), 1+rng.Intn(8), 1+rng.Intn(150))
		db := model.NewRawDB()
		var distinct []model.Row
		for _, r := range rows {
			if db.AddRow(r) {
				distinct = append(distinct, r)
			}
		}
		cut := 1 + rng.Intn(len(distinct))
		prefix := model.NewRawDB()
		for _, r := range distinct[:cut] {
			prefix.AddRow(r)
		}
		prev := model.Build(prefix)
		fresh := distinct[cut:]
		dirty := make(map[string]struct{})
		for _, r := range fresh {
			dirty[r.Entity] = struct{}{}
		}
		if len(prev.Entities) > 0 {
			dirty[prev.Entities[rng.Intn(len(prev.Entities))]] = struct{}{}
		}

		want, err := ExtendDirty(prev, fresh, dirty)
		if err != nil {
			t.Fatalf("trial %d: ExtendDirty: %v", trial, err)
		}

		sealEvery := 0
		if len(distinct) > 3 {
			sealEvery = 1 + rng.Intn(len(distinct)/2)
		}
		mem, seg := fillBackends(t, distinct, sealEvery)
		for _, rd := range []Reader{mem.Reader(), seg.Reader()} {
			got, err := ExtendDirtyScan(prev, fresh, dirty, rd)
			if err != nil {
				t.Fatalf("trial %d: ExtendDirtyScan: %v", trial, err)
			}
			if !reflect.DeepEqual(got.Full, want.Full) {
				t.Fatalf("trial %d: scan-basis Full differs from dataset-basis", trial)
			}
			if !reflect.DeepEqual(got.Sub, want.Sub) {
				t.Fatalf("trial %d: scan-basis Sub differs from dataset-basis", trial)
			}
			if !reflect.DeepEqual(got.SubFacts, want.SubFacts) || !reflect.DeepEqual(got.SubEntities, want.SubEntities) {
				t.Fatalf("trial %d: scan-basis id maps differ from dataset-basis", trial)
			}
		}
	}
}

// TestSealBoundsSegmentCount checkpoints batches of varying size —
// growing, shrinking and equal runs — and checks after every seal that
// the live segment count is at most ⌈log₂ rows⌉+1, that the refs cover
// every row contiguously, and that reopening from the refs reproduces the
// rows in insertion order.
func TestSealBoundsSegmentCount(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, kind := range []string{StorageMemory, StorageSegments} {
		t.Run(kind, func(t *testing.T) {
			dir := t.TempDir()
			b, err := Open(kind, dir, nil, model.NewRawDB())
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			sizes := []int{1, 1, 1, 1, 1, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 500, 1, 2, 4, 8, 16, 32, 64}
			for i := 0; i < 40; i++ {
				sizes = append(sizes, 1+rng.Intn(60))
			}
			var refs []segment.Ref
			for i, n := range sizes {
				for _, r := range randomRows(rng, 400, 6, 30, n) {
					b.AddRow(r)
				}
				if refs, err = b.Seal(uint64(i + 1)); err != nil {
					t.Fatal(err)
				}
				rows := b.Len()
				if bound := int(math.Ceil(math.Log2(float64(rows)))) + 1; len(refs) > bound {
					t.Fatalf("seal %d: %d live segments for %d rows, bound %d", i+1, len(refs), rows, bound)
				}
				covered := 0
				for _, ref := range refs {
					if ref.FirstRow != covered {
						t.Fatalf("seal %d: segment %d starts at %d, want %d", i+1, ref.ID, ref.FirstRow, covered)
					}
					covered += ref.Rows
				}
				if st := b.Stats(); covered != rows || st.OnDisk != rows || st.Segments != len(refs) || st.Kind != kind {
					t.Fatalf("seal %d: refs cover %d of %d rows, stats %+v", i+1, covered, rows, st)
				}
			}
			db := model.NewRawDB()
			for _, r := range b.Rows() {
				db.AddRow(r)
			}
			re, err := Open(kind, dir, refs, db)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			loaded := make([]model.Row, b.Len())
			for _, ref := range refs {
				s, err := segment.Open(dir, ref)
				if err != nil {
					t.Fatal(err)
				}
				if err := s.ReadRows(loaded); err != nil {
					t.Fatal(err)
				}
				s.Close()
			}
			if !reflect.DeepEqual(loaded, b.Rows()) {
				t.Fatal("merged segments do not reproduce insertion order")
			}
		})
	}
}

// TestMemoryKindReaderIgnoresSegments checks that a memory-kind backend
// that seals still scans every row from the heap: its reader must not
// skip the sealed prefix, and no scan touches a segment.
func TestMemoryKindReaderIgnoresSegments(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	rows := randomRows(rng, 40, 4, 10, 1200)
	mem := NewMemory()
	b, err := Open(StorageMemory, t.TempDir(), nil, model.NewRawDB())
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	for i, r := range rows {
		mem.AddRow(r)
		b.AddRow(r)
		if (i+1)%300 == 0 {
			if _, err := b.Seal(uint64(i + 1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	gm := collect(t, func(fn func(model.Row)) error { return mem.Reader().ScanEntityRange("", "", fn) })
	gb := collect(t, func(fn func(model.Row)) error { return b.Reader().ScanEntityRange("", "", fn) })
	if !reflect.DeepEqual(gm, gb) || len(gb) != b.Len() {
		t.Fatalf("memory-kind scan saw %d rows, want %d", len(gb), b.Len())
	}
	if st := b.Stats(); st.OnDisk == 0 || st.SegmentsScanned+st.SegmentsSkipped != 0 {
		t.Fatalf("memory-kind stats %+v", st)
	}
	if _, err := mem.Seal(1); err == nil {
		t.Fatal("a memory-only backend sealed")
	}
}

// TestReaderSurvivesMergingSeal scans a Reader taken before a run of
// merging seals, concurrently with them and with forced collections: the
// segments it reaches were replaced, but they must stay mapped for as
// long as the reader can reach them, so every scan returns all its rows.
// Run under -race.
func TestReaderSurvivesMergingSeal(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	b := NewSegmentBacked(t.TempDir())
	defer b.Close()
	id := uint64(1)
	for _, n := range []int{400, 100, 50} {
		for _, r := range randomRows(rng, 200, 5, 20, n) {
			b.AddRow(r)
		}
		if _, err := b.Seal(id); err != nil {
			t.Fatal(err)
		}
		id++
	}
	rd := b.Reader()
	want := rd.Len()

	done := make(chan error)
	go func() {
		for i := 0; i < 40; i++ {
			got := 0
			if err := rd.ScanEntityRange("", "", func(model.Row) { got++ }); err != nil {
				done <- err
				return
			}
			if got != want {
				done <- fmt.Errorf("scan %d saw %d rows, want %d", i, got, want)
				return
			}
			runtime.GC()
		}
		done <- nil
	}()
	var refs []segment.Ref
	for i := 0; i < 20; i++ {
		for _, r := range randomRows(rng, 200, 5, 20, 200) {
			b.AddRow(r)
		}
		var err error
		if refs, err = b.Seal(id); err != nil {
			t.Fatal(err)
		}
		id++
		runtime.GC()
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if refs[0].ID == 1 {
		t.Fatalf("no seal merged the reader's segments: %v", refs)
	}
}
