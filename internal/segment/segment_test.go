package segment

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"latenttruth/internal/model"
)

// testRows builds n rows across e entities and s sources in a shuffled
// but deterministic insertion order, so entity-sorting inside the segment
// actually reorders.
func testRows(n, e, s int) []model.Row {
	rows := make([]model.Row, 0, n)
	for i := 0; i < n; i++ {
		rows = append(rows, model.Row{
			Entity:    fmt.Sprintf("entity-%04d", (i*7919)%e),
			Attribute: fmt.Sprintf("attr-%d", i%5),
			Source:    fmt.Sprintf("source-%03d", (i*104729)%s),
		})
	}
	return rows
}

func sealTest(t *testing.T, rows []model.Row, firstRow int) (string, Ref) {
	t.Helper()
	dir := t.TempDir()
	ref, err := Write(dir, 7, firstRow, rows)
	if err != nil {
		t.Fatalf("Write: %v", err)
	}
	return dir, ref
}

func TestRoundTripPreservesInsertionOrder(t *testing.T) {
	rows := testRows(5000, 40, 17)
	dir, ref := sealTest(t, rows, 100)
	s, err := Open(dir, ref)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	got := make([]model.Row, 100+len(rows))
	if err := s.ReadRows(got); err != nil {
		t.Fatalf("ReadRows: %v", err)
	}
	for i, want := range rows {
		if got[100+i] != want {
			t.Fatalf("row %d: got %+v want %+v", i, got[100+i], want)
		}
	}
}

func TestScanEntitiesExactAndSkipsPages(t *testing.T) {
	rows := testRows(60000, 500, 23) // several pages
	dir, ref := sealTest(t, rows, 0)
	s, err := Open(dir, ref)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	if s.Pages() < 4 {
		t.Fatalf("corpus too small to exercise page skipping: %d pages", s.Pages())
	}
	probe := map[string]struct{}{"entity-0007": {}, "entity-0490": {}}
	var got []model.Row
	decoded, err := s.ScanEntities(probe, func(r model.Row) { got = append(got, r) })
	if err != nil {
		t.Fatalf("ScanEntities: %v", err)
	}
	if decoded >= s.Pages() {
		t.Errorf("probe of 2 entities decoded all %d pages (no page skipping)", decoded)
	}
	var want []model.Row
	for _, r := range rows {
		if _, ok := probe[r.Entity]; ok {
			want = append(want, r)
		}
	}
	sortRows(got)
	sortRows(want)
	if len(got) != len(want) {
		t.Fatalf("got %d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("row %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}

func TestScanEntityRangeAndSource(t *testing.T) {
	rows := testRows(8000, 100, 11)
	dir, ref := sealTest(t, rows, 0)
	s, err := Open(dir, ref)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()

	lo, hi := "entity-0010", "entity-0019"
	count := 0
	if _, err := s.ScanEntityRange(lo, hi, func(r model.Row) {
		if r.Entity < lo || r.Entity > hi {
			t.Fatalf("range scan leaked %q", r.Entity)
		}
		count++
	}); err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, r := range rows {
		if r.Entity >= lo && r.Entity <= hi {
			want++
		}
	}
	if count != want {
		t.Errorf("range scan saw %d rows, want %d", count, want)
	}

	src := "source-003"
	count = 0
	if _, err := s.ScanSource(src, func(r model.Row) {
		if r.Source != src {
			t.Fatalf("source scan leaked %q", r.Source)
		}
		count++
	}); err != nil {
		t.Fatal(err)
	}
	want = 0
	for _, r := range rows {
		if r.Source == src {
			want++
		}
	}
	if count != want {
		t.Errorf("source scan saw %d rows, want %d", count, want)
	}
}

func TestSkippingMetadata(t *testing.T) {
	rows := testRows(2000, 30, 7)
	dir, ref := sealTest(t, rows, 0)
	s, err := Open(dir, ref)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	// Every present name must answer "maybe"; names outside the zone map
	// must answer a definitive no.
	for _, r := range rows[:50] {
		if !s.MayContainEntity(r.Entity) {
			t.Fatalf("false negative for present entity %q", r.Entity)
		}
		if !s.MayContainSource(r.Source) {
			t.Fatalf("false negative for present source %q", r.Source)
		}
	}
	if s.MayContainEntity("aaaa-before-range") {
		t.Error("zone map failed to exclude a name below MinEntity")
	}
	if s.MayContainEntity("zzzz-after-range") {
		t.Error("zone map failed to exclude a name above MaxEntity")
	}
	if s.OverlapsEntityRange("zzz", "") {
		t.Error("OverlapsEntityRange should exclude a range above the zone map")
	}
	if !s.OverlapsEntityRange("entity-0000", "entity-0001") {
		t.Error("OverlapsEntityRange should include an in-range probe")
	}
}

// TestCorruptionFailsLoudly is the segment analogue of the WAL torn-tail
// tests: a flipped page byte, a truncated footer, bad magic, and a missing
// file must all fail at Open — a segment never serves partial data.
func TestCorruptionFailsLoudly(t *testing.T) {
	rows := testRows(20000, 200, 13)
	corrupt := func(t *testing.T, mutate func(path string, data []byte) []byte, wantSub string) {
		t.Helper()
		dir, ref := sealTest(t, rows, 0)
		path := filepath.Join(dir, ref.Filename())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, mutate(path, data), 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, ref)
		if err == nil {
			s.Close()
			t.Fatalf("Open succeeded on corrupted segment (want error containing %q)", wantSub)
		}
		if !strings.Contains(err.Error(), wantSub) {
			t.Fatalf("error %q does not mention %q", err, wantSub)
		}
	}

	t.Run("flipped page byte", func(t *testing.T) {
		corrupt(t, func(_ string, d []byte) []byte {
			d[len(d)/3] ^= 0x40 // somewhere inside the row pages
			return d
		}, "CRC mismatch")
	})
	t.Run("truncated footer", func(t *testing.T) {
		corrupt(t, func(_ string, d []byte) []byte {
			return d[:len(d)-trailerLen-10]
		}, "bytes") // the manifest size cross-check fires first
	})
	t.Run("truncated footer, size unknown", func(t *testing.T) {
		// Without a manifest size to compare against, the trailing magic
		// check must catch the truncation.
		dir, ref := sealTest(t, rows, 0)
		path := filepath.Join(dir, ref.Filename())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data[:len(data)-trailerLen-10], 0o644); err != nil {
			t.Fatal(err)
		}
		ref.Bytes = 0
		ref.CRC = 0
		if _, err := Open(dir, ref); err == nil || !strings.Contains(err.Error(), "bad magic") {
			t.Fatalf("Open: %v, want bad magic", err)
		}
	})
	t.Run("flipped footer byte", func(t *testing.T) {
		corrupt(t, func(_ string, d []byte) []byte {
			d[len(d)-trailerLen-5] ^= 0x01
			return d
		}, "footer CRC mismatch")
	})
	t.Run("missing file", func(t *testing.T) {
		dir, ref := sealTest(t, rows, 0)
		if err := os.Remove(filepath.Join(dir, ref.Filename())); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir, ref); err == nil {
			t.Fatal("Open succeeded on a missing segment file")
		}
	})
	t.Run("manifest size mismatch", func(t *testing.T) {
		corrupt(t, func(_ string, d []byte) []byte {
			return append(d, 0) // one stray trailing byte
		}, "bytes")
	})
}

func TestSealReplacesOrphan(t *testing.T) {
	dir := t.TempDir()
	rows := testRows(100, 5, 3)
	// A crashed earlier checkpoint left a same-id segment with other
	// contents; resealing must atomically replace it.
	if _, err := Write(dir, 3, 0, testRows(50, 2, 2)); err != nil {
		t.Fatal(err)
	}
	ref, err := Write(dir, 3, 0, rows)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, ref)
	if err != nil {
		t.Fatalf("Open after reseal: %v", err)
	}
	defer s.Close()
	got := make([]model.Row, len(rows))
	if err := s.ReadRows(got); err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		if got[i] != rows[i] {
			t.Fatalf("row %d: got %+v want %+v", i, got[i], rows[i])
		}
	}
}

func TestEmptySealRefused(t *testing.T) {
	if _, err := Write(t.TempDir(), 1, 0, nil); err == nil {
		t.Fatal("Write sealed an empty segment")
	}
}

func TestBloom(t *testing.T) {
	b := newBloom(1000)
	for i := 0; i < 1000; i++ {
		b.Add(fmt.Sprintf("key-%d", i))
	}
	for i := 0; i < 1000; i++ {
		if !b.MayContain(fmt.Sprintf("key-%d", i)) {
			t.Fatalf("false negative for key-%d", i)
		}
	}
	fp := 0
	for i := 0; i < 10000; i++ {
		if b.MayContain(fmt.Sprintf("absent-%d", i)) {
			fp++
		}
	}
	if fp > 500 { // ~1.2% expected at 10 bits/key; 5% is far outside
		t.Errorf("bloom false-positive rate %d/10000 is implausibly high", fp)
	}
}

func sortRows(rs []model.Row) {
	sort.Slice(rs, func(i, j int) bool {
		a, b := rs[i], rs[j]
		if a.Entity != b.Entity {
			return a.Entity < b.Entity
		}
		if a.Attribute != b.Attribute {
			return a.Attribute < b.Attribute
		}
		return a.Source < b.Source
	})
}

// assemble builds a segment file image from a page body and a footer,
// with valid page and footer CRCs, the way Write lays one out.
func assemble(body []byte, ft footer) []byte {
	for i := range ft.Pages {
		p := &ft.Pages[i]
		if p.Off >= 0 && p.Off <= int64(len(body)) && p.Len >= 0 && int64(p.Len) <= int64(len(body))-p.Off {
			p.CRC = crc32.Checksum(body[p.Off:p.Off+int64(p.Len)], castagnoli)
		}
	}
	ftJSON, err := json.Marshal(ft)
	if err != nil {
		panic(err)
	}
	out := append(append([]byte(nil), body...), ftJSON...)
	var tr [trailerLen]byte
	binary.LittleEndian.PutUint32(tr[0:4], uint32(len(ftJSON)))
	binary.LittleEndian.PutUint32(tr[4:8], crc32.Checksum(ftJSON, castagnoli))
	copy(tr[8:], Magic)
	return append(out, tr[:]...)
}

// craftedFooter is a one-page, one-row footer over a body of n bytes.
func craftedFooter(n int) footer {
	ents, srcs := newBloom(1), newBloom(1)
	ents.Add("e")
	srcs.Add("s")
	return footer{Format: formatVersion, ID: 1, Rows: 1, MinEntity: "e", MaxEntity: "e",
		Pages:    []pageMeta{{Off: 0, Len: n, Rows: 1, MinEntity: "e", MaxEntity: "e"}},
		Entities: ents, Sources: srcs}
}

// oneRowPage encodes one row (index delta, entity, attribute, source) in
// the page encoding Write uses.
func oneRowPage(delta uint64) []byte {
	page := binary.AppendUvarint(nil, delta)
	for _, s := range []string{"e", "a", "s"} {
		page = binary.AppendUvarint(page, uint64(len(s)))
		page = append(page, s...)
	}
	return page
}

// crafted returns CRC-valid segment images that once made the decoder
// panic or spin: a page extent whose end overflows int64, a row index past
// the segment's row count, and a bloom filter with an enormous probe count.
func crafted() map[string][]byte {
	body := oneRowPage(0)
	overflow := craftedFooter(len(body))
	overflow.Pages[0].Off, overflow.Pages[0].Len = math.MaxInt64, 1
	badIndex := craftedFooter(len(body))
	hugeK := craftedFooter(len(body))
	hugeK.Sources.K = 1 << 40
	return map[string][]byte{
		"extent overflow":  assemble(body, overflow),
		"index past rows":  assemble(oneRowPage(5), badIndex),
		"bloom probe bomb": assemble(body, hugeK),
	}
}

// refFor reads the identity a segment image's footer claims, so Open's
// manifest cross-check compares the file against itself; images without
// a parseable footer get a placeholder ref and must simply fail to open.
func refFor(data []byte) Ref {
	ref := Ref{ID: 1}
	if len(data) < trailerLen {
		return ref
	}
	ftLen := int(binary.LittleEndian.Uint32(data[len(data)-trailerLen:]))
	if ftLen <= 0 || ftLen > len(data)-trailerLen {
		return ref
	}
	var ft footer
	if json.Unmarshal(data[len(data)-trailerLen-ftLen:len(data)-trailerLen], &ft) != nil {
		return ref
	}
	return Ref{ID: ft.ID, Rows: ft.Rows, FirstRow: ft.FirstRow}
}

// TestCraftedSegmentsRejected pins the decoder's bounds checks on the
// crafted images: each either fails to open or fails ReadRows, and none
// panics.
func TestCraftedSegmentsRejected(t *testing.T) {
	for name, data := range crafted() {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			ref := refFor(data)
			if err := os.WriteFile(filepath.Join(dir, ref.Filename()), data, 0o644); err != nil {
				t.Fatal(err)
			}
			s, err := Open(dir, ref)
			if err != nil {
				return
			}
			defer s.Close()
			if err := s.ReadRows(make([]model.Row, ref.FirstRow+ref.Rows)); err == nil {
				t.Fatal("crafted segment opened and decoded without error")
			}
		})
	}
}

// FuzzSegmentOpen feeds arbitrary bytes to Open and ReadRows. Neither may
// panic, and a file that opens and decodes must yield exactly its Rows
// rows, each with three non-empty components.
func FuzzSegmentOpen(f *testing.F) {
	dir := f.TempDir()
	ref, err := Write(dir, 9, 3, testRows(12, 4, 3))
	if err != nil {
		f.Fatal(err)
	}
	sealed, err := os.ReadFile(filepath.Join(dir, ref.Filename()))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(sealed)
	for _, data := range crafted() {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ref := refFor(data)
		path := filepath.Join(dir, ref.Filename())
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		defer os.Remove(path)
		s, err := Open(dir, ref)
		if err != nil {
			return
		}
		defer s.Close()
		s.MayContainEntity("e")
		s.MayContainSource("s")
		if ref.FirstRow < 0 || ref.FirstRow > 1<<16 {
			// Too far out to allocate a destination for; a short one
			// must be refused, not indexed past.
			if s.ReadRows(nil) == nil {
				t.Fatalf("ReadRows accepted a destination short of first row %d", ref.FirstRow)
			}
			return
		}
		dst := make([]model.Row, ref.FirstRow+ref.Rows)
		if err := s.ReadRows(dst); err != nil {
			return
		}
		for i, r := range dst[ref.FirstRow:] {
			if r.Entity == "" || r.Attribute == "" || r.Source == "" {
				t.Fatalf("row %d decoded with an empty component: %+v", ref.FirstRow+i, r)
			}
		}
	})
}
