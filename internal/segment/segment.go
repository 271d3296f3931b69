package segment

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"

	"latenttruth/internal/model"
)

// Magic trails every segment file; a file without it is not a segment.
const Magic = "LTSEG001"

// formatVersion is bumped on any incompatible layout change.
const formatVersion = 1

// targetPageBytes bounds the encoded payload of one page. Pages are the
// unit of checksumming and of zone-map skipping inside a segment.
const targetPageBytes = 64 << 10

// trailerLen is the fixed-size tail: footerLen(4) + footerCRC(4) + magic(8).
const trailerLen = 16

// castagnoli is the CRC32C polynomial table shared with the WAL framing.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Ref identifies a sealed segment inside a checkpoint manifest: enough to
// locate the file, cross-check its identity, and size recovery buffers
// without opening it.
type Ref struct {
	ID       uint64 `json:"id"`        // file name stem: seg-<ID>.seg
	Rows     int    `json:"rows"`      // row count
	FirstRow int    `json:"first_row"` // global index of the first covered row
	Bytes    int64  `json:"bytes"`     // file size
	CRC      uint32 `json:"crc"`       // footer CRC32C, pinned at seal time
}

// Filename returns the segment's file name within a segment directory.
func (r Ref) Filename() string { return fmt.Sprintf("seg-%08d.seg", r.ID) }

// pageMeta is one page's entry in the footer page index.
type pageMeta struct {
	Off       int64  `json:"off"`
	Len       int    `json:"len"`
	Rows      int    `json:"rows"`
	CRC       uint32 `json:"crc"`
	MinEntity string `json:"min_entity"`
	MaxEntity string `json:"max_entity"`
}

// footer is the JSON-encoded segment directory: identity, zone maps,
// bloom filters and the page index. JSON keeps sealed state debuggable
// with standard tools; the hot row bytes stay binary.
type footer struct {
	Format    int        `json:"format"`
	ID        uint64     `json:"id"`
	Rows      int        `json:"rows"`
	FirstRow  int        `json:"first_row"`
	MinEntity string     `json:"min_entity"`
	MaxEntity string     `json:"max_entity"`
	Pages     []pageMeta `json:"pages"`
	Entities  *Bloom     `json:"entity_bloom"`
	Sources   *Bloom     `json:"source_bloom"`
}

// Write seals rows (insertion order, global indices firstRow..firstRow+n-1)
// into an immutable segment file at dir/seg-<id>.seg and returns its Ref.
// Rows are stably re-sorted by entity name so each entity's claims form one
// contiguous run; pages are cut at ~64KiB with per-page CRC32C and entity
// zone entries. The file is written through publish, so an orphan left by
// a crashed earlier seal of the same id is silently replaced.
func Write(dir string, id uint64, firstRow int, rows []model.Row) (Ref, error) {
	if len(rows) == 0 || len(rows) > math.MaxInt32 {
		return Ref{}, fmt.Errorf("segment: refusing to seal %d rows into segment %d", len(rows), id)
	}
	return write(dir, id, firstRow, rows, entityOrder(rows))
}

// entityOrder returns the row positions stably sorted by entity name: each
// entity's positions in insertion order, entities in name order. It groups
// positions by entity and sorts only the distinct names, so an entity with
// k rows costs one name in the comparison sort instead of k. Positions
// rather than row copies keep the transient memory of sealing a large
// corpus small.
func entityOrder(rows []model.Row) []int32 {
	group := make([]int32, len(rows))
	byName := make(map[string]int32)
	var names []string
	var size []int32
	for i, r := range rows {
		g, ok := byName[r.Entity]
		if !ok {
			g = int32(len(names))
			byName[r.Entity] = g
			names = append(names, r.Entity)
			size = append(size, 0)
		}
		group[i] = g
		size[g]++
	}
	sorted := make([]int32, len(names))
	for g := range sorted {
		sorted[g] = int32(g)
	}
	slices.SortFunc(sorted, func(a, b int32) int { return strings.Compare(names[a], names[b]) })
	// next[g] is where group g's next position goes in the output; it
	// starts at the total size of the groups sorted before g.
	next := make([]int32, len(names))
	at := int32(0)
	for _, g := range sorted {
		next[g] = at
		at += size[g]
	}
	order := make([]int32, len(rows))
	for i, g := range group {
		order[next[g]] = int32(i)
		next[g]++
	}
	return order
}

// write is Write with the row order given: order lists every position of
// rows once, sorted by entity name.
func write(dir string, id uint64, firstRow int, rows []model.Row, order []int32) (Ref, error) {
	entity := func(i int) string { return rows[order[i]].Entity }

	ft := footer{
		Format:    formatVersion,
		ID:        id,
		Rows:      len(rows),
		FirstRow:  firstRow,
		MinEntity: entity(0),
		MaxEntity: entity(len(order) - 1),
	}
	// Distinct-key counts size the blooms; entities come from run
	// boundaries of the sorted order, sources need a set.
	entities := 1
	for i := 1; i < len(order); i++ {
		if entity(i) != entity(i-1) {
			entities++
		}
	}
	srcSet := make(map[string]struct{})
	for _, r := range rows {
		srcSet[r.Source] = struct{}{}
	}
	ft.Entities = newBloom(entities)
	ft.Sources = newBloom(len(srcSet))
	for i := range order {
		if i == 0 || entity(i) != entity(i-1) {
			ft.Entities.Add(entity(i))
		}
	}
	for s := range srcSet {
		ft.Sources.Add(s)
	}

	ref := Ref{ID: id, Rows: len(rows), FirstRow: firstRow}
	err := publish(dir, ref.Filename(), func(w *bufio.Writer) error {
		// Pages stream to the file as they fill, so the body is never
		// held in memory whole.
		var page []byte
		var off int64
		pageStart := 0
		prevEntity := ""
		flush := func(endExclusive int) {
			if len(page) == 0 {
				return
			}
			ft.Pages = append(ft.Pages, pageMeta{
				Off:       off,
				Len:       len(page),
				Rows:      endExclusive - pageStart,
				CRC:       crc32.Checksum(page, castagnoli),
				MinEntity: entity(pageStart),
				MaxEntity: entity(endExclusive - 1),
			})
			w.Write(page)
			off += int64(len(page))
			page = page[:0]
			pageStart = endExclusive
			prevEntity = ""
		}
		putString := func(s string) {
			page = binary.AppendUvarint(page, uint64(len(s)))
			page = append(page, s...)
		}
		for i, pos := range order {
			r := rows[pos]
			page = binary.AppendUvarint(page, uint64(pos))
			// A zero entity length means "same entity as the previous row of
			// this page" — legal because empty components are rejected at Add.
			if r.Entity == prevEntity {
				page = binary.AppendUvarint(page, 0)
			} else {
				putString(r.Entity)
				prevEntity = r.Entity
			}
			putString(r.Attribute)
			putString(r.Source)
			if len(page) >= targetPageBytes {
				flush(i + 1)
			}
		}
		flush(len(order))
		ftJSON, err := json.Marshal(ft)
		if err != nil {
			return fmt.Errorf("segment: encoding footer: %w", err)
		}
		ref.CRC = crc32.Checksum(ftJSON, castagnoli)
		ref.Bytes = off + int64(len(ftJSON)) + trailerLen
		var trailer [trailerLen]byte
		binary.LittleEndian.PutUint32(trailer[0:4], uint32(len(ftJSON)))
		binary.LittleEndian.PutUint32(trailer[4:8], ref.CRC)
		copy(trailer[8:], Magic)
		w.Write(ftJSON)
		w.Write(trailer[:])
		return nil
	})
	if err != nil {
		return Ref{}, err
	}
	return ref, nil
}

// Install writes a segment file received from elsewhere (a replication
// primary) into dir under ref's name and verifies it completely with Open,
// so a file that does not match ref is an error, never a served segment.
func Install(dir string, ref Ref, data []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("segment: %w", err)
	}
	if err := publish(dir, ref.Filename(), func(w *bufio.Writer) error {
		w.Write(data)
		return nil
	}); err != nil {
		return err
	}
	s, err := Open(dir, ref)
	if err != nil {
		return err
	}
	return s.Close()
}

// publish writes dir/name through write into a temporary file that is
// fsynced and renamed into place, then fsyncs dir. An orphan left by a
// crashed earlier write of the same name is replaced, never appended to.
// write may ignore w's write errors: they are sticky, and publish reports
// them when it flushes.
func publish(dir, name string, write func(w *bufio.Writer) error) error {
	final := filepath.Join(dir, name)
	tmp := final + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("segment: creating %s: %w", tmp, err)
	}
	bw := bufio.NewWriterSize(f, targetPageBytes)
	err = write(bw)
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, final)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("segment: writing %s: %w", final, err)
	}
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// Segment is an open, fully verified segment. All reads go through the
// (possibly memory-mapped) file image; a Segment is immutable and safe for
// concurrent use. A Segment that is dropped without Close is unmapped by
// the garbage collector once nothing can reach it, so a reader holding a
// segment a later seal replaced keeps a valid mapping for as long as it
// holds it.
type Segment struct {
	ref     Ref
	ft      footer
	data    []byte
	unmap   func() error
	cleanup runtime.Cleanup
}

// Open maps dir/seg-<id>.seg and verifies it completely: trailing magic,
// footer CRC, the Ref cross-check, and the CRC32C of every page. Any
// mismatch — flipped page bytes, a truncated footer, a missing file — is a
// loud error; a Segment that opens serves exactly the rows that were
// sealed, never a partial or silently corrupted view.
func Open(dir string, ref Ref) (*Segment, error) {
	path := filepath.Join(dir, ref.Filename())
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("segment: opening %s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("segment: stat %s: %w", path, err)
	}
	if ref.Bytes != 0 && st.Size() != ref.Bytes {
		f.Close()
		return nil, fmt.Errorf("segment: %s is %d bytes, manifest says %d", path, st.Size(), ref.Bytes)
	}
	data, unmap, err := mapFile(f, st.Size())
	f.Close() // the mapping (or copy) outlives the descriptor
	if err != nil {
		return nil, fmt.Errorf("segment: mapping %s: %w", path, err)
	}
	s := &Segment{ref: ref, data: data, unmap: unmap}
	s.cleanup = runtime.AddCleanup(s, func(unmap func() error) { unmap() }, unmap)
	if err := s.verify(path); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

func (s *Segment) verify(path string) error {
	if len(s.data) < trailerLen {
		return fmt.Errorf("segment: %s truncated: %d bytes", path, len(s.data))
	}
	tr := s.data[len(s.data)-trailerLen:]
	if string(tr[8:]) != Magic {
		return fmt.Errorf("segment: %s has bad magic %q", path, tr[8:])
	}
	ftLen := int(binary.LittleEndian.Uint32(tr[0:4]))
	ftCRC := binary.LittleEndian.Uint32(tr[4:8])
	if ftLen <= 0 || ftLen > len(s.data)-trailerLen {
		return fmt.Errorf("segment: %s footer length %d out of bounds", path, ftLen)
	}
	ftStart := len(s.data) - trailerLen - ftLen
	ftJSON := s.data[ftStart : ftStart+ftLen]
	if got := crc32.Checksum(ftJSON, castagnoli); got != ftCRC {
		return fmt.Errorf("segment: %s footer CRC mismatch: got %08x want %08x", path, got, ftCRC)
	}
	if err := json.Unmarshal(ftJSON, &s.ft); err != nil {
		return fmt.Errorf("segment: %s footer does not parse: %w", path, err)
	}
	if s.ft.Format != formatVersion {
		return fmt.Errorf("segment: %s has format %d, want %d", path, s.ft.Format, formatVersion)
	}
	if s.ref.CRC != 0 && ftCRC != s.ref.CRC {
		return fmt.Errorf("segment: %s footer CRC %08x does not match manifest %08x", path, ftCRC, s.ref.CRC)
	}
	if s.ft.ID != s.ref.ID || s.ft.Rows != s.ref.Rows || s.ft.FirstRow != s.ref.FirstRow {
		return fmt.Errorf("segment: %s identity (id=%d rows=%d first=%d) does not match manifest (id=%d rows=%d first=%d)",
			path, s.ft.ID, s.ft.Rows, s.ft.FirstRow, s.ref.ID, s.ref.Rows, s.ref.FirstRow)
	}
	if s.ft.Entities == nil || s.ft.Sources == nil || !s.ft.Entities.valid() || !s.ft.Sources.valid() {
		return fmt.Errorf("segment: %s has a malformed bloom filter", path)
	}
	rows := 0
	for i, p := range s.ft.Pages {
		// Len <= ftStart-Off cannot overflow where Off+Len can. Every row
		// encodes to at least one byte, so Rows <= Len bounds the row count
		// (and any buffer sized from it) by the file size.
		if p.Off < 0 || p.Off > int64(ftStart) || p.Len <= 0 || int64(p.Len) > int64(ftStart)-p.Off {
			return fmt.Errorf("segment: %s page %d extent [%d,+%d) out of bounds", path, i, p.Off, p.Len)
		}
		if p.Rows < 1 || p.Rows > p.Len {
			return fmt.Errorf("segment: %s page %d claims %d rows in %d bytes", path, i, p.Rows, p.Len)
		}
		if got := crc32.Checksum(s.data[p.Off:p.Off+int64(p.Len)], castagnoli); got != p.CRC {
			return fmt.Errorf("segment: %s page %d CRC mismatch: got %08x want %08x", path, i, got, p.CRC)
		}
		rows += p.Rows
	}
	if rows != s.ft.Rows {
		return fmt.Errorf("segment: %s page index covers %d rows, footer says %d", path, rows, s.ft.Rows)
	}
	return nil
}

// Close releases the file mapping now instead of when the segment becomes
// unreachable. The caller must ensure no reader still uses the segment.
func (s *Segment) Close() error {
	if s.unmap == nil {
		return nil
	}
	s.cleanup.Stop()
	u := s.unmap
	s.unmap = nil
	s.data = nil
	return u()
}

// Pages returns the number of pages in the segment.
func (s *Segment) Pages() int { return len(s.ft.Pages) }

// MayContainEntity reports whether the segment can hold rows of the named
// entity: the segment zone map prunes by name range, the bloom by
// membership. False is definitive.
func (s *Segment) MayContainEntity(name string) bool {
	if name < s.ft.MinEntity || name > s.ft.MaxEntity {
		return false
	}
	return s.ft.Entities.MayContain(name)
}

// MayContainSource reports whether the segment can hold rows by the named
// source. False is definitive.
func (s *Segment) MayContainSource(name string) bool {
	return s.ft.Sources.MayContain(name)
}

// OverlapsEntityRange reports whether the segment's entity zone map
// intersects [lo, hi]; an empty hi means unbounded above.
func (s *Segment) OverlapsEntityRange(lo, hi string) bool {
	if hi != "" && s.ft.MinEntity > hi {
		return false
	}
	return s.ft.MaxEntity >= lo
}

// decodePage decodes one page, calling fn for every row with its global
// index, which is guaranteed to lie in [FirstRow, FirstRow+Rows). Decode
// errors are reported, not panicked: CRC verification at open makes them
// unreachable short of a writer bug, but a reader must never trust length
// prefixes or indexes unchecked. Callers keep s alive until it returns
// (runtime.KeepAlive), because buf points into the mapping.
func (s *Segment) decodePage(p pageMeta, fn func(global int, r model.Row)) error {
	buf := s.data[p.Off : p.Off+int64(p.Len)]
	entity := ""
	readString := func() (string, error) {
		n, w := binary.Uvarint(buf)
		if w <= 0 || uint64(len(buf)-w) < n {
			return "", fmt.Errorf("segment: %d: corrupt string header in page", s.ref.ID)
		}
		str := string(buf[w : w+int(n)])
		buf = buf[w+int(n):]
		return str, nil
	}
	for i := 0; i < p.Rows; i++ {
		delta, w := binary.Uvarint(buf)
		if w <= 0 || delta >= uint64(s.ft.Rows) {
			return fmt.Errorf("segment: %d: corrupt row index in page", s.ref.ID)
		}
		buf = buf[w:]
		e, err := readString()
		if err != nil {
			return err
		}
		if e != "" {
			entity = e
		}
		a, err := readString()
		if err != nil {
			return err
		}
		src, err := readString()
		if err != nil {
			return err
		}
		if entity == "" || a == "" || src == "" {
			return fmt.Errorf("segment: %d: row with an empty component in page", s.ref.ID)
		}
		fn(s.ft.FirstRow+int(delta), model.Row{Entity: entity, Attribute: a, Source: src})
	}
	return nil
}

// ScanEntities streams every row whose entity is in the probe set,
// skipping pages whose zone entry excludes all probes. It returns the
// number of pages actually decoded (the skipping telemetry the backend
// aggregates).
func (s *Segment) ScanEntities(probe map[string]struct{}, fn func(model.Row)) (int, error) {
	decoded := 0
	for _, p := range s.ft.Pages {
		hit := false
		for e := range probe {
			if e >= p.MinEntity && e <= p.MaxEntity {
				hit = true
				break
			}
		}
		if !hit {
			continue
		}
		decoded++
		if err := s.decodePage(p, func(_ int, r model.Row) {
			if _, ok := probe[r.Entity]; ok {
				fn(r)
			}
		}); err != nil {
			return decoded, err
		}
	}
	runtime.KeepAlive(s)
	return decoded, nil
}

// ScanEntityRange streams every row whose entity name falls in [lo, hi]
// (empty hi = unbounded), skipping pages outside the range. Returns pages
// decoded.
func (s *Segment) ScanEntityRange(lo, hi string, fn func(model.Row)) (int, error) {
	decoded := 0
	for _, p := range s.ft.Pages {
		if (hi != "" && p.MinEntity > hi) || p.MaxEntity < lo {
			continue
		}
		decoded++
		if err := s.decodePage(p, func(_ int, r model.Row) {
			if r.Entity >= lo && (hi == "" || r.Entity <= hi) {
				fn(r)
			}
		}); err != nil {
			return decoded, err
		}
	}
	runtime.KeepAlive(s)
	return decoded, nil
}

// ScanSource streams every row asserted by the named source. Pages carry
// no per-source zone entries (sources are scattered across entity runs),
// so a source scan that survives the segment bloom decodes all pages.
func (s *Segment) ScanSource(name string, fn func(model.Row)) (int, error) {
	decoded := 0
	for _, p := range s.ft.Pages {
		decoded++
		if err := s.decodePage(p, func(_ int, r model.Row) {
			if r.Source == name {
				fn(r)
			}
		}); err != nil {
			return decoded, err
		}
	}
	runtime.KeepAlive(s)
	return decoded, nil
}

// ReadRows decodes the whole segment, placing each row at its global
// insertion index in dst. dst must cover [FirstRow, FirstRow+Rows); this
// is the recovery path that reconstructs exact RawDB order from
// entity-sorted storage. Every slot of that range is filled exactly once,
// or ReadRows returns an error.
func (s *Segment) ReadRows(dst []model.Row) error {
	first, n := s.ft.FirstRow, s.ft.Rows
	if first < 0 || first > len(dst) || n > len(dst)-first {
		return fmt.Errorf("segment: %d: rows [%d,+%d) do not fit a %d-row destination", s.ref.ID, first, n, len(dst))
	}
	defer runtime.KeepAlive(s)
	seen := make([]bool, n)
	for _, p := range s.ft.Pages {
		dup := -1
		if err := s.decodePage(p, func(global int, r model.Row) {
			if seen[global-first] {
				dup = global
			}
			seen[global-first] = true
			dst[global] = r
		}); err != nil {
			return err
		}
		if dup >= 0 {
			return fmt.Errorf("segment: %d: row %d stored twice", s.ref.ID, dup)
		}
	}
	// Open checked that the pages hold Rows rows in total, so with no
	// slot written twice every slot was written once.
	return nil
}
