package store

import (
	"fmt"
	"sync"
	"sync/atomic"

	"latenttruth/internal/model"
	"latenttruth/internal/segment"
)

// Storage kind names, as configured (serve.Config.Storage, -storage flag)
// and as reported by StorageStats.Kind.
const (
	StorageMemory   = "memory"
	StorageSegments = "segments"
)

// Backend is the storage API the serving layer programs against: an
// append-only raw-claim store with an insertion-order view (the substrate
// every dataset build derives ids from) and a lock-free point-in-time
// Reader for scoped scans. SegmentBacked is the implementation.
//
// Backends make a bit-identity promise: AddRow in the same order yields
// the same Rows() sequence regardless of kind, so datasets — and every
// truth decision derived from them — are identical across storage kinds.
type Backend interface {
	// AddRow appends the triple if it is not already present and reports
	// whether it was inserted.
	AddRow(model.Row) bool
	// Len returns the number of distinct rows.
	Len() int
	// Rows returns all rows in insertion order; the slice is shared and
	// must not be modified.
	Rows() []model.Row
	// Reader returns an immutable point-in-time view. It never blocks on
	// writers and is safe to use while AddRow and Seal proceed.
	Reader() Reader
	// Stats reports storage-shape counters. It is lock-free and safe to
	// call from metrics scrapes at any time.
	Stats() StorageStats
}

// Reader is an immutable snapshot of a backend's rows supporting the
// scoped scans refits and claim queries need. Scans pass over each
// matching row exactly once, in an unspecified order.
type Reader interface {
	// Len returns the snapshot's row count.
	Len() int
	// Rows returns the snapshot's rows in insertion order.
	Rows() []model.Row
	// ScanEntities streams rows whose entity is in probe.
	ScanEntities(probe map[string]struct{}, fn func(model.Row)) error
	// ScanEntityRange streams rows with lo <= entity <= hi (empty hi =
	// unbounded above).
	ScanEntityRange(lo, hi string, fn func(model.Row)) error
	// ScanSource streams rows asserted by the named source.
	ScanSource(name string, fn func(model.Row)) error
}

// StorageStats reports a backend's shape and skipping telemetry, split by
// residency: Resident counts heap rows, OnDisk counts rows covered by
// sealed segments (zero for a memory-only backend) — the counts are
// deliberately not conflated. The skipping counters move only on the
// segments kind, whose readers scan the sealed segments.
type StorageStats struct {
	Kind         string `json:"kind"`
	Resident     int    `json:"resident_rows"`
	OnDisk       int    `json:"disk_rows"`
	Segments     int    `json:"segments"`
	SegmentBytes int64  `json:"segment_bytes"`
	// SegmentsScanned counts scan legs that had to open a segment;
	// SegmentsSkipped counts legs pruned by zone map or bloom without any
	// I/O; PagesScanned counts pages decoded inside scanned segments.
	SegmentsScanned uint64 `json:"segments_scanned"`
	SegmentsSkipped uint64 `json:"segments_skipped"`
	PagesScanned    uint64 `json:"pages_scanned"`
}

// rowsView is the immutable header a backend publishes for lock-free
// readers: a rows slice whose backing array is never mutated below n.
// segs is nil unless the backend is of the segments kind; it then holds
// the segments covering rows[:sealed], and keeps them mapped for as long
// as the view is reachable.
type rowsView struct {
	rows   []model.Row
	segs   []*segment.Segment
	sealed int // rows[:sealed] are covered by segs
	stats  *scanStats
}

// scanStats aggregates skipping telemetry across all readers of a backend.
type scanStats struct {
	scanned atomic.Uint64
	skipped atomic.Uint64
	pages   atomic.Uint64
}

// SegmentBacked is the claim store: rows live on the heap for dataset
// builds (the model is heap-resident regardless), and a durable backend
// also mirrors them into immutable on-disk segments at checkpoint time —
// the one on-disk corpus format. The storage kind decides only what
// readers scan: StorageSegments readers consult the sealed segments' zone
// maps and blooms to skip whole segments and pages, StorageMemory readers
// scan the heap rows linearly, so that kind keeps only the refs of the
// segments it seals and closes each one once it is verified. A
// memory-only backend (no directory) never seals.
type SegmentBacked struct {
	mu   sync.Mutex
	db   *model.RawDB
	dir  string // "" for a memory-only backend
	kind string

	segs []*segment.Segment
	refs []segment.Ref

	view atomic.Pointer[rowsView]

	sealedRows atomic.Int64
	segCount   atomic.Int64
	segBytes   atomic.Int64
	stats      *scanStats
}

// NewMemory returns an empty memory-only backend.
func NewMemory() *SegmentBacked { return NewMemoryFrom(model.NewRawDB()) }

// NewMemoryFrom wraps an already-populated RawDB in a memory-only backend.
func NewMemoryFrom(db *model.RawDB) *SegmentBacked {
	b, _ := Open(StorageMemory, "", nil, db) // cannot fail without refs
	return b
}

// NewSegmentBacked returns an empty segments-kind backend writing to dir
// (the directory must exist).
func NewSegmentBacked(dir string) *SegmentBacked {
	b, _ := Open(StorageSegments, dir, nil, model.NewRawDB()) // cannot fail without refs
	return b
}

// OpenSegmentBacked is Open for the segments kind.
func OpenSegmentBacked(dir string, refs []segment.Ref, db *model.RawDB) (*SegmentBacked, error) {
	return Open(StorageSegments, dir, refs, db)
}

// Open adopts the refs recorded in a checkpoint manifest for a backend of
// the given kind sealing into dir: db holds the fully recovered row set
// (segment rows plus any replayed tail) and refs the sealed coverage.
// Every segment is opened and verified — CRC mismatches, truncation, or a
// missing file fail here, before the backend serves anything.
func Open(kind, dir string, refs []segment.Ref, db *model.RawDB) (*SegmentBacked, error) {
	if kind != StorageMemory && kind != StorageSegments {
		return nil, fmt.Errorf("store: unknown storage kind %q", kind)
	}
	b := &SegmentBacked{db: db, dir: dir, kind: kind, stats: &scanStats{}}
	covered := 0
	for _, ref := range refs {
		if ref.FirstRow != covered {
			return nil, fmt.Errorf("store: segment %d starts at row %d, want %d (coverage gap)", ref.ID, ref.FirstRow, covered)
		}
		s, err := segment.Open(dir, ref)
		if err != nil {
			return nil, err
		}
		if kind == StorageSegments {
			b.segs = append(b.segs, s)
		} else {
			s.Close() // no memory-kind reader can reach it
		}
		b.refs = append(b.refs, ref)
		covered += ref.Rows
	}
	if covered > db.Len() {
		return nil, fmt.Errorf("store: segments cover %d rows but only %d recovered", covered, db.Len())
	}
	b.adopt(covered)
	return b, nil
}

// adopt publishes b.segs and b.refs as the sealed coverage of the first
// covered rows; callers hold b.mu (or own the backend exclusively).
func (b *SegmentBacked) adopt(covered int) {
	var bytes int64
	for _, r := range b.refs {
		bytes += r.Bytes
	}
	b.sealedRows.Store(int64(covered))
	b.segCount.Store(int64(len(b.refs)))
	b.segBytes.Store(bytes)
	b.publish()
}

// publish refreshes the lock-free reader view; callers hold b.mu (or own
// the backend exclusively during construction). Only a segments-kind view
// carries the segments: a memory-kind reader scans every row from the
// heap, so it must not skip the sealed prefix.
func (b *SegmentBacked) publish() {
	v := &rowsView{rows: b.db.Rows(), stats: b.stats}
	if b.kind == StorageSegments {
		v.segs, v.sealed = b.segs, int(b.sealedRows.Load())
	}
	b.view.Store(v)
}

func (b *SegmentBacked) AddRow(r model.Row) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.db.AddRow(r) {
		return false
	}
	b.publish()
	return true
}

func (b *SegmentBacked) Len() int          { return len(b.view.Load().rows) }
func (b *SegmentBacked) Rows() []model.Row { return b.view.Load().rows }
func (b *SegmentBacked) Reader() Reader    { return b.view.Load() }

func (b *SegmentBacked) Stats() StorageStats {
	return StorageStats{
		Kind:            b.kind,
		Resident:        len(b.view.Load().rows),
		OnDisk:          int(b.sealedRows.Load()),
		Segments:        int(b.segCount.Load()),
		SegmentBytes:    b.segBytes.Load(),
		SegmentsScanned: b.stats.scanned.Load(),
		SegmentsSkipped: b.stats.skipped.Load(),
		PagesScanned:    b.stats.pages.Load(),
	}
}

// Seal freezes every row appended since the previous seal into one new
// immutable segment with the given id and returns the full ref list for
// the checkpoint manifest. A no-op (with the existing refs) when no rows
// arrived since the last seal. Ids must be unique per live segment; a
// leftover file from a crashed earlier seal of the same id is replaced.
//
// To bound the live segment count, the new segment absorbs the trailing
// run of segments starting at the first one that holds no more rows than
// everything after it (the new rows included), rewriting that run from
// the heap rows. Each live segment then holds more rows than all later
// ones together, so there are at most ⌈log₂(rows+1)⌉; a merge rewrites
// every merged row under the lock (BenchmarkSealFullMerge). A replaced
// segment stays mapped while a published reader may scan it, and its file
// until segment.Clean finds no retained checkpoint listing it.
func (b *SegmentBacked) Seal(id uint64) ([]segment.Ref, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.dir == "" {
		return nil, fmt.Errorf("store: a memory-only backend cannot seal")
	}
	sealed := int(b.sealedRows.Load())
	rows := b.db.Rows()
	if sealed == len(rows) {
		return append([]segment.Ref(nil), b.refs...), nil
	}
	keep := len(b.refs)
	after := len(rows) - sealed
	for i := len(b.refs) - 1; i >= 0; i-- {
		if b.refs[i].Rows <= after {
			keep = i
		}
		after += b.refs[i].Rows
	}
	first := sealed
	if keep < len(b.refs) {
		first = b.refs[keep].FirstRow
	}
	ref, err := segment.Write(b.dir, id, first, rows[first:])
	if err != nil {
		return nil, err
	}
	s, err := segment.Open(b.dir, ref)
	if err != nil {
		return nil, fmt.Errorf("store: reopening just-sealed segment: %w", err)
	}
	if b.kind == StorageSegments {
		b.segs = append(b.segs[:keep:keep], s) // a fresh array: published views keep theirs
	} else {
		s.Close() // no memory-kind reader can reach it
	}
	b.refs = append(b.refs[:keep:keep], ref)
	b.adopt(len(rows))
	return append([]segment.Ref(nil), b.refs...), nil
}

// Close releases all open segment mappings. No reader taken from the
// backend may be used afterwards.
func (b *SegmentBacked) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	var first error
	for _, s := range b.segs {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	b.segs = nil
	return first
}

// ---- rowsView: the Reader implementation ----

func (v *rowsView) Len() int          { return len(v.rows) }
func (v *rowsView) Rows() []model.Row { return v.rows }

// ScanEntities streams rows of the probe entities: the sealed prefix via
// segments (skipping those whose zone map or bloom excludes every probe),
// the unsealed tail linearly from the heap.
func (v *rowsView) ScanEntities(probe map[string]struct{}, fn func(model.Row)) error {
	for _, s := range v.segs {
		hit := false
		for e := range probe {
			if s.MayContainEntity(e) {
				hit = true
				break
			}
		}
		if !hit {
			v.stats.skipped.Add(1)
			continue
		}
		v.stats.scanned.Add(1)
		pages, err := s.ScanEntities(probe, fn)
		v.stats.pages.Add(uint64(pages))
		if err != nil {
			return err
		}
	}
	for _, r := range v.rows[v.sealed:] {
		if _, ok := probe[r.Entity]; ok {
			fn(r)
		}
	}
	return nil
}

// ScanEntityRange streams rows with entity names in [lo, hi], skipping
// segments whose zone map lies outside the range.
func (v *rowsView) ScanEntityRange(lo, hi string, fn func(model.Row)) error {
	for _, s := range v.segs {
		if !s.OverlapsEntityRange(lo, hi) {
			v.stats.skipped.Add(1)
			continue
		}
		v.stats.scanned.Add(1)
		pages, err := s.ScanEntityRange(lo, hi, fn)
		v.stats.pages.Add(uint64(pages))
		if err != nil {
			return err
		}
	}
	for _, r := range v.rows[v.sealed:] {
		if r.Entity >= lo && (hi == "" || r.Entity <= hi) {
			fn(r)
		}
	}
	return nil
}

// ScanSource streams rows by the named source, skipping segments whose
// source bloom excludes it.
func (v *rowsView) ScanSource(name string, fn func(model.Row)) error {
	for _, s := range v.segs {
		if !s.MayContainSource(name) {
			v.stats.skipped.Add(1)
			continue
		}
		v.stats.scanned.Add(1)
		pages, err := s.ScanSource(name, fn)
		v.stats.pages.Add(uint64(pages))
		if err != nil {
			return err
		}
	}
	for _, r := range v.rows[v.sealed:] {
		if r.Source == name {
			fn(r)
		}
	}
	return nil
}
