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
// Reader for scoped scans. Two implementations exist: Memory (the original
// heap-resident RawDB path) and SegmentBacked (heap rows plus an
// incrementally sealed on-disk segment copy with data-skipping metadata).
//
// Backends make a bit-identity promise: AddRow in the same order yields
// the same Rows() sequence regardless of kind, so datasets — and every
// truth decision derived from them — are identical across backends.
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
// sealed segments (for Memory the latter is always zero — the counts are
// deliberately not conflated).
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

// Memory is the heap-resident backend: the RawDB path the server always
// had, behind the Backend interface. Scans are linear over the row array.
type Memory struct {
	mu   sync.Mutex
	db   *model.RawDB
	view atomic.Pointer[rowsView]
}

// NewMemory returns an empty heap-resident backend.
func NewMemory() *Memory {
	m := &Memory{db: model.NewRawDB()}
	m.view.Store(&rowsView{stats: &scanStats{}})
	return m
}

// NewMemoryFrom wraps an already-populated RawDB (the recovery path).
func NewMemoryFrom(db *model.RawDB) *Memory {
	m := &Memory{db: db}
	m.view.Store(&rowsView{rows: db.Rows(), stats: &scanStats{}})
	return m
}

func (m *Memory) AddRow(r model.Row) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.db.AddRow(r) {
		return false
	}
	m.view.Store(&rowsView{rows: m.db.Rows(), stats: m.view.Load().stats})
	return true
}

func (m *Memory) Len() int          { return len(m.view.Load().rows) }
func (m *Memory) Rows() []model.Row { return m.view.Load().rows }
func (m *Memory) Reader() Reader    { return m.view.Load() }

func (m *Memory) Stats() StorageStats {
	return StorageStats{Kind: StorageMemory, Resident: len(m.view.Load().rows)}
}

// SegmentBacked keeps rows on the heap for dataset builds (the model is
// heap-resident regardless) and mirrors them into immutable on-disk
// segments sealed incrementally at checkpoint time. Sealed rows never
// rewrite: each Seal covers only the tail appended since the previous
// one, so checkpoint cost is O(new rows), and recovery reopens segments
// instead of re-parsing CSV history. Scoped scans consult zone maps and
// blooms to skip whole segments and pages.
type SegmentBacked struct {
	mu  sync.Mutex
	db  *model.RawDB
	dir string

	segs  []*segment.Segment
	refs  []segment.Ref
	bytes int64

	view atomic.Pointer[rowsView]

	sealedRows atomic.Int64
	segCount   atomic.Int64
	segBytes   atomic.Int64
	stats      *scanStats
}

// NewSegmentBacked returns an empty segment backend writing to dir (the
// directory must exist).
func NewSegmentBacked(dir string) *SegmentBacked {
	b := &SegmentBacked{db: model.NewRawDB(), dir: dir, stats: &scanStats{}}
	b.publish()
	return b
}

// OpenSegmentBacked adopts the refs recorded in a checkpoint manifest:
// db holds the fully recovered row set (segment rows plus any replayed
// tail) and refs the sealed coverage. Every segment is opened and
// verified — CRC mismatches, truncation, or a missing file fail here,
// before the backend serves anything.
func OpenSegmentBacked(dir string, refs []segment.Ref, db *model.RawDB) (*SegmentBacked, error) {
	b := &SegmentBacked{db: db, dir: dir, stats: &scanStats{}}
	covered := 0
	for _, ref := range refs {
		if ref.FirstRow != covered {
			return nil, fmt.Errorf("store: segment %d starts at row %d, want %d (coverage gap)", ref.ID, ref.FirstRow, covered)
		}
		s, err := segment.Open(dir, ref)
		if err != nil {
			return nil, err
		}
		b.segs = append(b.segs, s)
		b.refs = append(b.refs, ref)
		b.bytes += ref.Bytes
		covered += ref.Rows
	}
	if covered > db.Len() {
		return nil, fmt.Errorf("store: segments cover %d rows but only %d recovered", covered, db.Len())
	}
	b.sealedRows.Store(int64(covered))
	b.segCount.Store(int64(len(refs)))
	b.segBytes.Store(b.bytes)
	b.publish()
	return b, nil
}

// publish refreshes the lock-free reader view; callers hold b.mu (or own
// the backend exclusively during construction).
func (b *SegmentBacked) publish() {
	b.view.Store(&rowsView{
		rows:   b.db.Rows(),
		segs:   b.segs,
		sealed: int(b.sealedRows.Load()),
		stats:  b.stats,
	})
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
	onDisk := int(b.sealedRows.Load())
	return StorageStats{
		Kind:            StorageSegments,
		Resident:        len(b.view.Load().rows),
		OnDisk:          onDisk,
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
func (b *SegmentBacked) Seal(id uint64) ([]segment.Ref, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	sealed := int(b.sealedRows.Load())
	rows := b.db.Rows()
	if sealed == len(rows) {
		return append([]segment.Ref(nil), b.refs...), nil
	}
	ref, err := segment.Write(b.dir, id, sealed, rows[sealed:])
	if err != nil {
		return nil, err
	}
	s, err := segment.Open(b.dir, ref)
	if err != nil {
		return nil, fmt.Errorf("store: reopening just-sealed segment: %w", err)
	}
	// Copy-on-append so published reader views keep their shorter slices.
	b.segs = append(append([]*segment.Segment(nil), b.segs...), s)
	b.refs = append(append([]segment.Ref(nil), b.refs...), ref)
	b.bytes += ref.Bytes
	b.sealedRows.Store(int64(len(rows)))
	b.segCount.Store(int64(len(b.segs)))
	b.segBytes.Store(b.bytes)
	b.publish()
	return append([]segment.Ref(nil), b.refs...), nil
}

// Refs returns the current sealed-segment references.
func (b *SegmentBacked) Refs() []segment.Ref {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]segment.Ref(nil), b.refs...)
}

// Close releases all open segment mappings.
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

// ---- rowsView: the Reader implementation shared by both backends ----

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
