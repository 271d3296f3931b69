// Package segment implements the immutable on-disk claim segment format:
// the one format a durable server keeps its corpus in (store.SegmentBacked
// seals it at every checkpoint).
//
// A segment holds a contiguous global-index range of raw triples, re-sorted
// by entity name into pages of entity runs. Each page carries a CRC32C
// checksum and an entity-name min/max zone entry; the footer carries the
// segment-level zone map plus bloom filters over entity and source names.
// Readers consult the footer before touching row bytes, so an entity- or
// source-scoped scan skips whole segments (and, within a segment, whole
// pages) whose metadata proves the probe cannot match — the
// provenance-based data-skipping design of arXiv:2104.12815 applied to the
// claim corpus.
//
// Segments are sealed once and never modified. Every row records its global
// insertion index, so the exact RawDB insertion order — and therefore every
// derived dataset id — is reconstructible from any set of segments covering
// a prefix of the corpus. Corruption anywhere (page bytes, footer, missing
// file) fails loudly at open: a segment either verifies completely or is
// not served at all.
package segment
