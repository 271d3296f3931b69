// Package store provides database-style operations over built datasets:
// entity subsampling (Table 9's 3k–15k scaling study), conflicting-record
// filtering (how the paper constructs the movie corpus, §6.1.1), dataset
// merging for streaming arrivals (§5.4), entity-range splitting
// (SplitEntities — the batch construction of the streaming mode and the
// partitioner behind internal/shard's entity-sharded inference), and
// summary statistics mirroring the corpus tables of §6.1.1. All
// operations are pure: they return new datasets and never mutate their
// inputs.
//
// The package also defines the claim-storage API behind the serving
// layer: the Backend interface (an append-only raw-claim store with a
// lock-free point-in-time Reader for scoped scans) and its implementation
// SegmentBacked. It keeps rows on the heap and, when durable, mirrors them
// into immutable on-disk segments (package internal/segment) sealed
// incrementally at checkpoint time — the one on-disk corpus format. The
// storage kind only picks what readers scan: the segments kind scans the
// sealed segments with zone-map and bloom data skipping, the memory kind
// scans the heap rows. Identical AddRow order yields identical Rows()
// order under either kind, so every dataset id and truth decision is
// independent of the storage kind.
package store
