// Package wal gives the truth-serving daemon durable state: a segmented,
// CRC32C-framed write-ahead log for ingested claim batches, a checkpoint
// store that persists each published snapshot's inputs (cumulative triples,
// accumulated source quality, and a manifest tying them to a log position),
// and a recovery planner that reconstructs the daemon's exact pre-crash
// state by loading the newest readable checkpoint and replaying the log
// tail behind it.
//
// The log is the standard append-heavy recipe: batches are framed as
// (length, CRC32C, payload) records with monotonically increasing sequence
// numbers, written into fixed-size segment files named by the sequence
// number of their first record. Appends are durable before the caller is
// acknowledged under the configured fsync policy (SyncAlways fsyncs every
// record, SyncInterval at most once per interval, SyncNever leaves
// durability to the OS page cache — which still survives a SIGKILL, only
// power loss can lose acknowledged-but-unsynced records). On open, a torn
// final record (a crash mid-write) or a CRC mismatch truncates the log to
// its last valid prefix; everything before the cut is recovered intact.
//
// Checkpoints make recovery O(tail) instead of O(history): each one is a
// directory written to a temporary name, fsynced, and atomically renamed,
// holding the source quality CSV (dataset.WriteQuality), the posterior,
// and MANIFEST.json recording the snapshot sequence, the log position the
// checkpoint covers, the claim segments (internal/segment, in SegmentDir)
// covering the corpus, per-file CRCs, a configuration hash, and the
// serving layer's opaque policy state. Older checkpoints that hold the
// corpus as a triples CSV are still read. Log segments wholly covered by
// every retained checkpoint are deleted.
//
// The package has no model-specific logic; internal/serve composes it into
// the daemon (write-ahead ingest, checkpoint-on-refit, recover-on-boot).
package wal
