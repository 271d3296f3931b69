// Package query is the streaming query engine over immutable serving
// snapshots: composable lazy iterators that answer filtered, paginated,
// top-k and aggregated reads of the truth table (Definition 4) without
// materializing intermediate row slices.
//
// The design follows the Volcano-to-lazy-sequences discipline: a query
// compiles into a pull pipeline of fact-id iterators, predicates are
// evaluated inside the scan (never on materialized rows), and the most
// selective access path available is chosen first — a (entity, attribute)
// name pair resolves to a single fact through the snapshot's entity index
// plus a scan of that entity's few attributes, an entity filter walks only
// that entity's fact list, a source filter walks the source's claim
// postings, and only a fully unconstrained query scans the fact table.
// Rows are materialized one at a time at the sink (an HTTP encoder, a
// bounded top-k heap, or a streaming aggregator), so memory stays O(page)
// — or O(k), or O(groups) — regardless of corpus size.
//
// Pagination cursors are opaque tokens binding the snapshot's refit
// sequence number to the next fact id. Fact ids are stable within one
// snapshot (every iterator yields them in increasing order), so a cursor
// resumes exactly on the snapshot that minted it; presented to a later
// snapshot it fails with ErrStaleCursor, the restart signal, because a
// refit may renumber facts.
package query
