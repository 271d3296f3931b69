// Package serve implements the always-on truth-serving layer: a long-lived
// HTTP/JSON daemon that ingests (entity, attribute, source) triples while
// they arrive, periodically refits the Latent Truth Model in the background
// (full engine refit — optionally entity-sharded across cores via
// internal/shard — or the §5.4 online and dirty-entity fast paths, policy
// configurable), and answers truth, quality and stats queries from an
// immutable fitted Snapshot swapped in with an atomic pointer — readers are
// never blocked by a refit and never observe a half-updated model.
//
// The daemon is the production embodiment of the paper's streaming story:
// RefitFull re-anchors on cumulative data (§5.4's periodic retrain),
// RefitOnline learns quality from each arrived batch and serves Equation
// 3's closed form over the cumulative data, and RefitDirty re-sweeps only
// the entities a batch touched. The truth tables served are Definition 4's
// integrated output (Table 4); quality responses follow Table 8's
// presentation order.
//
// With Config.Durability set, the server is crash-safe (internal/wal):
// every accepted batch is written ahead to a segmented, CRC-framed log
// before the HTTP acknowledgment, every published snapshot checkpoints its
// inputs (the corpus, sealed into immutable segments, accumulated
// quality, refit-policy state and counters), and startup recovers by loading the newest readable
// checkpoint and replaying the log tail — reconstructing model state
// bit-identical to an uninterrupted run, with torn or corrupt log tails
// detected by CRC and cleanly discarded.
//
// A durable server is also a replication primary: it streams its newest
// checkpoint (GET /replication/checkpoint) and its log
// (GET /replication/wal, long-poll, the WAL's own record framing) to read
// replicas, writes a refit-marker control record at every refit's drain
// cut so followers replay the primary's exact refit schedule, and never
// truncates the log past the slowest live follower (truncation is a
// minimum over the checkpoint bound and per-follower cursors, with
// TTL/max-lag eviction). Config.FollowerOf selects the other side: a
// read-only follower whose batches and refits arrive via ApplyReplicated
// (see internal/replica for the client that drives it).
package serve
