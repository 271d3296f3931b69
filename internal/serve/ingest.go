package serve

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"latenttruth/internal/model"
	"latenttruth/internal/wal"
)

// ingestLog is the server's mutation log: arriving triples are appended
// here by request handlers and drained by the refit loop, which compacts
// them into the next snapshot's cumulative dataset. When the server is
// durable, the append is write-ahead: the batch is framed into the WAL —
// and on disk, per the configured fsync policy — before it becomes visible
// in memory, so a batch is never acknowledged that a restart would lose.
type ingestLog struct {
	mu      sync.Mutex
	pending []model.Row
	// log, when non-nil, receives every batch before it is accepted.
	log *wal.Log
	// lastSeq is the WAL sequence number of the newest accepted batch
	// (0 when not durable or nothing accepted yet).
	lastSeq uint64
	// total counts rows accepted over the server's lifetime (restored
	// across restarts from the checkpoint manifest plus the replayed tail).
	total int64
	// dirty is the set of entities touched by pending rows — the §5.4
	// dirty-entity watermark the next refit's fast path re-sweeps. It is
	// tracked on every accept path (primary, replicated, replay) so a
	// follower or recovered process derives the same set the primary did.
	dirty map[string]struct{}
	// oldest is the arrival time of the oldest pending row (zero when
	// nothing is pending); snapshot freshness is measured from it.
	oldest time.Time
	// notify, when non-nil, is invoked after every accepted append so
	// replication long-polls wake without polling delay.
	notify func()
}

// markDirty records rows' entities in the dirty set and stamps the
// oldest-pending clock. Called under mu on every accept path.
func (l *ingestLog) markDirty(rows []model.Row) {
	if len(rows) == 0 {
		return
	}
	if l.dirty == nil {
		l.dirty = make(map[string]struct{})
	}
	for _, r := range rows {
		l.dirty[r.Entity] = struct{}{}
	}
	if l.oldest.IsZero() {
		l.oldest = time.Now()
	}
}

// ValidateRow rejects triples that the serving data model cannot
// represent: empty components, and carriage returns or newlines. Triples
// CSV is still the preload, export and legacy-checkpoint format, and Go's
// CSV reader normalizes \r\n inside quoted fields, so a line break would
// not survive a round trip through it bit-exactly. It is exported so a cluster
// router can pre-validate a batch before splitting it across partitions —
// rejecting the whole batch up front preserves the all-or-nothing ingest
// contract across a fan-out.
func ValidateRow(r model.Row) error {
	if r.Entity == "" || r.Attribute == "" || r.Source == "" {
		return fmt.Errorf("serve: claim (%q, %q, %q) has an empty component",
			r.Entity, r.Attribute, r.Source)
	}
	for _, s := range [3]string{r.Entity, r.Attribute, r.Source} {
		if strings.ContainsAny(s, "\r\n") {
			return fmt.Errorf("serve: claim (%q, %q, %q) contains a line break",
				r.Entity, r.Attribute, r.Source)
		}
	}
	return nil
}

// badBatchError marks a client-side validation failure: the request was
// malformed, not the server. The HTTP layer maps it to 400 where every
// other ingest failure (WAL I/O, shutdown) is a retryable 503.
type badBatchError struct{ err error }

func (e badBatchError) Error() string { return e.err.Error() }
func (e badBatchError) Unwrap() error { return e.err }

// Append validates and appends rows, returning the number accepted.
//
// The batch is all-or-nothing: every row is validated before anything is
// appended, and a durable append that fails leaves no trace in memory
// either — the caller sees an error if and only if no row of the batch was
// accepted, so a retry can never double-apply a prefix. (Exactly-once WAL
// replay depends on this: a batch is on disk iff it was acknowledged.)
func (l *ingestLog) Append(rows []model.Row) (int, error) {
	for i, r := range rows {
		if err := ValidateRow(r); err != nil {
			return 0, badBatchError{fmt.Errorf("claim %d: %w", i, err)}
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.log != nil {
		// Under l.mu, so WAL order and in-memory order are identical.
		seq, err := l.log.Append(rows)
		if err != nil {
			return 0, err
		}
		l.lastSeq = seq
	}
	l.pending = append(l.pending, rows...)
	l.markDirty(rows)
	l.total += int64(len(rows))
	if l.notify != nil {
		l.notify()
	}
	return len(rows), nil
}

// appendReplicated mirrors one primary log record into a follower: the
// batch lands in the follower's own WAL under the primary's sequence
// number (so a restart resumes, and cascaded followers replicate, from
// local disk), then in the pending log. Control records advance the
// watermark without contributing rows.
func (l *ingestLog) appendReplicated(b wal.Batch) error {
	for i, r := range b.Rows {
		if err := ValidateRow(r); err != nil {
			return fmt.Errorf("serve: replicated claim %d: %w", i, err)
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.log == nil {
		return fmt.Errorf("serve: replication requires a durable follower")
	}
	if err := l.log.AppendBatch(b); err != nil {
		return err
	}
	l.lastSeq = b.Seq
	l.pending = append(l.pending, b.Rows...)
	l.markDirty(b.Rows)
	l.total += int64(len(b.Rows))
	if l.notify != nil {
		l.notify()
	}
	return nil
}

// replay re-applies a recovered WAL batch without re-logging it. Called
// only during startup recovery, before the server is reachable.
func (l *ingestLog) replay(b wal.Batch) {
	l.mu.Lock()
	l.pending = append(l.pending, b.Rows...)
	l.markDirty(b.Rows)
	l.lastSeq = b.Seq
	l.total += int64(len(b.Rows))
	l.mu.Unlock()
}

// LastSeq returns the WAL sequence number of the newest accepted batch.
func (l *ingestLog) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastSeq
}

// restoreTotal seeds the lifetime row counter from a checkpoint manifest.
func (l *ingestLog) restoreTotal(total int64) {
	l.mu.Lock()
	l.total = total
	l.mu.Unlock()
}

// drainResult is a consistent cut of the log: the drained rows, the
// entities they touched, the arrival time of the oldest drained row, the
// WAL sequence number of the newest drained batch, and the lifetime total
// at the instant of the cut. Refits persist lastSeq/total into the
// checkpoint manifest so recovery replays exactly the batches after the
// cut; the dirty set and oldest stamp drive the dirty fast path and the
// freshness metric.
type drainResult struct {
	rows    []model.Row
	dirty   map[string]struct{}
	oldest  time.Time
	lastSeq uint64
	total   int64
}

// cut captures and resets the drainable state. Called under mu.
func (l *ingestLog) cut() drainResult {
	dr := drainResult{rows: l.pending, dirty: l.dirty, oldest: l.oldest,
		lastSeq: l.lastSeq, total: l.total}
	l.pending = nil
	l.dirty = nil
	l.oldest = time.Time{}
	return dr
}

// Drain removes and returns all pending rows with their WAL watermark.
func (l *ingestLog) Drain() drainResult {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.cut()
}

// DrainMark drains like Drain and, in the same critical section, appends a
// refit-marker control record to the WAL, with the note built from the
// dirty-entity count at the cut (the watermark followers check their own
// derived set against). The marker sits exactly at the drain cut, so a
// replication follower replaying the log refits over precisely the rows
// this refit drained — the mechanism that makes follower snapshots
// bit-identical to the primary's. A marker append failure is returned
// alongside the (still valid) drain: the refit proceeds, followers just
// wait for the next successful marker.
func (l *ingestLog) DrainMark(note func(dirtyEntities int) string) (drainResult, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var err error
	if l.log != nil {
		var seq uint64
		if seq, err = l.log.AppendNote(note(len(l.dirty))); err == nil {
			l.lastSeq = seq
			if l.notify != nil {
				l.notify()
			}
		}
	}
	return l.cut(), err
}

// DirtyLen returns the number of distinct entities pending rows touch.
func (l *ingestLog) DirtyLen() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.dirty)
}

// Len returns the number of pending rows.
func (l *ingestLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.pending)
}

// Total returns the lifetime number of accepted rows.
func (l *ingestLog) Total() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}
