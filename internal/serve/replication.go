package serve

import (
	"errors"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"
	"net/textproto"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"latenttruth/internal/wal"
)

// Primary side of WAL log shipping. A durable server exposes two extra
// endpoints:
//
//	GET /replication/checkpoint        stream the newest checkpoint
//	                                   (MANIFEST.json, quality.csv,
//	                                   posterior.csv and every segment the
//	                                   manifest lists, as one multipart body)
//	GET /replication/wal?from=N        long-poll the log from sequence N,
//	    [&follower=ID][&wait=10s]      streamed in the WAL's own CRC32C
//	                                   record framing (wal.DecodeBatch)
//
// A follower bootstraps from the checkpoint, then tails the log. Each
// poll's from parameter doubles as an acknowledgement: every record below
// it is durably on the follower, so the primary advances (or registers)
// the follower's truncation cursor at from-1 — the WAL is never truncated
// past the slowest live follower. Cursors of followers that stop polling
// (CursorTTL) or fall hopelessly behind (MaxLagBatches) are evicted at
// the next checkpoint; an evicted follower that returns gets 410 Gone and
// re-bootstraps from a fresh checkpoint.
//
// The log carries refit markers (control records written at every drain
// cut), so a follower replays not just the primary's data but its refit
// schedule — snapshot N on the follower is bit-identical to snapshot N on
// the primary.

// ErrFollower is returned by Ingest and Refit on a read-only follower.
var ErrFollower = errors.New("serve: read-only follower (writes and refits go to the primary)")

// Replication tunes the primary side of log shipping. The zero value
// takes all defaults; it only applies to durable servers (the WAL is the
// shipped artifact).
type Replication struct {
	// MaxLagBatches evicts a follower's truncation cursor once it falls
	// this many records behind the newest WAL record, bounding how much
	// log one dead-slow follower can pin (default 65536). The evicted
	// follower re-bootstraps from a checkpoint when it returns.
	MaxLagBatches uint64
	// CursorTTL evicts cursors of followers that stopped polling
	// (default 1m).
	CursorTTL time.Duration
	// LongPoll caps how long GET /replication/wal waits for new records
	// when the follower is caught up (default 10s; ?wait= lowers it).
	LongPoll time.Duration
	// MaxBatchesPerPoll and MaxBytesPerPoll bound one poll response
	// (defaults 1024 records / 4 MiB); a lagging follower just polls
	// again immediately.
	MaxBatchesPerPoll int
	MaxBytesPerPoll   int64
}

// withDefaults fills unset fields.
func (r Replication) withDefaults() Replication {
	if r.MaxLagBatches == 0 {
		r.MaxLagBatches = 65536
	}
	if r.CursorTTL <= 0 {
		r.CursorTTL = time.Minute
	}
	if r.LongPoll <= 0 {
		r.LongPoll = 10 * time.Second
	}
	if r.MaxBatchesPerPoll <= 0 {
		r.MaxBatchesPerPoll = 1024
	}
	if r.MaxBytesPerPoll <= 0 {
		r.MaxBytesPerPoll = 4 << 20
	}
	return r
}

// refitNotePrefix tags refit-marker control records in the WAL.
const refitNotePrefix = "refit:"

// refitNote encodes a refit marker's note: the policy override the refit
// ran under (empty for the configured policy) and the dirty-set watermark —
// the number of distinct entities the drained rows touched at the cut. A
// follower derives its own dirty set from the replicated batches; the
// watermark lets it detect (and log) a divergence instead of silently
// re-sweeping a different entity set.
func refitNote(override RefitPolicy, dirtyEntities int) string {
	return fmt.Sprintf("%s%s|dirty=%d", refitNotePrefix, override, dirtyEntities)
}

// parseRefitNote reports whether b is a refit marker and, if so, the
// policy override and dirty-set watermark it carries (-1 when the marker
// predates the watermark). Unknown control records are not markers:
// they replicate and persist but trigger nothing, which is what lets a
// future primary add new control types without breaking old followers.
func parseRefitNote(b wal.Batch) (RefitPolicy, int, bool) {
	if !b.IsControl() || !strings.HasPrefix(b.Note, refitNotePrefix) {
		return "", -1, false
	}
	rest := strings.TrimPrefix(b.Note, refitNotePrefix)
	policy, attrs, ok := strings.Cut(rest, "|")
	dirty := -1
	if ok {
		if v, found := strings.CutPrefix(attrs, "dirty="); found {
			if n, err := strconv.Atoi(v); err == nil {
				dirty = n
			}
		}
	}
	return RefitPolicy(policy), dirty, true
}

// notifier is a broadcast edge: Wait returns a channel that closes at the
// next Wake. Replication long-polls park on it instead of spinning.
type notifier struct {
	mu sync.Mutex
	ch chan struct{}
}

func newNotifier() *notifier { return &notifier{ch: make(chan struct{})} }

// Wait returns the channel the next Wake will close.
func (n *notifier) Wait() <-chan struct{} {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.ch
}

// Wake releases every current waiter.
func (n *notifier) Wake() {
	n.mu.Lock()
	close(n.ch)
	n.ch = make(chan struct{})
	n.mu.Unlock()
}

// replTracker manages the follower cursors registered on the WAL. The
// wal.Log owns the truncation arithmetic; the tracker owns the lifecycle
// (refresh on poll, eviction by TTL or lag).
type replTracker struct {
	log *wal.Log
	cfg Replication

	mu        sync.Mutex
	followers map[string]*followerCursor
}

type followerCursor struct {
	cur      *wal.Cursor
	lastSeen time.Time
}

func newReplTracker(log *wal.Log, cfg Replication) *replTracker {
	return &replTracker{log: log, cfg: cfg, followers: make(map[string]*followerCursor)}
}

// touch registers or refreshes follower id's cursor: the follower has
// acknowledged every record up to and including acked.
func (t *replTracker) touch(id string, acked uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, ok := t.followers[id]
	if !ok {
		f = &followerCursor{cur: t.log.OpenCursor(id, acked)}
		t.followers[id] = f
	}
	f.cur.Advance(acked)
	f.lastSeen = time.Now()
}

// evict closes cursors of followers that stopped polling or fell past the
// lag bound, returning the evicted ids. Called from the checkpoint path,
// right before truncation.
func (t *replTracker) evict(lastSeq uint64) []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	var evicted []string
	now := time.Now()
	for id, f := range t.followers {
		stale := now.Sub(f.lastSeen) > t.cfg.CursorTTL
		lagging := lastSeq > f.cur.Seq() && lastSeq-f.cur.Seq() > t.cfg.MaxLagBatches
		if stale || lagging {
			f.cur.Close()
			delete(t.followers, id)
			evicted = append(evicted, id)
		}
	}
	return evicted
}

// ReplicationCursor is one follower's position as seen by the primary.
type ReplicationCursor struct {
	ID string `json:"id"`
	// AckedSeq is the newest WAL record the follower has durably applied.
	AckedSeq uint64 `json:"acked_seq"`
	// LagBatches is how many records the follower trails the log head by.
	LagBatches uint64 `json:"lag_batches"`
	// IdleMS is the time since the follower's last poll.
	IdleMS float64 `json:"idle_ms"`
}

// cursors reports the registered follower cursors, sorted by id.
func (t *replTracker) cursors(lastSeq uint64) []ReplicationCursor {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	idle := make(map[string]time.Duration, len(t.followers))
	now := time.Now()
	for id, f := range t.followers {
		idle[id] = now.Sub(f.lastSeen)
	}
	t.mu.Unlock()
	out := make([]ReplicationCursor, 0, len(idle))
	for _, ci := range t.log.Cursors() {
		d, ok := idle[ci.Name]
		if !ok {
			continue // a cursor this tracker doesn't own
		}
		c := ReplicationCursor{ID: ci.Name, AckedSeq: ci.Seq, IdleMS: float64(d) / float64(time.Millisecond)}
		if lastSeq > ci.Seq {
			c.LagBatches = lastSeq - ci.Seq
		}
		out = append(out, c)
	}
	return out
}

// ApplyReplicated applies one primary log record to a follower: the
// record is mirrored into the follower's own WAL under the primary's
// sequence number, then a claim batch joins the pending set while a refit
// marker runs the refit it stands for — the same refit, over the same
// rows, that the primary ran at this point in its log. Records must
// arrive in sequence order (the replication client guarantees it).
//
// The call is idempotent for the newest record: re-applying a refit
// marker that is already the local log head skips the (duplicate) append
// and just re-runs the refit, so a caller can retry a marker whose refit
// failed transiently instead of advancing past it and silently diverging.
func (s *Server) ApplyReplicated(b wal.Batch) error {
	select {
	case <-s.stop:
		return fmt.Errorf("serve: server is shut down")
	default:
	}
	if s.dur == nil {
		return fmt.Errorf("serve: ApplyReplicated requires durability")
	}
	if !b.IsControl() || b.Seq != s.ingest.LastSeq() {
		if err := s.ingest.appendReplicated(b); err != nil {
			return err
		}
	}
	if ov, wantDirty, ok := parseRefitNote(b); ok {
		// The watermark check is advisory: a mismatch means the follower's
		// derived dirty set differs from what the primary drained at this
		// marker (lost batch, divergent validation, version skew). The refit
		// still runs — the FullEvery backstop re-converges state — but the
		// divergence is surfaced instead of silent.
		if wantDirty >= 0 && !s.carryPending() {
			if have := s.ingest.DirtyLen(); have != wantDirty {
				s.warnf("serve: refit marker seq=%d carries dirty watermark %d, local pending set has %d entities (divergence?)",
					b.Seq, wantDirty, have)
			}
		}
		if _, err := s.refit(ov, false); err != nil && err != ErrNoData {
			return fmt.Errorf("serve: replicated refit (marker seq=%d): %w", b.Seq, err)
		}
	}
	return nil
}

// carryPending reports whether a drained-but-unpublished refit attempt is
// outstanding (its dirty set has already left the ingest log).
func (s *Server) carryPending() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.carry.pending
}

// NextReplicationSeq returns the sequence number of the first log record
// this server still needs from its primary: everything below it is either
// checkpoint-covered or in the local WAL.
func (s *Server) NextReplicationSeq() uint64 {
	next := s.walSeqCompacted.Load()
	if ls := s.ingest.LastSeq(); ls > next {
		next = ls
	}
	return next + 1
}

// checkpointFiles is the fixed part order of a /replication/checkpoint
// response: the manifest first so the receiver can verify the rest. Every
// segment file the manifest lists follows, named by segment.Ref.Filename.
// The posterior part is optional — checkpoints written before snapshot
// restoration existed don't have one, and the manifest's PosteriorCRC
// tells the receiver whether to expect it. triples.csv is present only in
// checkpoints from before segments were the only corpus format.
var checkpointFiles = []string{"MANIFEST.json", "triples.csv", "quality.csv", wal.PosteriorName}

// handleReplCheckpoint streams the newest checkpoint as a multipart body.
// The files are opened before anything is written, so a concurrent prune
// or segment clean cannot tear the response (unlinked files stay readable
// through the open descriptors).
func (s *Server) handleReplCheckpoint(w http.ResponseWriter, r *http.Request) {
	cps, _, err := s.dur.store.Checkpoints()
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, codeInternal, err)
		return
	}
	if len(cps) == 0 {
		s.writeError(w, http.StatusNotFound, codeNotFound, errors.New("serve: no checkpoint yet (the primary has not refitted)"))
		return
	}
	cp := cps[len(cps)-1]
	var parts []string // part name, path
	for _, name := range checkpointFiles {
		parts = append(parts, name, filepath.Join(cp.Dir, name))
	}
	for _, ref := range cp.Manifest.Segments {
		parts = append(parts, ref.Filename(), filepath.Join(wal.SegmentDir(s.dur.cfg.DataDir), ref.Filename()))
	}
	names := make([]string, 0, len(parts)/2)
	files := make([]*os.File, 0, len(parts)/2)
	defer func() {
		for _, f := range files {
			f.Close()
		}
	}()
	for i := 0; i < len(parts); i += 2 {
		f, err := os.Open(parts[i+1])
		if os.IsNotExist(err) && (parts[i] == "triples.csv" || parts[i] == wal.PosteriorName) {
			continue // optional part this checkpoint does not carry
		}
		if err != nil {
			s.writeError(w, http.StatusInternalServerError, codeInternal, err)
			return
		}
		names = append(names, parts[i])
		files = append(files, f)
	}
	mw := multipart.NewWriter(w)
	w.Header().Set("Content-Type", "multipart/mixed; boundary="+mw.Boundary())
	w.Header().Set("X-Checkpoint-Seq", strconv.FormatInt(cp.Manifest.Seq, 10))
	for i, name := range names {
		hdr := textproto.MIMEHeader{}
		hdr.Set("Content-Disposition", fmt.Sprintf(`attachment; filename=%q`, name))
		hdr.Set("Content-Type", "application/octet-stream")
		pw, err := mw.CreatePart(hdr)
		if err != nil {
			return // connection-level failure; nothing useful to send
		}
		if _, err := io.Copy(pw, files[i]); err != nil {
			return
		}
	}
	mw.Close()
}

// errPollFull stops a replay once the per-poll response bounds are hit.
var errPollFull = errors.New("poll response full")

// handleReplWAL streams log records from ?from= in the WAL's own record
// framing, long-polling up to the configured bound when the follower is
// caught up. ?follower= registers the caller's truncation cursor with
// from-1 acknowledged. 410 Gone means the requested history has been
// truncated away (the follower was evicted): re-bootstrap from
// /replication/checkpoint.
func (s *Server) handleReplWAL(w http.ResponseWriter, r *http.Request) {
	if s.met != nil {
		// Entry-to-response time: dominated by the long-poll wait on a
		// caught-up follower, so the histogram reads as "how long do
		// followers park here".
		defer s.met.longpollSecs.ObserveSince(time.Now())
	}
	cfg := s.repl.cfg
	from, err := strconv.ParseUint(r.URL.Query().Get("from"), 10, 64)
	if err != nil || from == 0 {
		s.writeError(w, http.StatusBadRequest, codeBadRequest, errors.New("serve: replication requires ?from=<seq> >= 1"))
		return
	}
	wait := cfg.LongPoll
	if ws := r.URL.Query().Get("wait"); ws != "" {
		d, err := time.ParseDuration(ws)
		if err != nil || d < 0 {
			s.writeError(w, http.StatusBadRequest, codeBadRequest, fmt.Errorf("serve: bad wait %q", ws))
			return
		}
		if d < wait {
			wait = d
		}
	}
	if id := r.URL.Query().Get("follower"); id != "" {
		// Registering before reading also pins records >= from against a
		// concurrent truncation for the duration of the poll.
		s.repl.touch(id, from-1)
	}

	deadline := time.Now().Add(wait)
	for {
		wake := s.walNotify.Wait() // arm before reading: no lost wakeups
		st := s.dur.log.Stats()
		if (st.Segments > 0 && from < st.FirstSeq) || (st.Segments == 0 && from <= st.LastSeq) {
			s.writeError(w, http.StatusGone, codeWALTruncated, fmt.Errorf(
				"serve: log history before seq %d is truncated; re-bootstrap from /replication/checkpoint", st.FirstSeq))
			return
		}
		// A follower asking past head+1 holds records this log never wrote:
		// the primary lost state (restored from an older backup, wiped data
		// dir). Erroring — instead of long-polling empty responses forever —
		// surfaces the divergence in the follower's logs and poll_errors.
		if from > st.LastSeq+1 {
			s.writeError(w, http.StatusConflict, codeFollowerAhead, fmt.Errorf(
				"serve: follower is ahead of this log (from=%d, head=%d): primary state was lost or replaced", from, st.LastSeq))
			return
		}
		var buf []byte
		n := 0
		err := s.dur.log.Replay(from, func(b wal.Batch) error {
			if n >= cfg.MaxBatchesPerPoll || int64(len(buf)) >= cfg.MaxBytesPerPoll {
				return errPollFull
			}
			buf = wal.EncodeBatch(buf, b)
			n++
			return nil
		})
		if err != nil && err != errPollFull {
			s.writeError(w, http.StatusInternalServerError, codeInternal, err)
			return
		}
		if remaining := time.Until(deadline); n == 0 && remaining > 0 {
			select {
			case <-wake:
				continue // new records (or a marker) landed; re-read
			case <-time.After(remaining):
				// Deadline: fall through to the empty response.
			case <-s.stop:
				// Shutting down: the empty response tells the follower to
				// retry (and find the connection refused, and back off).
			case <-r.Context().Done():
				return
			}
		}
		// n may be 0 here: an empty 200 tells a caught-up follower to poll
		// again.
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("X-WAL-Records", strconv.Itoa(n))
		w.Write(buf)
		return
	}
}
