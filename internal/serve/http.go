package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"latenttruth/internal/core"
	"latenttruth/internal/integrate"
	"latenttruth/internal/model"
	"latenttruth/internal/obs"
	"latenttruth/internal/query"
	"latenttruth/internal/store"
)

// maxClaimsBody bounds a POST /claims request body (32 MiB).
const maxClaimsBody = 32 << 20

// Handler returns the daemon's HTTP API:
//
//	POST /claims  — ingest a batch of triples
//	GET  /claims  — raw claims from storage (?entity=|?prefix=, ?source=, ?limit=)
//	GET  /truth   — the truth table (optionally ?entity= and ?attribute=)
//	GET  /quality — the per-source quality table (Table 8 order)
//	GET  /records — one entity's integrated record (?entity=)
//	GET  /stats   — corpus and serving statistics
//	GET  /healthz — liveness and readiness
//	GET  /durability — WAL, checkpoint and recovery state
//	GET  /metrics — Prometheus text exposition of the metric registry
//	POST /refit   — force a synchronous refit (optionally ?policy=)
//
// Durable servers additionally expose the replication feed read replicas
// bootstrap and tail from (any durable server can be a primary, including
// a follower — replication cascades):
//
//	GET  /replication/checkpoint — newest checkpoint, multipart
//	GET  /replication/wal        — long-poll framed log records (?from=)
//
// On a follower, POST /claims and POST /refit return 503 with the
// primary's address: reads are local, writes belong to the primary.
//
// All read endpoints serve from the current immutable snapshot: one atomic
// pointer load, no locks, never blocked by a background refit.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /claims", s.handleClaims)
	mux.HandleFunc("GET /claims", s.handleClaimsQuery)
	mux.HandleFunc("GET /truth", s.handleTruth)
	mux.HandleFunc("GET /quality", s.handleQuality)
	mux.HandleFunc("GET /records", s.handleRecords)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /durability", s.handleDurability)
	mux.HandleFunc("POST /refit", s.handleRefit)
	mux.HandleFunc("GET /partition/quality", s.handlePartitionQuality)
	mux.HandleFunc("GET /metrics", obs.MetricsHandler(s.reg))
	if s.dur != nil {
		mux.HandleFunc("GET /replication/checkpoint", s.handleReplCheckpoint)
		mux.HandleFunc("GET /replication/wal", s.handleReplWAL)
	}
	if s.httpMW != nil {
		return s.httpMW.Wrap(mux)
	}
	return mux
}

// Stable machine-readable error codes. Every non-2xx response body is
// the envelope {"error": <human message>, "code": <one of these>}, with
// endpoint-specific supplementary fields ("primary", "restart") added
// alongside — never replacing — the envelope. Clients branch on the
// code; the message is free to improve without breaking them.
const (
	// codeBadRequest: malformed parameters, bodies or cursors (400).
	codeBadRequest = "bad_request"
	// codeNotFound: the named entity/fact/source/resource does not exist (404).
	codeNotFound = "not_found"
	// codeStaleCursor: a pagination cursor from a superseded snapshot (410).
	codeStaleCursor = "stale_cursor"
	// codeFollowerReadonly: a write endpoint on a replication follower (503).
	codeFollowerReadonly = "follower_readonly"
	// codeNotReady: no snapshot published yet; retry after a refit (503).
	codeNotReady = "not_ready"
	// codeNoData: a refit was forced with nothing ever ingested (409).
	codeNoData = "no_data"
	// codeUnavailable: a transient server-side failure worth retrying (503).
	codeUnavailable = "unavailable"
	// codeInternal: an unexpected server-side failure (500).
	codeInternal = "internal"
	// codeWALTruncated: the requested replication history was truncated;
	// re-bootstrap from /replication/checkpoint (410).
	codeWALTruncated = "wal_truncated"
	// codeFollowerAhead: the follower holds records past this primary's log
	// head — primary state was lost or replaced (409).
	codeFollowerAhead = "follower_ahead"
	// codeStorageUnsupported: the operation is not implemented for this
	// storage backend (501).
	codeStorageUnsupported = "storage_unsupported"
)

// rejectOnFollower writes the 503 a write endpoint returns in follower
// mode, pointing the client at the primary. It reports whether the
// request was rejected.
func (s *Server) rejectOnFollower(w http.ResponseWriter) bool {
	if s.cfg.FollowerOf == "" {
		return false
	}
	s.writeJSON(w, http.StatusServiceUnavailable, map[string]string{
		"error":   ErrFollower.Error(),
		"code":    codeFollowerReadonly,
		"primary": s.cfg.FollowerOf,
	})
	return true
}

// writeJSON writes v as a JSON response. Encode failures cannot change the
// already-written status line, but they are never silent: each one is
// logged and counted into the /stats encode_failures counter, so a
// truncated large response (client gone, connection reset mid-stream) is
// observable instead of masquerading as a clean 200.
func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		s.encodeFailure(err)
	}
}

// encodeFailure accounts one failed response encode.
func (s *Server) encodeFailure(err error) {
	s.encodeFailures.Inc()
	s.warnf("serve: encoding response: %v", err)
}

// writeError writes the standard JSON error envelope {"error","code"}.
func (s *Server) writeError(w http.ResponseWriter, status int, code string, err error) {
	s.writeJSON(w, status, map[string]string{"error": err.Error(), "code": code})
}

// writeQueryError maps a query-engine error onto its HTTP status: the
// typed not-found errors become 404, a stale cursor becomes 410 Gone with
// an explicit restart signal, and anything else (bad parameters, malformed
// cursors) is the client's 400.
func (s *Server) writeQueryError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrNoEntity), errors.Is(err, ErrNoFact), errors.Is(err, ErrNoSource):
		s.writeError(w, http.StatusNotFound, codeNotFound, err)
	case errors.Is(err, ErrStaleCursor):
		s.writeJSON(w, http.StatusGone, map[string]any{
			"error": err.Error(), "code": codeStaleCursor, "restart": true,
		})
	default:
		s.writeError(w, http.StatusBadRequest, codeBadRequest, err)
	}
}

// jsonStream writes one JSON response incrementally: raw structural bytes
// interleaved with values encoded one at a time through a reused buffer,
// with the same encoding semantics as writeJSON (SetEscapeHTML off). The
// first error latches and suppresses further writes.
type jsonStream struct {
	w   io.Writer
	buf bytes.Buffer
	enc *json.Encoder
	err error
}

func newJSONStream(w io.Writer) *jsonStream {
	js := &jsonStream{w: w}
	js.enc = json.NewEncoder(&js.buf)
	js.enc.SetEscapeHTML(false)
	return js
}

// raw writes structural JSON verbatim.
func (js *jsonStream) raw(s string) {
	if js.err == nil {
		_, js.err = io.WriteString(js.w, s)
	}
}

// val encodes one value (without the encoder's trailing newline).
func (js *jsonStream) val(v any) {
	if js.err != nil {
		return
	}
	js.buf.Reset()
	if err := js.enc.Encode(v); err != nil {
		js.err = err
		return
	}
	b := js.buf.Bytes()
	_, js.err = js.w.Write(b[:len(b)-1])
}

// finish accounts any latched stream error.
func (s *Server) finish(js *jsonStream) {
	if js.err != nil {
		s.encodeFailure(js.err)
	}
}

// errNoSnapshot is the 503 payload served before the first refit.
var errNoSnapshot = errors.New("serve: no snapshot yet (ingest claims and refit first)")

// claimJSON is the wire form of one triple.
type claimJSON struct {
	Entity    string `json:"entity"`
	Attribute string `json:"attribute"`
	Source    string `json:"source"`
}

// handleClaims ingests a batch: either {"claims": [...]} or a bare array.
func (s *Server) handleClaims(w http.ResponseWriter, r *http.Request) {
	if s.rejectOnFollower(w) {
		return
	}
	body := http.MaxBytesReader(w, r.Body, maxClaimsBody)
	dec := json.NewDecoder(body)
	var raw json.RawMessage
	if err := dec.Decode(&raw); err != nil {
		s.writeError(w, http.StatusBadRequest, codeBadRequest, err)
		return
	}
	var claims []claimJSON
	if len(raw) > 0 && raw[0] == '{' {
		var envelope struct {
			Claims []claimJSON `json:"claims"`
		}
		if err := json.Unmarshal(raw, &envelope); err != nil {
			s.writeError(w, http.StatusBadRequest, codeBadRequest, err)
			return
		}
		claims = envelope.Claims
	} else if err := json.Unmarshal(raw, &claims); err != nil {
		s.writeError(w, http.StatusBadRequest, codeBadRequest, err)
		return
	}
	if len(claims) == 0 {
		s.writeError(w, http.StatusBadRequest, codeBadRequest, errors.New("serve: empty claim batch"))
		return
	}
	rows := make([]model.Row, len(claims))
	for i, c := range claims {
		rows[i] = model.Row{Entity: c.Entity, Attribute: c.Attribute, Source: c.Source}
	}
	n, err := s.Ingest(rows)
	if err != nil {
		// Malformed claims are the client's fault; anything else (WAL I/O
		// failure, shutdown) is a server-side condition worth retrying.
		status, code := http.StatusServiceUnavailable, codeUnavailable
		var bad badBatchError
		if errors.As(err, &bad) {
			status, code = http.StatusBadRequest, codeBadRequest
		}
		s.writeError(w, status, code, err)
		return
	}
	s.writeJSON(w, http.StatusAccepted, map[string]any{
		"accepted": n,
		"pending":  s.ingest.Len(),
		"total":    s.ingest.Total(),
	})
}

// handleClaimsQuery serves raw claims straight from the storage backend —
// the compacted corpus, not the fitted snapshot: it answers even when no
// snapshot is published, and batches still pending in the ingest log
// appear once the next refit drains them into the store. Filters
// push down into the backend: on the segment store an ?entity= or
// ?prefix= scan skips every segment whose zone map or bloom filter rules
// it out. Rows are returned in (entity, attribute, source) order, which
// is backend-independent.
func (s *Server) handleClaimsQuery(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	opts := query.ClaimsOptions{
		Entity: q.Get("entity"),
		Prefix: q.Get("prefix"),
		Source: q.Get("source"),
	}
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, codeBadRequest, fmt.Errorf("serve: bad limit %q", v))
			return
		}
		opts.Limit = n
	}
	rows, err := query.ScanClaims(s.db.Reader(), opts)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, codeBadRequest, err)
		return
	}
	claims := make([]claimJSON, len(rows))
	for i, r := range rows {
		claims[i] = claimJSON{Entity: r.Entity, Attribute: r.Attribute, Source: r.Source}
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"count": len(claims), "claims": claims})
}

// truthResponse is the GET /truth payload. Facts always equals len(Rows);
// the race tests use this pairing to detect torn snapshots. Filtered and
// paginated responses carry "facts" (and "next_cursor" when more rows
// remain) after "rows", because a streamed count is only known at
// exhaustion; JSON field order is irrelevant to decoders and the
// unfiltered layout is byte-identical to the pre-engine output.
type truthResponse struct {
	Seq       int64       `json:"seq"`
	Mode      RefitPolicy `json:"mode"`
	FittedAt  time.Time   `json:"fitted_at"`
	Threshold float64     `json:"threshold"`
	Facts     int         `json:"facts"`
	Rows      []TruthRow  `json:"rows"`
}

// truthQueryParams parses the query-engine parameters of GET /truth.
func truthQueryParams(r *http.Request) (query.TruthOptions, query.AggKind, error) {
	q := r.URL.Query()
	opts := query.TruthOptions{
		Entity:    q.Get("entity"),
		Attribute: q.Get("attribute"),
		Source:    q.Get("source"),
		Cursor:    q.Get("cursor"),
	}
	if v := q.Get("min_prob"); v != "" {
		p, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return opts, "", fmt.Errorf("serve: bad min_prob %q", v)
		}
		opts.MinProb = p
	}
	if v := q.Get("predicted"); v != "" {
		p, err := strconv.ParseBool(v)
		if err != nil {
			return opts, "", fmt.Errorf("serve: bad predicted %q", v)
		}
		opts.Predicted = &p
	}
	if v := q.Get("topk"); v != "" {
		k, err := strconv.Atoi(v)
		if err != nil {
			return opts, "", fmt.Errorf("serve: bad topk %q", v)
		}
		opts.TopK = k
	}
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			return opts, "", fmt.Errorf("serve: bad limit %q", v)
		}
		opts.Limit = n
	}
	agg := query.AggKind(q.Get("agg"))
	if agg != "" && !agg.Valid() {
		return opts, "", fmt.Errorf("serve: unknown aggregation %q", agg)
	}
	return opts, agg, nil
}

// legacyShape reports whether opts uses only the pre-engine parameters
// (entity/attribute), whose response layout is kept byte-identical.
func legacyShape(opts query.TruthOptions) bool {
	return opts.Source == "" && opts.MinProb == 0 && opts.Predicted == nil &&
		opts.TopK == 0 && opts.Limit == 0 && opts.Cursor == ""
}

func (s *Server) handleTruth(w http.ResponseWriter, r *http.Request) {
	sn := s.Snapshot()
	if sn == nil {
		s.writeError(w, http.StatusServiceUnavailable, codeNotReady, errNoSnapshot)
		return
	}
	opts, agg, err := truthQueryParams(r)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, codeBadRequest, err)
		return
	}
	if agg != "" {
		groups, err := sn.QueryAggregate(agg, opts)
		if err != nil {
			s.writeQueryError(w, err)
			return
		}
		s.writeJSON(w, http.StatusOK, map[string]any{
			"seq": sn.Seq, "agg": agg, "count": len(groups), "groups": groups,
		})
		return
	}
	rows, err := sn.QueryTruth(opts)
	if err != nil {
		s.writeQueryError(w, err)
		return
	}
	// The unconstrained count is known up front, which lets the legacy
	// field order stream unchanged; filtered streams learn theirs at
	// exhaustion.
	known := -1
	if legacyShape(opts) {
		switch {
		case opts.Entity != "" && opts.Attribute != "":
			known = 1
		case opts.Entity != "":
			known = len(sn.Dataset.FactsByEntity[sn.entityByName[opts.Entity]])
		default:
			known = sn.Dataset.NumFacts()
		}
	}
	s.streamTruth(w, sn, rows, known)
}

// streamTruth writes a truth result straight into the response: envelope
// prefix, one row at a time off the iterator, then the trailing count and
// resume cursor when the count was not known up front. No row slice ever
// exists; memory is O(1) in the result size.
func (s *Server) streamTruth(w http.ResponseWriter, sn *Snapshot, rows *query.Rows, known int) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	js := newJSONStream(w)
	js.raw(`{"seq":`)
	js.val(sn.Seq)
	js.raw(`,"mode":`)
	js.val(sn.Mode)
	js.raw(`,"fitted_at":`)
	js.val(sn.FittedAt)
	js.raw(`,"threshold":`)
	js.val(sn.Threshold)
	if known >= 0 {
		js.raw(`,"facts":`)
		js.val(known)
	}
	js.raw(`,"rows":[`)
	n := 0
	for {
		row, ok := rows.Next()
		if !ok {
			break
		}
		if n > 0 {
			js.raw(",")
		}
		js.val(TruthRow{
			Entity:      row.Entity,
			Attribute:   row.Attribute,
			Probability: row.Probability,
			Predicted:   row.Predicted,
		})
		n++
	}
	js.raw("]")
	if known < 0 {
		js.raw(`,"facts":`)
		js.val(n)
		if c := rows.NextCursor(); c != "" {
			js.raw(`,"next_cursor":`)
			js.val(c)
		}
	}
	js.raw("}\n")
	s.finish(js)
}

// qualityJSON is the wire form of one source-quality row.
type qualityJSON struct {
	Source      string  `json:"source"`
	Sensitivity float64 `json:"sensitivity"`
	Specificity float64 `json:"specificity"`
	Precision   float64 `json:"precision"`
	Accuracy    float64 `json:"accuracy"`
}

func (s *Server) handleQuality(w http.ResponseWriter, r *http.Request) {
	sn := s.Snapshot()
	if sn == nil {
		s.writeError(w, http.StatusServiceUnavailable, codeNotReady, errNoSnapshot)
		return
	}
	rows := make([]qualityJSON, len(sn.Quality))
	for i, q := range sn.Quality {
		rows[i] = qualityJSON{
			Source:      q.Source,
			Sensitivity: q.Sensitivity,
			Specificity: q.Specificity,
			Precision:   q.Precision,
			Accuracy:    q.Accuracy,
		}
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"seq": sn.Seq, "sources": rows})
}

// PartitionQuality is the GET /partition/quality payload: the expected
// confusion-count basis of the published quality table, for cluster-level
// cross-partition merging. Counts and priors round-trip bit-exactly
// through JSON (Go emits the shortest float64 representation that parses
// back to the same bits), so a router that sums partitions' counts and
// applies core.QualityFromCounts reconstructs each partition's own
// /quality rows exactly when given a single partition's counts. Threshold
// and priors let the router reject misconfigured clusters loudly instead
// of merging incompatible bases.
type PartitionQuality struct {
	Seq       int64                    `json:"seq"`
	Policy    RefitPolicy              `json:"policy"`
	Threshold float64                  `json:"threshold"`
	Priors    core.Priors              `json:"priors"`
	Counts    map[string][2][2]float64 `json:"counts"`
}

// handlePartitionQuality serves the snapshot's quality-count basis. 503
// before the first refit, or when recovery dropped the accumulator (a
// config-hash mismatch) — the basis reappears at the next refit.
func (s *Server) handlePartitionQuality(w http.ResponseWriter, r *http.Request) {
	sn := s.Snapshot()
	if sn == nil {
		s.writeError(w, http.StatusServiceUnavailable, codeNotReady, errNoSnapshot)
		return
	}
	if sn.QualityCounts == nil {
		s.writeError(w, http.StatusServiceUnavailable, codeNotReady,
			errors.New("serve: no quality counts on this snapshot (refit to rebuild)"))
		return
	}
	s.writeJSON(w, http.StatusOK, PartitionQuality{
		Seq:       sn.Seq,
		Policy:    s.cfg.Policy,
		Threshold: sn.Threshold,
		Priors:    sn.QualityPriors,
		Counts:    sn.QualityCounts,
	})
}

// attributeJSON and recordJSON are the wire forms of an integrated record.
type attributeJSON struct {
	Value       string   `json:"value"`
	Probability float64  `json:"probability"`
	Supporters  []string `json:"supporters,omitempty"`
	Deniers     []string `json:"deniers,omitempty"`
}

type recordJSON struct {
	Entity     string          `json:"entity"`
	Attributes []attributeJSON `json:"attributes"`
	Rejected   []attributeJSON `json:"rejected,omitempty"`
}

func toAttrJSON(attrs []integrate.Attribute) []attributeJSON {
	out := make([]attributeJSON, len(attrs))
	for i, a := range attrs {
		out[i] = attributeJSON{
			Value:       a.Value,
			Probability: a.Probability,
			Supporters:  a.Supporters,
			Deniers:     a.Deniers,
		}
	}
	return out
}

func (s *Server) handleRecords(w http.ResponseWriter, r *http.Request) {
	sn := s.Snapshot()
	if sn == nil {
		s.writeError(w, http.StatusServiceUnavailable, codeNotReady, errNoSnapshot)
		return
	}
	q := r.URL.Query()
	opts := query.RecordOptions{Entity: q.Get("entity"), Cursor: q.Get("cursor")}
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, codeBadRequest, fmt.Errorf("serve: bad limit %q", v))
			return
		}
		opts.Limit = n
	}
	// The pre-engine single-record lookup keeps its exact response shape.
	if opts.Entity != "" && opts.Limit == 0 && opts.Cursor == "" {
		rec, err := sn.Record(opts.Entity)
		if err != nil {
			s.writeQueryError(w, err)
			return
		}
		s.writeJSON(w, http.StatusOK, map[string]any{
			"seq": sn.Seq,
			"record": recordJSON{
				Entity:     rec.Entity,
				Attributes: toAttrJSON(rec.Attributes),
				Rejected:   toAttrJSON(rec.Rejected),
			},
		})
		return
	}
	rows, err := sn.QueryRecords(opts)
	if err != nil {
		s.writeQueryError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	js := newJSONStream(w)
	js.raw(`{"seq":`)
	js.val(sn.Seq)
	js.raw(`,"records":[`)
	n := 0
	for {
		rec, ok := rows.Next()
		if !ok {
			break
		}
		if n > 0 {
			js.raw(",")
		}
		js.val(recordJSON{
			Entity:     rec.Entity,
			Attributes: toAttrJSON(rec.Attributes),
			Rejected:   toAttrJSON(rec.Rejected),
		})
		n++
	}
	js.raw(`],"count":`)
	js.val(n)
	if c := rows.NextCursor(); c != "" {
		js.raw(`,"next_cursor":`)
		js.val(c)
	}
	js.raw("}\n")
	s.finish(js)
}

// statsResponse is the GET /stats payload, rendered by RenderStats.
type statsResponse struct {
	Ready         bool        `json:"ready"`
	Seq           int64       `json:"seq"`
	Mode          RefitPolicy `json:"mode,omitempty"`
	Policy        RefitPolicy `json:"policy"`
	Pending       int         `json:"pending"`
	IngestedTotal int64       `json:"ingested_total"`
	Refits        int64       `json:"refits"`
	FullRefits    int64       `json:"full_refits"`
	DirtyRefits   int64       `json:"dirty_refits"`
	LastRefitMS   float64     `json:"last_refit_ms"`
	// FreshnessMS is the published snapshot's ingest-to-publish staleness
	// bound: how long its oldest folded row waited for publication.
	FreshnessMS float64 `json:"freshness_ms"`
	// DirtyEntities is the number of entities the last dirty refit
	// re-swept (0 after a full or online refit).
	DirtyEntities int     `json:"dirty_entities"`
	UptimeS       float64 `json:"uptime_s"`
	// Version and Commit identify the running build (linker-stamped via
	// internal/obs; "dev"/"none" on an unstamped build).
	Version string `json:"version"`
	Commit  string `json:"commit"`
	// EncodeFailures counts responses whose JSON encoding (or socket
	// write) failed after the status line was sent — the client saw a
	// truncated body even though the status said OK.
	EncodeFailures int64 `json:"encode_failures"`

	Entities       int `json:"entities"`
	Sources        int `json:"sources"`
	Facts          int `json:"facts"`
	Claims         int `json:"claims"`
	PositiveClaims int `json:"positive_claims"`
	NegativeClaims int `json:"negative_claims"`
	Labeled        int `json:"labeled"`

	// Storage reports the claim-storage backend's shape: resident (heap)
	// vs on-disk row counts are kept separate, and the skipping counters
	// show how much I/O the zone maps and blooms pruned. Always present,
	// even before the first refit.
	Storage store.StorageStats `json:"storage"`

	// Partitions is a router's partition count; absent on a server.
	Partitions int `json:"partitions,omitempty"`
}

// RenderStats renders the GET /stats payload from parsed metric families:
// a server's own exposition, or a router's obs.Merge of its partitions'
// expositions. Each field is read off the family registerStatsFamilies
// backs it with, so across partitions it combines by that family's rule
// (counters sum); a label-valued field — mode, policy, version, commit,
// storage kind — reads "mixed" when the merged families disagree.
func RenderStats(fams []*obs.ParsedFamily) statsResponse {
	v := make(famView, len(fams))
	for _, f := range fams {
		v[f.Name] = f
	}
	return statsResponse{
		Ready:          v.num("snapshot_ready") == 1,
		Seq:            int64(v.num("snapshot_seq")),
		Mode:           RefitPolicy(v.label("snapshot_mode", "mode")),
		Policy:         RefitPolicy(v.label("refit_policy", "policy")),
		Pending:        int(v.num("pending_mutations")),
		IngestedTotal:  int64(v.num("ingest_lifetime_rows_total")),
		Refits:         int64(v.num("refits_completed_total")),
		FullRefits:     int64(v.num("refits_full_total")),
		DirtyRefits:    int64(v.num("refits_dirty_total")),
		LastRefitMS:    v.num("refit_last_duration_seconds") * 1e3,
		FreshnessMS:    v.num("refit_freshness_seconds") * 1e3,
		DirtyEntities:  int(v.num("refit_dirty_entities")),
		UptimeS:        v.num("process_uptime_seconds"),
		Version:        v.label("build_info", "version"),
		Commit:         v.label("build_info", "commit"),
		EncodeFailures: int64(v.num("encode_failures_total")),
		Entities:       int(v.num("snapshot_entities")),
		Sources:        int(v.num("snapshot_sources")),
		Facts:          int(v.num("snapshot_facts")),
		Claims:         int(v.num("snapshot_claims")),
		PositiveClaims: int(v.num("snapshot_positive_claims")),
		NegativeClaims: int(v.num("snapshot_negative_claims")),
		Labeled:        int(v.num("snapshot_labeled")),
		Storage: store.StorageStats{
			Kind:            v.label("storage_backend", "kind"),
			Resident:        int(v.num("storage_resident_rows")),
			OnDisk:          int(v.num("storage_disk_rows")),
			Segments:        int(v.num("storage_segments")),
			SegmentBytes:    int64(v.num("storage_segment_bytes")),
			SegmentsScanned: uint64(v.num("storage_segments_scanned_total")),
			SegmentsSkipped: uint64(v.num("storage_segments_skipped_total")),
			PagesScanned:    uint64(v.num("storage_pages_scanned_total")),
		},
	}
}

// famView indexes parsed families by name for RenderStats.
type famView map[string]*obs.ParsedFamily

// num is an unlabeled family's value, 0 when it has no sample.
func (v famView) num(name string) float64 {
	if f := v[name]; f != nil && len(f.Samples) > 0 {
		return f.Samples[0].Value
	}
	return 0
}

// label is the value a family's samples carry for label: "" with no
// sample, "mixed" when merged partitions contributed different values.
func (v famView) label(name, label string) string {
	out := ""
	if f := v[name]; f != nil {
		for _, s := range f.Samples {
			for _, l := range s.Labels {
				if l.Name != label {
					continue
				}
				if out != "" && out != l.Value {
					return "mixed"
				}
				out = l.Value
			}
		}
	}
	return out
}

// handleStats renders /stats from the server's own exposition — the same
// families GET /metrics serves and a router merges.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	var buf bytes.Buffer
	s.reg.WritePrometheus(&buf) // a bytes.Buffer write cannot fail
	fams, err := obs.ParseExposition(&buf)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, codeInternal, err)
		return
	}
	s.writeJSON(w, http.StatusOK, RenderStats(fams))
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	var seq int64
	ready := false
	if sn := s.Snapshot(); sn != nil {
		ready, seq = true, sn.Seq
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"ready":    ready,
		"seq":      seq,
		"uptime_s": time.Since(s.started).Seconds(),
	})
}

// handleDurability reports the WAL, checkpoint and recovery state:
// {"enabled":false} on a memory-only server.
func (s *Server) handleDurability(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, s.DurabilityStats())
}

func (s *Server) handleRefit(w http.ResponseWriter, r *http.Request) {
	if s.rejectOnFollower(w) {
		return
	}
	override := RefitPolicy(r.URL.Query().Get("policy"))
	if override != "" && !override.valid() {
		s.writeError(w, http.StatusBadRequest, codeBadRequest, fmt.Errorf("serve: unknown refit policy %q", override))
		return
	}
	sn, err := s.Refit(override)
	switch {
	case err == ErrNoData:
		s.writeError(w, http.StatusConflict, codeNoData, err)
		return
	case err != nil:
		s.writeError(w, http.StatusInternalServerError, codeInternal, err)
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"seq":            sn.Seq,
		"mode":           sn.Mode,
		"compacted":      sn.Compacted,
		"dirty_entities": sn.DirtyEntities,
		"facts":          sn.Stats.Facts,
		"refit_ms":       float64(sn.RefitDuration) / float64(time.Millisecond),
		"freshness_ms":   float64(sn.Freshness) / float64(time.Millisecond),
	})
}
