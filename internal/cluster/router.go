package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"latenttruth/internal/model"
	"latenttruth/internal/obs"
	"latenttruth/internal/query"
	"latenttruth/internal/serve"
)

// maxClaimsBody bounds a routed POST /claims body, matching serve's limit.
const maxClaimsBody = 32 << 20

// Config configures a Router.
type Config struct {
	// Partitions are the primaries' base URLs in partition order
	// (http://host:port). The order IS the partition map: entity e lives
	// at Partitions[PartitionOf(e, len(Partitions))], so it must be
	// identical across router replicas and stable across restarts.
	Partitions []string
	// Client is the HTTP client for partition calls; nil uses a default
	// with a 30s timeout.
	Client *http.Client
	// Logger receives router diagnostics; nil discards them.
	Logger *log.Logger
	// Obs tunes the router's own observability: its request middleware
	// (router_http_* families, distinct from the partitions' http_* that
	// arrive through the merged /metrics scrape), slow-request logging
	// and log level.
	Obs serve.ObsConfig
}

// Router is the stateless scatter-gather front of a partitioned cluster:
// it owns no data and no fit state, so any number of replicas can run
// behind a load balancer — the partition map is pure hashing.
type Router struct {
	cfg    Config
	client *http.Client

	// reg holds the router-owned families; met the fan-out instruments
	// (nil when Obs.Disabled) and httpMW the request middleware (ditto).
	reg    *obs.Registry
	logger *obs.Logger
	met    *routerMetrics
	httpMW *obs.HTTPMetrics
}

// NewRouter validates the partition map and returns a router.
func NewRouter(cfg Config) (*Router, error) {
	if len(cfg.Partitions) == 0 {
		return nil, errors.New("cluster: router needs at least one partition")
	}
	for i, p := range cfg.Partitions {
		if p == "" {
			return nil, fmt.Errorf("cluster: partition %d has an empty address", i)
		}
	}
	c := cfg.Client
	if c == nil {
		c = &http.Client{Timeout: 30 * time.Second}
	}
	rt := &Router{cfg: cfg, client: c}
	rt.reg = obs.NewRegistry()
	rt.logger = obs.NewLogger(cfg.Logger, cfg.Obs.LogLevel)
	if !cfg.Obs.Disabled {
		rt.met = newRouterMetrics(rt.reg)
		rt.httpMW = obs.NewHTTPMetrics(rt.reg, "router_http_", rt.logger, cfg.Obs.SlowRequest)
	}
	return rt, nil
}

func (rt *Router) logf(format string, args ...any) {
	rt.logger.Infof(format, args...)
}

func (rt *Router) warnf(format string, args ...any) {
	rt.logger.Warnf(format, args...)
}

// Handler returns the router's HTTP API — the same surface as one
// serve.Server, plus GET /cluster for topology:
//
//	POST /claims  — split by entity hash, fan out, sum acks
//	GET  /truth   — entity-scoped: proxied to the owner; full-table:
//	                scatter-gather (rows sorted by entity, attribute)
//	GET  /quality — merged cross-partition quality (Table 8 order)
//	GET  /records — entity-scoped: proxied; full-table: scatter-gather
//	GET  /stats   — rendered from the merged /metrics families
//	GET  /healthz — cluster liveness (ready iff every partition is)
//	GET  /cluster — partition topology and per-partition health
//	GET  /metrics — cluster-wide exposition: every partition's /metrics
//	                merged by rule, plus the router's own families
//	POST /refit   — fan out to every partition
//
// With a single partition the router degenerates to a reverse proxy for
// claims, truth, quality, records and refits: those requests are
// forwarded verbatim, so K=1 responses are byte-identical to the
// primary's own (/stats is rendered at every K and adds the partition
// count). Cursor pagination is per-partition state and does not survive
// a scatter; full-table reads with a cursor are rejected with 400
// (entity-scoped cursors proxy fine).
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /claims", rt.handleClaims)
	mux.HandleFunc("GET /truth", rt.handleTruth)
	mux.HandleFunc("GET /quality", rt.handleQuality)
	mux.HandleFunc("GET /records", rt.handleRecords)
	mux.HandleFunc("GET /stats", rt.handleStats)
	mux.HandleFunc("GET /healthz", rt.handleHealthz)
	mux.HandleFunc("GET /cluster", rt.handleCluster)
	mux.HandleFunc("GET /metrics", rt.handleMetrics)
	mux.HandleFunc("POST /refit", rt.handleRefit)
	if rt.httpMW != nil {
		return rt.httpMW.Wrap(mux)
	}
	return mux
}

// k returns the partition count.
func (rt *Router) k() int { return len(rt.cfg.Partitions) }

func (rt *Router) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		rt.warnf("cluster: encoding response: %v", err)
	}
}

// Stable machine-readable error codes for the router's own responses
// (mirroring serve's envelope contract). Proxied responses pass the owning
// partition's envelope through byte-identically and are not rewritten.
const (
	codeBadRequest = "bad_request"
	// codePartitionDown: the partition owning the requested range is
	// unreachable or failing; the rest of the cluster still serves.
	codePartitionDown = "partition_down"
	codeUnavailable   = "unavailable"
	codeInternal      = "internal"
)

func (rt *Router) writeError(w http.ResponseWriter, status int, code string, err error) {
	rt.writeJSON(w, status, map[string]string{"error": err.Error(), "code": code})
}

// partitionError is a failed partition call, carrying the partition id so
// clients can tell a degraded range from a cluster-wide outage, and the
// partition's status code when it answered (0 when unreachable).
type partitionError struct {
	partition int
	status    int
	err       error
}

func (e partitionError) Error() string {
	return fmt.Sprintf("cluster: partition %d: %v", e.partition, e.err)
}
func (e partitionError) Unwrap() error { return e.err }

// writePartitionError maps a fan-out failure onto the router response: a
// 4xx from a partition is the client's error and passes through as 400
// (e.g. bad query parameters rejected by every partition alike); anything
// else — unreachable primary, 5xx — is 503 with the partition id, meaning
// the range that partition owns is unavailable while everything else
// still serves.
func (rt *Router) writePartitionError(w http.ResponseWriter, err error) {
	var pe partitionError
	if errors.As(err, &pe) {
		status, code := http.StatusServiceUnavailable, codePartitionDown
		if pe.status >= 400 && pe.status < 500 {
			status, code = http.StatusBadRequest, codeBadRequest
		}
		rt.writeJSON(w, status, map[string]any{
			"error":     err.Error(),
			"code":      code,
			"partition": pe.partition,
		})
		return
	}
	rt.writeError(w, http.StatusServiceUnavailable, codePartitionDown, err)
}

// proxy forwards the request verbatim to partition p and copies the
// response back byte-for-byte — entity-scoped reads keep the owner's
// exact semantics (404s, cursors, response bytes).
func (rt *Router) proxy(w http.ResponseWriter, r *http.Request, p int) {
	url := rt.cfg.Partitions[p] + r.URL.RequestURI()
	req, err := http.NewRequestWithContext(r.Context(), r.Method, url, r.Body)
	if err != nil {
		rt.met.proxyError(p)
		rt.writePartitionError(w, partitionError{partition: p, err: err})
		return
	}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		rt.met.proxyError(p)
		rt.writePartitionError(w, partitionError{partition: p, err: err})
		return
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(resp.StatusCode)
	if _, err := io.Copy(w, resp.Body); err != nil {
		rt.warnf("cluster: proxying partition %d: %v", p, err)
	}
}

// getRaw fetches path (with query) from partition p. Non-200 statuses
// become partitionErrors carrying the partition's own error body.
func (rt *Router) getRaw(ctx context.Context, p int, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rt.cfg.Partitions[p]+path, nil)
	if err != nil {
		return nil, partitionError{partition: p, err: err}
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return nil, partitionError{partition: p, err: err}
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxClaimsBody))
	if err != nil {
		return nil, partitionError{partition: p, err: err}
	}
	if resp.StatusCode != http.StatusOK {
		return nil, partitionError{partition: p, status: resp.StatusCode, err: fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))}
	}
	return body, nil
}

// getJSON fetches path from partition p and decodes its JSON response.
func (rt *Router) getJSON(ctx context.Context, p int, path string, v any) error {
	body, err := rt.getRaw(ctx, p, path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(body, v); err != nil {
		return partitionError{partition: p, err: err}
	}
	return nil
}

// fanout runs f(i) for every partition concurrently and returns the
// first error by partition order (deterministic when several fail).
func (rt *Router) fanout(f func(i int) error) error {
	errs := make([]error, rt.k())
	var wg sync.WaitGroup
	for i := 0; i < rt.k(); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start := time.Now()
			errs[i] = f(i)
			rt.met.observeLeg(i, time.Since(start).Seconds(), errs[i])
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// firstPartitionError extracts the lowest-partition failure for the
// response envelope.
func firstPartitionError(err error) error {
	if err == nil {
		return nil
	}
	var pe partitionError
	if errors.As(err, &pe) {
		return pe
	}
	return err
}

// --- ingest ---

type claimJSON struct {
	Entity    string `json:"entity"`
	Attribute string `json:"attribute"`
	Source    string `json:"source"`
}

type ingestAck struct {
	Accepted int   `json:"accepted"`
	Pending  int   `json:"pending"`
	Total    int64 `json:"total"`
}

// handleClaims validates the batch, splits it by entity hash, and fans the
// sub-batches out concurrently. Acks sum across partitions. A failed
// partition yields 503 with its id; sub-batches already acknowledged
// elsewhere stay ingested — the cumulative database de-duplicates rows, so
// retrying the whole batch is safe and converges (documented at-least-once
// ingest, exactly-once effect).
func (rt *Router) handleClaims(w http.ResponseWriter, r *http.Request) {
	if rt.k() == 1 {
		rt.proxy(w, r, 0)
		return
	}
	body := http.MaxBytesReader(w, r.Body, maxClaimsBody)
	var raw json.RawMessage
	if err := json.NewDecoder(body).Decode(&raw); err != nil {
		rt.writeError(w, http.StatusBadRequest, codeBadRequest, err)
		return
	}
	var claims []claimJSON
	if len(raw) > 0 && raw[0] == '{' {
		var envelope struct {
			Claims []claimJSON `json:"claims"`
		}
		if err := json.Unmarshal(raw, &envelope); err != nil {
			rt.writeError(w, http.StatusBadRequest, codeBadRequest, err)
			return
		}
		claims = envelope.Claims
	} else if err := json.Unmarshal(raw, &claims); err != nil {
		rt.writeError(w, http.StatusBadRequest, codeBadRequest, err)
		return
	}
	if len(claims) == 0 {
		rt.writeError(w, http.StatusBadRequest, codeBadRequest, errors.New("cluster: empty claim batch"))
		return
	}
	rows := make([]model.Row, len(claims))
	for i, c := range claims {
		rows[i] = model.Row{Entity: c.Entity, Attribute: c.Attribute, Source: c.Source}
	}
	if err := ValidateBatch(rows); err != nil {
		rt.writeError(w, http.StatusBadRequest, codeBadRequest, err)
		return
	}
	parts := SplitBatch(rows, rt.k())
	acks := make([]ingestAck, rt.k())
	err := rt.fanout(func(i int) error {
		if len(parts[i]) == 0 {
			return nil
		}
		sub := make([]claimJSON, len(parts[i]))
		for j, row := range parts[i] {
			sub[j] = claimJSON{Entity: row.Entity, Attribute: row.Attribute, Source: row.Source}
		}
		payload, err := json.Marshal(map[string]any{"claims": sub})
		if err != nil {
			return partitionError{partition: i, err: err}
		}
		req, err := http.NewRequestWithContext(r.Context(), http.MethodPost,
			rt.cfg.Partitions[i]+"/claims", bytes.NewReader(payload))
		if err != nil {
			return partitionError{partition: i, err: err}
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := rt.client.Do(req)
		if err != nil {
			return partitionError{partition: i, err: err}
		}
		defer resp.Body.Close()
		rb, err := io.ReadAll(io.LimitReader(resp.Body, maxClaimsBody))
		if err != nil {
			return partitionError{partition: i, err: err}
		}
		if resp.StatusCode != http.StatusAccepted {
			return partitionError{partition: i, status: resp.StatusCode, err: fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(rb))}
		}
		return json.Unmarshal(rb, &acks[i])
	})
	if err != nil {
		rt.writePartitionError(w, firstPartitionError(err))
		return
	}
	var sum ingestAck
	for _, a := range acks {
		sum.Accepted += a.Accepted
		sum.Pending += a.Pending
		sum.Total += a.Total
	}
	rt.writeJSON(w, http.StatusAccepted, map[string]any{
		"accepted": sum.Accepted,
		"pending":  sum.Pending,
		"total":    sum.Total,
	})
}

// --- truth ---

// truthPart is the decoded slice of one partition's /truth response the
// merge needs.
type truthPart struct {
	Seq       int64            `json:"seq"`
	Mode      string           `json:"mode"`
	FittedAt  time.Time        `json:"fitted_at"`
	Threshold float64          `json:"threshold"`
	Rows      []serve.TruthRow `json:"rows"`
}

// handleTruth routes entity-scoped queries to the owning partition
// verbatim and scatter-gathers everything else. Merged full-table rows
// are sorted by (entity, attribute) — a deterministic global order that,
// unlike a single primary's first-appearance order, does not depend on
// how batches interleaved across partitions. topk re-ranks by descending
// probability after gathering each partition's local top k.
func (rt *Router) handleTruth(w http.ResponseWriter, r *http.Request) {
	if rt.k() == 1 {
		rt.proxy(w, r, 0)
		return
	}
	q := r.URL.Query()
	if e := q.Get("entity"); e != "" {
		rt.proxy(w, r, PartitionOf(e, rt.k()))
		return
	}
	if q.Get("cursor") != "" {
		rt.writeError(w, http.StatusBadRequest, codeBadRequest,
			errors.New("cluster: cursor pagination is per-partition; scope the query with ?entity= or drop the cursor"))
		return
	}
	if agg := q.Get("agg"); agg != "" {
		rt.scatterAggregate(w, r, query.AggKind(agg))
		return
	}
	topk, _ := strconv.Atoi(q.Get("topk"))
	limit, _ := strconv.Atoi(q.Get("limit"))

	// topk scatters as-is (the global top k is a subset of the union of
	// per-partition top k), but limit must not: a partition cuts in its
	// local fact order, which could drop rows belonging to the global
	// sorted prefix — so the cut happens after the merge.
	q.Del("limit")
	path := "/truth"
	if enc := q.Encode(); enc != "" {
		path += "?" + enc
	}
	parts := make([]truthPart, rt.k())
	err := rt.fanout(func(i int) error {
		return rt.getJSON(r.Context(), i, path, &parts[i])
	})
	if err != nil {
		rt.writePartitionError(w, firstPartitionError(err))
		return
	}
	for i := 1; i < rt.k(); i++ {
		if parts[i].Threshold != parts[0].Threshold {
			rt.writeError(w, http.StatusServiceUnavailable, codeUnavailable,
				fmt.Errorf("cluster: partition %d threshold %v != partition 0 threshold %v",
					i, parts[i].Threshold, parts[0].Threshold))
			return
		}
	}
	var rows []serve.TruthRow
	for _, p := range parts {
		rows = append(rows, p.Rows...)
	}
	if topk > 0 {
		sort.SliceStable(rows, func(a, b int) bool {
			if rows[a].Probability != rows[b].Probability {
				return rows[a].Probability > rows[b].Probability
			}
			return lessEntityAttr(rows[a], rows[b])
		})
		if len(rows) > topk {
			rows = rows[:topk]
		}
	} else {
		sort.SliceStable(rows, func(a, b int) bool { return lessEntityAttr(rows[a], rows[b]) })
		if limit > 0 && len(rows) > limit {
			rows = rows[:limit]
		}
	}
	if rows == nil {
		rows = []serve.TruthRow{}
	}
	rt.writeJSON(w, http.StatusOK, map[string]any{
		"seq":       minSeq(seqs(parts)),
		"mode":      commonMode(parts),
		"fitted_at": maxFitted(parts),
		"threshold": parts[0].Threshold,
		"facts":     len(rows),
		"rows":      rows,
	})
}

func lessEntityAttr(a, b serve.TruthRow) bool {
	if a.Entity != b.Entity {
		return a.Entity < b.Entity
	}
	return a.Attribute < b.Attribute
}

func seqs(parts []truthPart) []int64 {
	out := make([]int64, len(parts))
	for i, p := range parts {
		out[i] = p.Seq
	}
	return out
}

func minSeq(seqs []int64) int64 {
	min := seqs[0]
	for _, s := range seqs[1:] {
		if s < min {
			min = s
		}
	}
	return min
}

func commonMode(parts []truthPart) string {
	mode := parts[0].Mode
	for _, p := range parts[1:] {
		if p.Mode != mode {
			return "mixed"
		}
	}
	return mode
}

func maxFitted(parts []truthPart) time.Time {
	t := parts[0].FittedAt
	for _, p := range parts[1:] {
		if p.FittedAt.After(t) {
			t = p.FittedAt
		}
	}
	return t
}

// scatterAggregate merges per-partition rollups. Entity groups are
// partition-local (each entity lives in exactly one partition), so their
// concatenation is exact; source groups span partitions and merge by
// summing counts, taking the max of MaxProb, and fact-weighting MeanProb
// — exact up to float summation order. Groups sort by key.
func (rt *Router) scatterAggregate(w http.ResponseWriter, r *http.Request, agg query.AggKind) {
	type aggPart struct {
		Seq    int64         `json:"seq"`
		Groups []query.Group `json:"groups"`
	}
	parts := make([]aggPart, rt.k())
	err := rt.fanout(func(i int) error {
		return rt.getJSON(r.Context(), i, "/truth?"+r.URL.Query().Encode(), &parts[i])
	})
	if err != nil {
		rt.writePartitionError(w, firstPartitionError(err))
		return
	}
	var groups []query.Group
	if agg == query.AggBySource {
		merged := make(map[string]query.Group)
		for _, p := range parts {
			for _, g := range p.Groups {
				m, ok := merged[g.Key]
				if !ok {
					merged[g.Key] = g
					continue
				}
				m.MeanProb = weightedMean(m.MeanProb, m.Facts, g.MeanProb, g.Facts)
				m.Facts += g.Facts
				m.Predicted += g.Predicted
				if g.MaxProb > m.MaxProb {
					m.MaxProb = g.MaxProb
				}
				m.PositiveClaims += g.PositiveClaims
				m.NegativeClaims += g.NegativeClaims
				merged[g.Key] = m
			}
		}
		for _, g := range merged {
			groups = append(groups, g)
		}
	} else {
		for _, p := range parts {
			groups = append(groups, p.Groups...)
		}
	}
	sort.Slice(groups, func(a, b int) bool { return groups[a].Key < groups[b].Key })
	if groups == nil {
		groups = []query.Group{}
	}
	seqList := make([]int64, len(parts))
	for i, p := range parts {
		seqList[i] = p.Seq
	}
	rt.writeJSON(w, http.StatusOK, map[string]any{
		"seq": minSeq(seqList), "agg": agg, "count": len(groups), "groups": groups,
	})
}

func weightedMean(m1 float64, n1 int, m2 float64, n2 int) float64 {
	if n1+n2 == 0 {
		return 0
	}
	return (m1*float64(n1) + m2*float64(n2)) / float64(n1+n2)
}

// --- quality ---

// handleQuality gathers every partition's count basis and serves the
// merged Table 8 — the cross-partition reconciliation the package doc
// describes. The response shape matches a single server's /quality; seq
// is the cluster floor (min over partitions).
func (rt *Router) handleQuality(w http.ResponseWriter, r *http.Request) {
	if rt.k() == 1 {
		rt.proxy(w, r, 0)
		return
	}
	parts := make([]serve.PartitionQuality, rt.k())
	err := rt.fanout(func(i int) error {
		return rt.getJSON(r.Context(), i, "/partition/quality", &parts[i])
	})
	if err != nil {
		rt.writePartitionError(w, firstPartitionError(err))
		return
	}
	merged, err := MergeQuality(parts)
	if err != nil {
		rt.writeError(w, http.StatusServiceUnavailable, codeUnavailable, err)
		return
	}
	seqList := make([]int64, len(parts))
	for i, p := range parts {
		seqList[i] = p.Seq
	}
	type qualityJSON struct {
		Source      string  `json:"source"`
		Sensitivity float64 `json:"sensitivity"`
		Specificity float64 `json:"specificity"`
		Precision   float64 `json:"precision"`
		Accuracy    float64 `json:"accuracy"`
	}
	rows := make([]qualityJSON, len(merged))
	for i, s := range merged {
		rows[i] = qualityJSON{s.Source, s.Sensitivity, s.Specificity, s.Precision, s.Accuracy}
	}
	rt.writeJSON(w, http.StatusOK, map[string]any{"seq": minSeq(seqList), "sources": rows})
}

// --- records ---

type recordPart struct {
	Seq     int64             `json:"seq"`
	Records []json.RawMessage `json:"records"`
}

// recordKey extracts the entity name for merge ordering without
// re-encoding the record (the owner's bytes pass through untouched).
func recordKey(raw json.RawMessage) string {
	var k struct {
		Entity string `json:"entity"`
	}
	_ = json.Unmarshal(raw, &k)
	return k.Entity
}

// handleRecords proxies entity-scoped lookups to the owner and
// scatter-gathers the full record table otherwise, sorted by entity name.
func (rt *Router) handleRecords(w http.ResponseWriter, r *http.Request) {
	if rt.k() == 1 {
		rt.proxy(w, r, 0)
		return
	}
	q := r.URL.Query()
	if e := q.Get("entity"); e != "" {
		rt.proxy(w, r, PartitionOf(e, rt.k()))
		return
	}
	if q.Get("cursor") != "" {
		rt.writeError(w, http.StatusBadRequest, codeBadRequest,
			errors.New("cluster: cursor pagination is per-partition; scope the query with ?entity= or drop the cursor"))
		return
	}
	limit, _ := strconv.Atoi(q.Get("limit"))
	// Fetch without limit so the global cut happens after the merge (a
	// per-partition limit would skew toward low partitions).
	q.Del("limit")
	path := "/records"
	if enc := q.Encode(); enc != "" {
		path += "?" + enc
	}
	parts := make([]recordPart, rt.k())
	err := rt.fanout(func(i int) error {
		return rt.getJSON(r.Context(), i, path, &parts[i])
	})
	if err != nil {
		rt.writePartitionError(w, firstPartitionError(err))
		return
	}
	var recs []json.RawMessage
	for _, p := range parts {
		recs = append(recs, p.Records...)
	}
	sort.SliceStable(recs, func(a, b int) bool { return recordKey(recs[a]) < recordKey(recs[b]) })
	if limit > 0 && len(recs) > limit {
		recs = recs[:limit]
	}
	if recs == nil {
		recs = []json.RawMessage{}
	}
	seqList := make([]int64, len(parts))
	for i, p := range parts {
		seqList[i] = p.Seq
	}
	rt.writeJSON(w, http.StatusOK, map[string]any{
		"seq": minSeq(seqList), "records": recs, "count": len(recs),
	})
}

// --- stats / health / topology / refit ---

// handleStats renders the cluster's /stats from the partitions' merged
// /metrics with serve.RenderStats — the one rendering a single server
// uses — so every field combines by its family's merge rule. sources is
// then replaced by the size of the union of the partitions' quality
// source names when every partition serves a quality basis; otherwise it
// keeps the merged per-partition maximum, a lower bound.
func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	merged, ok := rt.mergedMetrics(w, r)
	if !ok {
		return
	}
	fams, err := obs.ParseExposition(bytes.NewReader(merged))
	if err != nil {
		rt.writeError(w, http.StatusInternalServerError, codeInternal, err)
		return
	}
	st := serve.RenderStats(fams)
	qparts := make([]serve.PartitionQuality, rt.k())
	if err := rt.fanout(func(i int) error {
		return rt.getJSON(r.Context(), i, "/partition/quality", &qparts[i])
	}); err == nil {
		union := make(map[string]struct{})
		for _, p := range qparts {
			for name := range p.Counts {
				union[name] = struct{}{}
			}
		}
		st.Sources = len(union)
	}
	st.Partitions = rt.k()
	rt.writeJSON(w, http.StatusOK, st)
}

// partitionHealth is one partition's row in /healthz and /cluster.
type partitionHealth struct {
	Partition int    `json:"partition"`
	URL       string `json:"url"`
	Up        bool   `json:"up"`
	Ready     bool   `json:"ready"`
	Seq       int64  `json:"seq"`
	Error     string `json:"error,omitempty"`
}

func (rt *Router) partitionHealths(ctx context.Context) []partitionHealth {
	out := make([]partitionHealth, rt.k())
	_ = rt.fanout(func(i int) error {
		out[i] = partitionHealth{Partition: i, URL: rt.cfg.Partitions[i]}
		var h struct {
			Ready bool  `json:"ready"`
			Seq   int64 `json:"seq"`
		}
		if err := rt.getJSON(ctx, i, "/healthz", &h); err != nil {
			out[i].Error = err.Error()
			return nil
		}
		out[i].Up, out[i].Ready, out[i].Seq = true, h.Ready, h.Seq
		return nil
	})
	return out
}

// handleHealthz reports cluster liveness: ready iff every partition is up
// and ready; seq is the cluster floor. Always 200 — degraded state is in
// the body, per-partition.
func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	hs := rt.partitionHealths(r.Context())
	ready := true
	var seq int64
	for i, h := range hs {
		if !h.Up || !h.Ready {
			ready = false
		}
		if i == 0 || h.Seq < seq {
			seq = h.Seq
		}
	}
	rt.writeJSON(w, http.StatusOK, map[string]any{
		"status": "ok", "ready": ready, "seq": seq, "partitions": hs,
	})
}

// handleCluster serves the partition topology — the hash map a client
// needs to talk to owners directly, plus live health.
func (rt *Router) handleCluster(w http.ResponseWriter, r *http.Request) {
	rt.writeJSON(w, http.StatusOK, map[string]any{
		"partitions": rt.k(),
		"hash":       "fnv1a32 % partitions",
		"members":    rt.partitionHealths(r.Context()),
	})
}

// handleRefit fans a refit out to every partition and gathers the
// results. Partition fits are independent — there is no cross-partition
// barrier — so a failure on one range 503s with its id while the others'
// refits stand.
func (rt *Router) handleRefit(w http.ResponseWriter, r *http.Request) {
	if rt.k() == 1 {
		rt.proxy(w, r, 0)
		return
	}
	results := make([]map[string]any, rt.k())
	err := rt.fanout(func(i int) error {
		path := rt.cfg.Partitions[i] + "/refit"
		if pol := r.URL.Query().Get("policy"); pol != "" {
			path += "?policy=" + pol
		}
		req, err := http.NewRequestWithContext(r.Context(), http.MethodPost, path, nil)
		if err != nil {
			return partitionError{partition: i, err: err}
		}
		resp, err := rt.client.Do(req)
		if err != nil {
			return partitionError{partition: i, err: err}
		}
		defer resp.Body.Close()
		rb, err := io.ReadAll(io.LimitReader(resp.Body, maxClaimsBody))
		if err != nil {
			return partitionError{partition: i, err: err}
		}
		// 409 (no data) is fine for an empty partition: entity hashing can
		// leave a range empty on small corpora.
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusConflict {
			return partitionError{partition: i, status: resp.StatusCode, err: fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(rb))}
		}
		var v map[string]any
		if err := json.Unmarshal(rb, &v); err != nil {
			return partitionError{partition: i, err: err}
		}
		v["partition"] = i
		results[i] = v
		return nil
	})
	if err != nil {
		rt.writePartitionError(w, firstPartitionError(err))
		return
	}
	rt.writeJSON(w, http.StatusOK, map[string]any{"partitions": results})
}
