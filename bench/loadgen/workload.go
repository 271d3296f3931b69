package loadgen

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"

	"latenttruth/internal/model"
)

// pollEvery is the /healthz poll period used to detect new snapshots.
const pollEvery = 5 * time.Millisecond

// drainWait is how long after the schedule ends the generator waits for
// the last probes: a rate step whose backlog is not visible within it is
// not sustained.
const drainWait = 2 * time.Second

// read is one read request of a mix; replays run the same reads without
// HTTP.
type read struct {
	Route  string
	Entity string
	Source string
	Conn   int
}

// target renders r as a request path.
func (r read) target() string {
	switch r.Route {
	case "truth_entity":
		return "/truth?entity=" + url.QueryEscape(r.Entity)
	case "records_entity":
		return "/records?entity=" + url.QueryEscape(r.Entity)
	case "claims_entity":
		return "/claims?entity=" + url.QueryEscape(r.Entity)
	case "truth_source":
		return "/truth?source=" + url.QueryEscape(r.Source) + "&limit=100"
	case "truth_topk":
		return "/truth?topk=100"
	case "truth_agg":
		return "/truth?agg=source"
	}
	panic("loadgen: unknown read route " + r.Route)
}

// readMix draws n reads from mix: entities by a zipf law (s=1.1) over the
// entities the preload holds, sources uniformly.
func readMix(c *Corpus, mix []weighted, n int, seed int64) []read {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x4ead))
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(c.readable)-1))
	total := 0.0
	for _, w := range mix {
		total += w.Weight
	}
	out := make([]read, n)
	for i := range out {
		u, pick := rng.Float64()*total, mix[len(mix)-1]
		for _, w := range mix {
			if u < w.Weight {
				pick = w
				break
			}
			u -= w.Weight
		}
		out[i] = read{
			Route:  pick.Route,
			Conn:   pick.Conn,
			Entity: c.DS.Entities[c.readable[zipf.Uint64()]],
			Source: c.DS.Sources[rng.IntN(c.DS.NumSources())],
		}
	}
	return out
}

// claimsBody encodes a batch as a POST /claims body.
func claimsBody(rows []model.Row) []byte {
	type claim struct {
		Entity    string `json:"entity"`
		Attribute string `json:"attribute"`
		Source    string `json:"source"`
	}
	body := struct {
		Claims []claim `json:"claims"`
	}{make([]claim, len(rows))}
	for i, r := range rows {
		body.Claims[i] = claim{r.Entity, r.Attribute, r.Source}
	}
	b, err := json.Marshal(body)
	if err != nil {
		panic(err) // strings and a fixed struct always encode
	}
	return b
}

func writeCall(c *Corpus, b int, conn int, due time.Duration) call {
	return call{Route: "post_claims", Method: http.MethodPost, Target: "/claims",
		Body: claimsBody(c.Batches[b]), Due: due, Conn: conn, Batch: b}
}

// probe tracks one new fact from its POST ack until /truth returns it.
type probe struct {
	row     model.Row
	step    int
	acked   bool
	seen    bool
	ack     time.Duration
	visible time.Duration
	checked int64 // snapshot seq of the last check that missed it
}

// probeSet is shared between the write goroutines that ack probes and the
// poller that resolves them.
type probeSet struct {
	mu     sync.Mutex
	probes []*probe // by batch; nil where the batch has none
}

func (ps *probeSet) acked(b int, at time.Duration) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if p := ps.probes[b]; p != nil {
		p.acked, p.ack, p.checked = true, at, -1
	}
}

// due returns the acked, unseen probes not yet checked against seq.
func (ps *probeSet) due(seq int64) []*probe {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	var out []*probe
	for _, p := range ps.probes {
		if p != nil && p.acked && !p.seen && p.checked < seq {
			out = append(out, p)
		}
	}
	return out
}

func (ps *probeSet) mark(p *probe, seq int64, r *result) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if r.ok() {
		p.seen, p.visible = true, r.Done
	} else {
		p.checked = seq
	}
}

// outstanding counts acked probes not yet seen.
func (ps *probeSet) outstanding() int {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	n := 0
	for _, p := range ps.probes {
		if p != nil && p.acked && !p.seen {
			n++
		}
	}
	return n
}

// check asks /truth for p once and records the outcome.
func (ps *probeSet) check(s *session, conn int, p *probe, seq int64) {
	r := s.do(call{Route: "truth_entity", Method: http.MethodGet, Conn: conn, MayBeAbsent: true,
		Target: "/truth?entity=" + url.QueryEscape(p.row.Entity) + "&attribute=" + url.QueryEscape(p.row.Attribute)})
	ps.mark(p, seq, &r)
}

// poll watches /healthz every pollEvery and, each time the snapshot seq
// moves (or a probe was acked since the last look), checks the outstanding
// probes. It returns when stop is closed.
func (ps *probeSet) poll(s *session, conn int, stop <-chan struct{}) {
	t := time.NewTicker(pollEvery)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		r := s.do(call{Route: "healthz", Method: http.MethodGet, Target: "/healthz", Conn: conn, Keep: true})
		var h struct {
			Seq int64 `json:"seq"`
		}
		if !r.ok() || json.Unmarshal(r.Body, &h) != nil {
			continue
		}
		for _, p := range ps.due(h.Seq) {
			ps.check(s, conn, p, h.Seq)
		}
	}
}

// stepSpan is one write rate step's part of the window.
type stepSpan struct {
	Rate float64
	End  time.Duration
}

// traffic is everything one window observed.
type traffic struct {
	window time.Duration
	steps  []stepSpan
	writes []result // POST /claims, with wStep giving each one's step
	wStep  []int
	reads  []result
	// lookups are the reads scoped to one entity: /truth?entity=,
	// /records?entity= and /claims?entity=.
	lookups []result
	refits  []result
	late    []float64 // ms
	probes  *probeSet
	sent    []bool // batches acked
	acked   int    // rows acked
}

// drive runs the workload's window on s, whose start is the window start.
func drive(s *session, spec Spec, c *Corpus, seconds float64, seed int64) *traffic {
	window := time.Duration(seconds * float64(time.Second))
	tr := &traffic{window: window, sent: make([]bool, len(c.Batches)),
		probes: &probeSet{probes: make([]*probe, len(c.Batches))}}
	if spec.Refits > 0 {
		tr.closedLoop(s, spec, c)
		return tr
	}

	var calls []call
	b := 0
	var start time.Duration
	for i, st := range spec.Writes {
		n := stepBatches(st, seconds)
		span := time.Duration(st.Share * float64(window))
		for k := 0; k < n; k++ {
			due := start + time.Duration(float64(k)*float64(span)/float64(n))
			calls = append(calls, writeCall(c, b, 0, due))
			if p := c.Probes[b]; p != nil {
				tr.probes.probes[b] = &probe{row: *p, step: i}
			}
			b++
		}
		tr.steps = append(tr.steps, stepSpan{Rate: st.Rate, End: start + span})
		start += span
	}
	if spec.ReadRate > 0 {
		n := int(spec.ReadRate * seconds)
		for k, r := range readMix(c, spec.ReadMix, n, seed) {
			calls = append(calls, call{Route: r.Route, Method: http.MethodGet, Target: r.target(),
				Due: time.Duration(float64(k) * float64(window) / float64(n)), Conn: r.Conn, Batch: -1})
		}
	}
	sort.SliceStable(calls, func(i, j int) bool { return calls[i].Due < calls[j].Due })

	stop := make(chan struct{})
	var wg sync.WaitGroup
	if len(spec.Writes) > 0 {
		// Probes are watched on the connection the gated latency does not
		// use: reads keep theirs on mixed_segments.
		pconn := 1
		if spec.ReadRate > 0 {
			pconn = 0
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr.probes.poll(s, pconn, stop)
		}()
	}
	var mu sync.Mutex
	res := s.openLoop(calls, func(i int, r *result) {
		if b := calls[i].Batch; b >= 0 && r.ok() {
			tr.probes.acked(b, r.Done)
			mu.Lock()
			tr.sent[b] = true
			tr.acked += len(c.Batches[b])
			mu.Unlock()
		}
	})
	for deadline := s.since() + drainWait; tr.probes.outstanding() > 0 && s.since() < deadline; {
		time.Sleep(pollEvery)
	}
	close(stop)
	wg.Wait()

	for i, r := range res {
		tr.late = append(tr.late, ms(r.Late))
		if calls[i].Batch >= 0 {
			tr.writes = append(tr.writes, r)
			tr.wStep = append(tr.wStep, tr.stepOf(r.Due))
		} else {
			tr.reads = append(tr.reads, r)
			if strings.HasSuffix(calls[i].Route, "_entity") {
				tr.lookups = append(tr.lookups, r)
			}
		}
	}
	return tr
}

// closedLoop is refit_full: one client alternates a 32-row batch and a
// forced full refit until the cycles or the window run out. Lateness is
// the generator's own gap between one reply and the next request.
func (tr *traffic) closedLoop(s *session, spec Spec, c *Corpus) {
	var prev time.Duration
	for b := 0; b < spec.Refits && b < len(c.Batches) && s.since() < tr.window; b++ {
		w := s.do(writeCall(c, b, 0, 0))
		tr.late = append(tr.late, ms(w.Sent-prev))
		tr.writes, tr.wStep = append(tr.writes, w), append(tr.wStep, 0)
		if w.ok() {
			tr.sent[b] = true
			tr.acked += len(c.Batches[b])
		}
		r := s.do(call{Route: "post_refit", Method: http.MethodPost, Target: "/refit?policy=full", Batch: -1})
		tr.late = append(tr.late, ms(r.Sent-w.Done))
		tr.refits = append(tr.refits, r)
		prev = r.Done
	}
}

func (tr *traffic) stepOf(due time.Duration) int {
	for i, st := range tr.steps {
		if due < st.End {
			return i
		}
	}
	return len(tr.steps) - 1
}

// flush sends, closed loop, every batch the window did not: the tail of
// refit_full's stream, and the last partial batch. The served corpus must
// end up equal to the full corpus.
func (tr *traffic) flush(s *session, c *Corpus) error {
	for b, sent := range tr.sent {
		if sent {
			continue
		}
		r := s.do(writeCall(c, b, 0, 0))
		if !r.ok() {
			return fmt.Errorf("flushing batch %d: %v", b, r.Err)
		}
		tr.sent[b] = true
		tr.acked += len(c.Batches[b])
	}
	return nil
}
