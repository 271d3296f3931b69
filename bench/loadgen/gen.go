package loadgen

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// call is one HTTP request the generator sends.
type call struct {
	Route  string
	Method string
	Target string // path and query
	Body   []byte
	// Due is when an open-loop call should be sent, as an offset from the
	// window start.
	Due time.Duration
	// Conn selects the client (0 or 1).
	Conn int
	// Batch is the write batch a POST /claims carries, -1 otherwise.
	Batch int
	// Keep keeps the response body; MayBeAbsent accepts a 404 (a probe
	// that is not visible yet).
	Keep, MayBeAbsent bool
}

// result is what one call observed. Times are offsets from the session
// start; Late is how far behind Due the generator handed the call over.
type result struct {
	Due, Late, Sent, Done time.Duration
	Status                int
	Err                   error
	Body                  []byte
}

// ok reports whether the call succeeded.
func (r *result) ok() bool {
	return r.Err == nil && (r.Status == http.StatusOK || r.Status == http.StatusAccepted)
}

// latencyMs is the latency from when the call was due, +Inf for a failed
// call.
func (r *result) latencyMs() float64 {
	if !r.ok() {
		return inf
	}
	return ms(r.Done - r.Due)
}

// session drives one server over at most two HTTP connections.
type session struct {
	base    string
	start   time.Time
	clients [2]*http.Client
	tracer  *tracer // nil in the untraced run

	attempted, failed atomic.Int64
}

// requestTimeout bounds one request so a wedged server fails the run
// instead of hanging it.
const requestTimeout = 60 * time.Second

// newSession opens a session on base: two clients of one connection each.
func newSession(base string, tr *tracer) *session {
	s := &session{base: base, start: time.Now(), tracer: tr}
	for i := range s.clients {
		s.clients[i] = &http.Client{Timeout: requestTimeout, Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}}
	}
	return s
}

func (s *session) since() time.Duration { return time.Since(s.start) }

func (s *session) close() {
	for _, c := range s.clients {
		c.CloseIdleConnections()
	}
}

// send performs c and fills r's Sent, Done, Status, Err and Body. A
// request queued behind a busy connection waits inside the transport, so
// that wait counts towards its latency from Due.
func (s *session) send(c *call, r *result) {
	s.attempted.Add(1)
	var body io.Reader
	if c.Body != nil {
		body = bytes.NewReader(c.Body)
	}
	req, err := http.NewRequest(c.Method, s.base+c.Target, body)
	if err != nil {
		r.Err = err
		s.failed.Add(1)
		return
	}
	if c.Body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	id := s.tracer.clientStart(req)
	r.Sent = s.since()
	resp, err := s.clients[c.Conn].Do(req)
	if err == nil {
		if c.Keep {
			r.Body, err = io.ReadAll(resp.Body)
		} else {
			_, err = io.Copy(io.Discard, resp.Body)
		}
		resp.Body.Close()
		r.Status = resp.StatusCode
	}
	r.Done = s.since()
	r.Err = err
	if !r.ok() && !(c.MayBeAbsent && err == nil && r.Status == http.StatusNotFound) {
		s.failed.Add(1)
		if r.Err == nil {
			r.Err = fmt.Errorf("%s %s: status %d", c.Method, c.Target, r.Status)
		}
	}
	s.tracer.clientEnd(s.start, id, c.Route, r)
}

// do sends c now and waits for it (a closed-loop call: due when sent).
func (s *session) do(c call) result {
	var r result
	s.send(&c, &r)
	r.Due = r.Sent
	return r
}

// openLoop sends every call at its due time, whether or not earlier calls
// have completed, and returns when all have. after, if non-nil, runs on
// each call's goroutine once it completes.
func (s *session) openLoop(calls []call, after func(i int, r *result)) []result {
	res := make([]result, len(calls))
	var wg sync.WaitGroup
	for i := range calls {
		sleepUntil(s.start.Add(calls[i].Due))
		res[i].Due = calls[i].Due
		res[i].Late = s.since() - calls[i].Due
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.send(&calls[i], &res[i])
			if after != nil {
				after(i, &res[i])
			}
		}()
	}
	wg.Wait()
	return res
}
