package loadgen

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// spanHeader carries the client span id to the handler wrapper, so a
// handler span can name the request that caused it.
const spanHeader = "X-Loadgen-Span"

// span is one timed interval of the traced run. Times are offsets from
// the tracer's start.
type span struct {
	ID     uint64        `json:"id"`
	Parent uint64        `json:"parent,omitempty"`
	Name   string        `json:"name"`
	Route  string        `json:"route,omitempty"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer records spans in memory, from the benchmark's side of each layer
// boundary: "client" around every request, "serve.handler" around the
// server's Handler().ServeHTTP, "serve.refit" around every Server.Refit
// call the benchmark makes. Nothing is added inside the program. All
// methods are no-ops on a nil tracer.
type tracer struct {
	start time.Time
	next  atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{start: time.Now()} }

func (t *tracer) now() time.Duration { return time.Since(t.start) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// clientStart opens a client span for req and returns its id.
func (t *tracer) clientStart(req *http.Request) uint64 {
	if t == nil {
		return 0
	}
	id := t.next.Add(1)
	req.Header.Set(spanHeader, strconv.FormatUint(id, 10))
	return id
}

// clientEnd closes the client span id; r's times are session offsets,
// converted through the session start s0.
func (t *tracer) clientEnd(s0 time.Time, id uint64, route string, r *result) {
	if t == nil {
		return
	}
	base := s0.Sub(t.start)
	t.add(span{ID: id, Name: "client", Route: route, Start: base + r.Sent, End: base + r.Done})
}

// wrap records a serve.handler span around every request h serves.
func (t *tracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64) // untagged requests have no parent
		start := t.now()
		h.ServeHTTP(w, r)
		t.add(span{ID: t.next.Add(1), Parent: parent, Name: "serve.handler", Start: start, End: t.now()})
	})
}

// routeTimes splits each route's client spans into handler time and
// transport time (client minus handler), in milliseconds.
func (t *tracer) routeTimes() (handler, transport map[string][]float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	byParent := make(map[uint64]span)
	for _, s := range t.spans {
		if s.Name == "serve.handler" && s.Parent != 0 {
			byParent[s.Parent] = s
		}
	}
	handler, transport = make(map[string][]float64), make(map[string][]float64)
	for _, s := range t.spans {
		h, ok := byParent[s.ID]
		if s.Name != "client" || !ok {
			continue
		}
		handler[s.Route] = append(handler[s.Route], ms(h.dur()))
		transport[s.Route] = append(transport[s.Route], ms(s.dur()-h.dur()))
	}
	return handler, transport
}

// write saves every span as one JSON line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err == nil {
			err = enc.Encode(s)
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
