package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"latenttruth/internal/core"
	"latenttruth/internal/model"
)

// TestServerConcurrentReadsDuringRefits is the serving layer's core
// guarantee under stress: with writers continuously POSTing claims and a
// goroutine forcing refits (exercising both the full Gibbs path and the
// stream.Online fast paths), concurrent GET /truth readers must never
// block on a refit and never observe a torn snapshot — every response's
// fact count, row count and sequence number must be mutually consistent,
// and sequence numbers must never go backwards for a reader.
//
// Run under -race (CI does) to also check the memory-model side of the
// atomic snapshot swap.
func TestServerConcurrentReadsDuringRefits(t *testing.T) {
	c := testCorpus(t, 7)
	s, err := New(Config{
		LTM:           core.Config{Iterations: 25, Seed: 1},
		Policy:        RefitOnline,
		FullEvery:     2, // alternate full and online under stress
		RefitInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Seed the server so readers always have a snapshot to hit.
	if _, err := s.Ingest(positiveRows(c.Dataset)); err != nil {
		t.Fatal(err)
	}
	first, err := s.Refit("")
	if err != nil {
		t.Fatal(err)
	}
	probe := first.Dataset.Entities[0] // known entity, present in every later snapshot

	ts := newHTTPServer(t, s)

	const (
		writers        = 3
		batchesPerW    = 20
		rowsPerBatch   = 6
		readers        = 4
		readsPerReader = 120
		forcedRefits   = 12
	)

	var wg sync.WaitGroup
	errc := make(chan error, writers+readers+1)
	fail := func(format string, args ...any) {
		select {
		case errc <- fmt.Errorf(format, args...):
		default:
		}
	}

	// Writers: continuous POST /claims traffic on fresh entities.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < batchesPerW; b++ {
				rows := make([]model.Row, rowsPerBatch)
				for i := range rows {
					rows[i] = model.Row{
						Entity:    fmt.Sprintf("stress-e%d-%d", w, b/2),
						Attribute: fmt.Sprintf("v%d", i),
						Source:    fmt.Sprintf("stress-s%d", (w+i)%4),
					}
				}
				resp := postClaims(t, ts, rows)
				if resp.StatusCode != http.StatusAccepted {
					fail("writer %d: status %d", w, resp.StatusCode)
				}
				resp.Body.Close()
			}
		}(w)
	}

	// Refitter: forced refits racing the readers and writers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < forcedRefits; i++ {
			resp, err := http.Post(ts+"/refit", "", nil)
			if err != nil {
				fail("refit %d: %v", i, err)
				return
			}
			if resp.StatusCode != http.StatusOK {
				fail("refit %d: status %d", i, resp.StatusCode)
			}
			resp.Body.Close()
		}
	}()

	// Readers: every response must be internally consistent and seq must
	// be monotone per reader.
	var reads atomic.Int64
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var lastSeq int64
			for i := 0; i < readsPerReader; i++ {
				var truth struct {
					Seq   int64      `json:"seq"`
					Facts int        `json:"facts"`
					Rows  []TruthRow `json:"rows"`
				}
				url := ts + "/truth"
				if i%3 == 1 {
					url += "?entity=" + urlQuery(probe)
				}
				resp, err := http.Get(url)
				if err != nil {
					fail("reader %d: %v", r, err)
					return
				}
				if resp.StatusCode != http.StatusOK {
					fail("reader %d: status %d (a complete snapshot must always be served)", r, resp.StatusCode)
					resp.Body.Close()
					return
				}
				if err := json.NewDecoder(resp.Body).Decode(&truth); err != nil {
					fail("reader %d: decode: %v", r, err)
					resp.Body.Close()
					return
				}
				resp.Body.Close()
				if truth.Seq < lastSeq {
					fail("reader %d: seq went backwards: %d after %d", r, truth.Seq, lastSeq)
					return
				}
				lastSeq = truth.Seq
				if truth.Facts != len(truth.Rows) || truth.Facts == 0 {
					fail("reader %d: torn read: facts=%d rows=%d seq=%d", r, truth.Facts, len(truth.Rows), truth.Seq)
					return
				}
				for _, row := range truth.Rows {
					if row.Entity == "" || row.Attribute == "" || row.Probability < 0 || row.Probability > 1 {
						fail("reader %d: corrupt row %+v at seq %d", r, row, truth.Seq)
						return
					}
				}
				reads.Add(1)
			}
		}(r)
	}

	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	if reads.Load() != int64(readers*readsPerReader) {
		t.Fatalf("only %d/%d reads completed", reads.Load(), readers*readsPerReader)
	}

	// Everything the writers sent is either still pending or compacted;
	// one final refit folds the rest in and the snapshot stays complete.
	sn, err := s.Refit("")
	if err != nil {
		t.Fatal(err)
	}
	checkSnapshotComplete(t, sn)
	for w := 0; w < writers; w++ {
		if _, err := sn.EntityTruth(fmt.Sprintf("stress-e%d-0", w)); err != nil {
			t.Fatalf("writer %d's entities never became visible: %v", w, err)
		}
	}
}

// TestSnapshotSwapInProcess hammers the atomic snapshot swap without HTTP
// in the way: in-process readers validate complete snapshots while refits
// run, which under -race directly checks the publication ordering of every
// field reachable from the snapshot pointer.
func TestSnapshotSwapInProcess(t *testing.T) {
	c := testCorpus(t, 8)
	s, err := New(Config{
		LTM:           core.Config{Iterations: 20, Seed: 2},
		Policy:        RefitOnline,
		FullEvery:     3,
		RefitInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Ingest(positiveRows(c.Dataset)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Refit(""); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastSeq int64
			for {
				select {
				case <-stop:
					return
				default:
				}
				sn := s.Snapshot()
				if sn == nil {
					continue
				}
				if sn.Seq < lastSeq {
					errs <- fmt.Errorf("seq went backwards: %d after %d", sn.Seq, lastSeq)
					return
				}
				lastSeq = sn.Seq
				if len(sn.Result.Prob) != sn.Dataset.NumFacts() ||
					len(sn.Records) != sn.Dataset.NumEntities() ||
					len(sn.entityByName) != sn.Dataset.NumEntities() {
					errs <- fmt.Errorf("torn snapshot at seq %d", sn.Seq)
					return
				}
			}
		}()
	}

	for i := 0; i < 8; i++ {
		rows := make([]model.Row, 5)
		for j := range rows {
			rows[j] = model.Row{
				Entity:    fmt.Sprintf("swap-e%d", i),
				Attribute: fmt.Sprintf("a%d", j),
				Source:    fmt.Sprintf("s%d", j%3),
			}
		}
		if _, err := s.Ingest(rows); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Refit(""); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}

// newHTTPServer starts an httptest server for s and returns its base URL.
func newHTTPServer(t *testing.T, s *Server) string {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}
