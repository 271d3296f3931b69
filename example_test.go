package latenttruth_test

import (
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"

	"latenttruth"
)

// Example demonstrates end-to-end truth discovery on the paper's running
// example: conflicting cast lists for Harry Potter.
func Example() {
	st := latenttruth.NewMemoryStorage()
	for _, r := range [][3]string{
		{"Harry Potter", "Daniel Radcliffe", "IMDB"},
		{"Harry Potter", "Emma Watson", "IMDB"},
		{"Harry Potter", "Rupert Grint", "IMDB"},
		{"Harry Potter", "Daniel Radcliffe", "Netflix"},
		{"Harry Potter", "Daniel Radcliffe", "BadSource.com"},
		{"Harry Potter", "Emma Watson", "BadSource.com"},
		{"Harry Potter", "Johnny Depp", "BadSource.com"},
		{"Pirates 4", "Johnny Depp", "Hulu.com"},
	} {
		st.AddRow(latenttruth.Row{Entity: r[0], Attribute: r[1], Source: r[2]})
	}
	ds := latenttruth.BuildDatasetRows(st.Rows())
	fmt.Printf("%d facts, %d claims (%d positive)\n",
		ds.NumFacts(), ds.NumClaims(), ds.NumPositiveClaims())

	// Domain knowledge from the paper's Example 1, supplied as per-source
	// priors: Netflix omits but never fabricates; BadSource is sloppy.
	cfg := latenttruth.Config{
		Priors:     latenttruth.DefaultPriors(ds.NumFacts()),
		Iterations: 500,
		Seed:       7,
		SourcePriors: map[string]latenttruth.Priors{
			"IMDB":          {TP: 90, FN: 10, FP: 1, TN: 99},
			"Netflix":       {TP: 30, FN: 70, FP: 1, TN: 99},
			"BadSource.com": {TP: 50, FN: 50, FP: 30, TN: 70},
		},
	}
	fit, err := latenttruth.NewLTM(cfg).Fit(ds)
	if err != nil {
		log.Fatal(err)
	}
	records, err := latenttruth.Integrate(ds, fit.Result, 0.5)
	if err != nil {
		log.Fatal(err)
	}
	for _, rec := range records {
		if rec.Entity != "Harry Potter" {
			continue
		}
		for _, a := range rec.Attributes {
			fmt.Println("accept", a.Value)
		}
		for _, a := range rec.Rejected {
			fmt.Println("reject", a.Value)
		}
	}
	// Output:
	// 5 facts, 13 claims (8 positive)
	// accept Daniel Radcliffe
	// accept Emma Watson
	// accept Rupert Grint
	// reject Johnny Depp
}

// ExampleNewIncremental shows the §5.4 online flow: learn source quality
// once, then score new data with the closed-form LTMinc posterior.
func ExampleNewIncremental() {
	corpus, err := latenttruth.BookCorpus(42)
	if err != nil {
		log.Fatal(err)
	}
	// Train on the first half, predict the second half.
	batches := latenttruth.SplitEntities(corpus.Dataset, 2)
	fit, err := latenttruth.NewLTM(latenttruth.Config{Seed: 1}).Fit(batches[0])
	if err != nil {
		log.Fatal(err)
	}
	inc, err := latenttruth.NewIncremental(batches[0], fit)
	if err != nil {
		log.Fatal(err)
	}
	res, err := inc.Infer(batches[1])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Method, "scored", len(res.Prob), "facts without sampling")
	// Output:
	// LTMinc scored 1320 facts without sampling
}

// ExampleFitSharded shows entity-sharded parallel inference: the exact
// barrier mode (syncEvery = 1) reproduces the single-engine fit bit for
// bit, and the parallel mode (syncEvery > 1) trades per-sweep
// synchronization for concurrency at a tiny posterior drift.
func ExampleFitSharded() {
	corpus, err := latenttruth.BookCorpus(42)
	if err != nil {
		log.Fatal(err)
	}
	ds := corpus.Dataset
	cfg := latenttruth.Config{Seed: 7}

	single, err := latenttruth.NewLTM(cfg).Fit(ds)
	if err != nil {
		log.Fatal(err)
	}
	exact, err := latenttruth.FitSharded(ds, cfg, 4, 1)
	if err != nil {
		log.Fatal(err)
	}
	identical := true
	for i := range single.Prob {
		if exact.Prob[i] != single.Prob[i] {
			identical = false
		}
	}
	fmt.Printf("exact mode (S=1, 4 shards) bit-identical over %d facts: %v\n", ds.NumFacts(), identical)

	parallel, err := latenttruth.FitSharded(ds, cfg, 4, latenttruth.DefaultSyncEvery)
	if err != nil {
		log.Fatal(err)
	}
	var worst float64
	for i := range single.Prob {
		if d := parallel.Prob[i] - single.Prob[i]; d > worst || -d > worst {
			if d < 0 {
				d = -d
			}
			worst = d
		}
	}
	fmt.Printf("parallel mode (S=%d) max posterior drift below 0.01: %v\n",
		latenttruth.DefaultSyncEvery, worst < 0.01)
	// Output:
	// exact mode (S=1, 4 shards) bit-identical over 2637 facts: true
	// parallel mode (S=5) max posterior drift below 0.01: true
}

// ExampleNewTruthServer shows the truthserve client flow against an
// in-process daemon: ingest claims over HTTP, force a refit, query the
// served truth table. The same handler backs cmd/truthserve.
func ExampleNewTruthServer() {
	srv, err := latenttruth.NewTruthServer(latenttruth.ServeConfig{
		LTM:           latenttruth.Config{Iterations: 200, Seed: 7},
		RefitInterval: -1, // refit on demand here; production uses the timer
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := `{"claims":[
		{"entity":"Harry Potter","attribute":"Daniel Radcliffe","source":"IMDB"},
		{"entity":"Harry Potter","attribute":"Emma Watson","source":"IMDB"},
		{"entity":"Harry Potter","attribute":"Daniel Radcliffe","source":"Netflix"},
		{"entity":"Harry Potter","attribute":"Daniel Radcliffe","source":"BadSource.com"},
		{"entity":"Harry Potter","attribute":"Johnny Depp","source":"BadSource.com"},
		{"entity":"Pirates 4","attribute":"Johnny Depp","source":"IMDB"},
		{"entity":"Pirates 4","attribute":"Johnny Depp","source":"Netflix"}]}`
	resp, err := http.Post(ts.URL+"/claims", "application/json", strings.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()

	resp, err = http.Post(ts.URL+"/refit", "", nil)
	if err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/truth?entity=Harry%20Potter&attribute=Daniel%20Radcliffe")
	if err != nil {
		log.Fatal(err)
	}
	var truth struct {
		Rows []struct {
			Entity    string `json:"entity"`
			Attribute string `json:"attribute"`
			Predicted bool   `json:"predicted"`
		} `json:"rows"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&truth); err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	row := truth.Rows[0]
	fmt.Printf("%s / %s predicted true: %v\n", row.Entity, row.Attribute, row.Predicted)
	// Output:
	// Harry Potter / Daniel Radcliffe predicted true: true
}

// ExampleGaussianTruth shows the §7 real-valued variant on numeric claims.
func ExampleGaussianTruth() {
	claims := []latenttruth.NumericClaim{
		{Entity: "movie", Source: "archive", Value: 120.2},
		{Entity: "movie", Source: "wiki", Value: 118.0},
		{Entity: "movie2", Source: "archive", Value: 95.1},
		{Entity: "movie2", Source: "wiki", Value: 97.0},
	}
	res, err := latenttruth.GaussianTruth(claims, latenttruth.GaussianConfig{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("movie runtime ≈ %.0f\n", res.Truth["movie"])
	// Output:
	// movie runtime ≈ 119
}
