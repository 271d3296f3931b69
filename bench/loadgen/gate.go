package loadgen

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/url"

	"latenttruth/internal/store"
)

// accuracyFloor is the lowest accuracy any workload has served in
// measured runs, less a margin; below it the model, not the timing,
// changed.
const accuracyFloor = 0.85

// entityChecks is how many entities the gate reads back.
const entityChecks = 100

// final is the served state after a run, as the correctness gate sees it.
type final struct {
	Facts, PositiveClaims int
	IngestedTotal         int64
	// Acked counts rows acknowledged after the preload: the window's and the
	// flush's batches, plus any sweep batches.
	Acked      int
	Unresolved int
	Mismatches []string
	// Accuracy is the share of the Labeled corpus facts whose served
	// decision matches the generated truth.
	Accuracy float64
	Labeled  int
	Storage  store.StorageStats
}

// statsJSON is the part of GET /stats the gate reads.
type statsJSON struct {
	Pending        int                `json:"pending"`
	IngestedTotal  int64              `json:"ingested_total"`
	Facts          int                `json:"facts"`
	PositiveClaims int                `json:"positive_claims"`
	Storage        store.StorageStats `json:"storage"`
}

// getJSON GETs target on connection 0 and decodes the body into v.
func getJSON(s *session, route, target string, v any) error {
	r := s.do(call{Route: route, Method: http.MethodGet, Target: target, Keep: true})
	if !r.ok() {
		return fmt.Errorf("GET %s: %v", target, r.Err)
	}
	return json.Unmarshal(r.Body, v)
}

// finish brings the server to its final state — every held-out row sent,
// a last refit if anything is pending, each open probe checked once more —
// and reads that state back.
func finish(s *session, c *Corpus, tr *traffic, seed int64) (*final, error) {
	if err := tr.flush(s, c); err != nil {
		return nil, err
	}
	var st statsJSON
	if err := getJSON(s, "stats", "/stats", &st); err != nil {
		return nil, err
	}
	if st.Pending > 0 {
		r := s.do(call{Route: "post_refit", Method: http.MethodPost, Target: "/refit", Batch: -1})
		if !r.ok() {
			return nil, fmt.Errorf("final refit: %v", r.Err)
		}
		if err := getJSON(s, "stats", "/stats", &st); err != nil {
			return nil, err
		}
	}
	fin := &final{Facts: st.Facts, PositiveClaims: st.PositiveClaims, IngestedTotal: st.IngestedTotal,
		Acked: tr.acked, Storage: st.Storage}

	for _, p := range tr.probes.due(1 << 62) {
		tr.probes.check(s, 0, p, 1<<62)
	}
	fin.Unresolved = tr.probes.outstanding()

	rng := rand.New(rand.NewPCG(uint64(seed), 0x9a7e))
	for range entityChecks {
		e := rng.IntN(c.DS.NumEntities())
		name := url.QueryEscape(c.DS.Entities[e])
		var truth struct {
			Facts int `json:"facts"`
		}
		var claims struct {
			Count int `json:"count"`
		}
		err1 := getJSON(s, "truth_entity", "/truth?entity="+name, &truth)
		err2 := getJSON(s, "claims_entity", "/claims?entity="+name, &claims)
		if err := errors.Join(err1, err2); err != nil {
			fin.Mismatches = append(fin.Mismatches, err.Error())
			continue
		}
		if want := len(c.DS.FactsByEntity[e]); truth.Facts != want {
			fin.Mismatches = append(fin.Mismatches, fmt.Sprintf("%s: %d facts, corpus has %d", c.DS.Entities[e], truth.Facts, want))
		}
		if want := c.entityRows[e]; claims.Count != want {
			fin.Mismatches = append(fin.Mismatches, fmt.Sprintf("%s: %d claims, corpus has %d", c.DS.Entities[e], claims.Count, want))
		}
	}

	var table struct {
		Rows []struct {
			Entity    string `json:"entity"`
			Attribute string `json:"attribute"`
			Predicted bool   `json:"predicted"`
		} `json:"rows"`
	}
	if err := getJSON(s, "truth_all", "/truth", &table); err != nil {
		return nil, err
	}
	fact := make(map[[2]string]int, c.DS.NumFacts())
	for _, f := range c.DS.Facts {
		fact[[2]string{c.DS.Entities[f.Entity], f.Attribute}] = f.ID
	}
	right := 0
	for _, r := range table.Rows {
		if f, ok := fact[[2]string{r.Entity, r.Attribute}]; ok && c.DS.Labels[f] == r.Predicted {
			right++
		}
	}
	fin.Labeled = c.DS.NumFacts()
	fin.Accuracy = float64(right) / float64(fin.Labeled)
	return fin, nil
}

// gate returns the name and detail of every correctness check fin fails;
// none means the run's outputs are correct.
func gate(c *Corpus, fin *final) []string {
	var failed []string
	if fin.Facts != c.DS.NumFacts() || fin.PositiveClaims != c.DS.NumPositiveClaims() {
		failed = append(failed, fmt.Sprintf("corpus: served %d facts and %d positive claims, corpus has %d and %d",
			fin.Facts, fin.PositiveClaims, c.DS.NumFacts(), c.DS.NumPositiveClaims()))
	}
	if want := int64(len(c.Preload) + fin.Acked); fin.IngestedTotal != want {
		failed = append(failed, fmt.Sprintf("ingested_total: server counted %d rows, preload + acked is %d",
			fin.IngestedTotal, want))
	}
	if fin.Unresolved > 0 {
		failed = append(failed, fmt.Sprintf("probes: %d acknowledged new facts never became visible", fin.Unresolved))
	}
	if len(fin.Mismatches) > 0 {
		failed = append(failed, fmt.Sprintf("entity_reads: %d mismatches, first %s", len(fin.Mismatches), fin.Mismatches[0]))
	}
	if fin.Accuracy < accuracyFloor {
		failed = append(failed, fmt.Sprintf("accuracy: %.4f below the floor %.2f", fin.Accuracy, accuracyFloor))
	}
	return failed
}
