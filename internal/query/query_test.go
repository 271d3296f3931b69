package query

import (
	"errors"
	"math"
	"reflect"
	"sort"
	"testing"

	"latenttruth/internal/integrate"
	"latenttruth/internal/model"
	"latenttruth/internal/stats"
	"latenttruth/internal/synth"
)

// testView builds a view over a generated conflicting corpus with
// deterministic pseudo-posterior probabilities.
func testView(t testing.TB, seed int64) *View {
	t.Helper()
	c, err := synth.Generate(synth.CorpusSpec{
		Name: "querytest", NumEntities: 40,
		TrueAttrWeights:  []float64{0.5, 0.3, 0.2},
		FalseCandWeights: []float64{0.5, 0.4, 0.1},
		LabelEntities:    5,
		Seed:             seed,
		Sources: []synth.SourceProfile{
			{Name: "good", Coverage: 0.9, Sensitivity: 0.95, FPR: 0.02},
			{Name: "lazy", Coverage: 0.7, Sensitivity: 0.5, FPR: 0.05},
			{Name: "messy", Coverage: 0.8, Sensitivity: 0.85, FPR: 0.35},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return viewOf(t, c.Dataset, seed)
}

// viewOf derives a View (with record table and name indexes) from a
// dataset plus rng-generated probabilities.
func viewOf(t testing.TB, ds *model.Dataset, seed int64) *View {
	t.Helper()
	rng := stats.NewRNG(seed + 1000)
	res := model.NewResult("test", ds)
	for f := range res.Prob {
		res.Prob[f] = math.Round(rng.Float64()*100) / 100 // coarse: force ties
	}
	records, err := integrate.Merge(ds, res, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	v := &View{
		Seq:          7,
		Dataset:      ds,
		Prob:         res.Prob,
		Threshold:    0.5,
		Records:      records,
		EntityByName: make(map[string]int, len(ds.Entities)),
	}
	for e, name := range ds.Entities {
		v.EntityByName[name] = e
	}
	return v
}

// refTruth is the materialize-then-filter reference the streaming engine
// must match: build every row, filter, (optionally) sort for top-k.
func refTruth(v *View, opts TruthOptions) []Row {
	ds := v.Dataset
	srcID := -1
	if opts.Source != "" {
		srcID = ds.SourceIndex(opts.Source)
	}
	positive := func(f int) bool {
		for _, ci := range ds.ClaimsByFact[f] {
			if c := ds.Claims[ci]; c.Source == srcID {
				return c.Observation
			}
		}
		return false
	}
	var rows []Row
	for f := range ds.Facts {
		r := v.row(f)
		if opts.Entity != "" && r.Entity != opts.Entity {
			continue
		}
		if opts.Attribute != "" && r.Attribute != opts.Attribute {
			continue
		}
		if opts.Source != "" && !positive(f) {
			continue
		}
		if opts.MinProb > 0 && r.Probability < opts.MinProb {
			continue
		}
		if opts.Predicted != nil && r.Predicted != *opts.Predicted {
			continue
		}
		rows = append(rows, r)
	}
	if opts.TopK > 0 {
		sort.SliceStable(rows, func(i, j int) bool {
			if rows[i].Probability != rows[j].Probability {
				return rows[i].Probability > rows[j].Probability
			}
			return rows[i].Fact < rows[j].Fact
		})
		if len(rows) > opts.TopK {
			rows = rows[:opts.TopK]
		}
	}
	return rows
}

// drain pulls every row of a result.
func drain(t *testing.T, r *Rows) []Row {
	t.Helper()
	var rows []Row
	for {
		row, ok := r.Next()
		if !ok {
			return rows
		}
		rows = append(rows, row)
	}
}

// paginate walks a query to exhaustion through cursors of the given page
// size and returns every row seen.
func paginate(t *testing.T, v *View, opts TruthOptions, page int) []Row {
	t.Helper()
	opts.Limit = page
	opts.Cursor = ""
	var rows []Row
	for steps := 0; ; steps++ {
		if steps > v.Dataset.NumFacts()+2 {
			t.Fatal("pagination did not terminate")
		}
		r, err := Truth(v, opts)
		if err != nil {
			t.Fatalf("page %d: %v", steps, err)
		}
		got := drain(t, r)
		if len(got) > page {
			t.Fatalf("page %d: %d rows exceeds limit %d", steps, len(got), page)
		}
		rows = append(rows, got...)
		if r.NextCursor() == "" {
			return rows
		}
		if len(got) < page {
			t.Fatalf("page %d: short page (%d < %d) but cursor %q", steps, len(got), page, r.NextCursor())
		}
		opts.Cursor = r.NextCursor()
	}
}

func sameRows(t *testing.T, label string, got, want []Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: row %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

func TestTruthUnfilteredMatchesReference(t *testing.T) {
	v := testView(t, 1)
	r, err := Truth(v, TruthOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, "scan", drain(t, r), refTruth(v, TruthOptions{}))
	if r.NextCursor() != "" {
		t.Fatalf("exhausted scan has cursor %q", r.NextCursor())
	}
}

func TestTruthPushdownPaths(t *testing.T) {
	v := testView(t, 2)
	ds := v.Dataset
	ent := ds.Entities[3]
	attr := ds.Facts[ds.FactsByEntity[3][0]].Attribute
	yes, no := true, false
	cases := []TruthOptions{
		{Entity: ent},
		{Entity: ent, Attribute: attr},
		{Source: "good"},
		{Source: "messy", MinProb: 0.6},
		{Entity: ent, Source: "good"},
		{MinProb: 0.8},
		{Predicted: &yes},
		{Predicted: &no, MinProb: 0.2},
		{Source: "lazy", Predicted: &yes},
	}
	for i, opts := range cases {
		r, err := Truth(v, opts)
		if err != nil {
			t.Fatalf("case %d (%+v): %v", i, opts, err)
		}
		sameRows(t, "pushdown", drain(t, r), refTruth(v, opts))
	}
}

func TestTruthNotFoundErrors(t *testing.T) {
	v := testView(t, 3)
	if _, err := Truth(v, TruthOptions{Entity: "nope"}); !errors.Is(err, ErrNoEntity) {
		t.Fatalf("unknown entity: %v", err)
	}
	if _, err := Truth(v, TruthOptions{Entity: v.Dataset.Entities[0], Attribute: "nope"}); !errors.Is(err, ErrNoFact) {
		t.Fatalf("unknown fact: %v", err)
	}
	if _, err := Truth(v, TruthOptions{Source: "nope"}); !errors.Is(err, ErrNoSource) {
		t.Fatalf("unknown source: %v", err)
	}
	if _, err := Truth(v, TruthOptions{Entity: v.Dataset.Entities[1], Source: "nope"}); !errors.Is(err, ErrNoSource) {
		t.Fatalf("unknown residual source: %v", err)
	}
	if _, err := Records(v, RecordOptions{Entity: "nope"}); !errors.Is(err, ErrNoEntity) {
		t.Fatalf("unknown record entity: %v", err)
	}
}

func TestTruthOptionValidation(t *testing.T) {
	v := testView(t, 4)
	bad := []TruthOptions{
		{Attribute: "a"},
		{MinProb: 1.5},
		{MinProb: -0.1},
		{TopK: -1},
		{Limit: -1},
		{TopK: 3, Cursor: encodeCursor(v.Seq, 0)},
	}
	for i, opts := range bad {
		if _, err := Truth(v, opts); err == nil {
			t.Fatalf("case %d (%+v): no error", i, opts)
		}
	}
}

func TestCursorStaleAndMalformed(t *testing.T) {
	v := testView(t, 5)
	// A cursor minted under another seq is the restart signal.
	if _, err := Truth(v, TruthOptions{Cursor: encodeCursor(v.Seq+1, 4)}); !errors.Is(err, ErrStaleCursor) {
		t.Fatalf("stale cursor: %v", err)
	}
	for _, c := range []string{"garbage!!", "cXl6", encodeCursor(v.Seq, 3) + "x"} {
		if _, err := Truth(v, TruthOptions{Cursor: c}); !errors.Is(err, ErrBadCursor) {
			t.Fatalf("cursor %q: %v", c, err)
		}
	}
}

func TestTruthPaginationExactness(t *testing.T) {
	v := testView(t, 6)
	for _, page := range []int{1, 3, 7, 1000} {
		for _, opts := range []TruthOptions{
			{},
			{MinProb: 0.5},
			{Source: "good"},
			{Entity: v.Dataset.Entities[2]},
		} {
			want := refTruth(v, opts)
			sameRows(t, "paginated", paginate(t, v, opts, page), want)
		}
	}
}

func TestTruthTopK(t *testing.T) {
	v := testView(t, 7)
	for _, k := range []int{1, 5, 17, 100000} {
		for _, opts := range []TruthOptions{{TopK: k}, {TopK: k, Source: "messy"}, {TopK: k, MinProb: 0.3}} {
			r, err := Truth(v, opts)
			if err != nil {
				t.Fatal(err)
			}
			sameRows(t, "topk", drain(t, r), refTruth(v, opts))
			if r.NextCursor() != "" {
				t.Fatal("top-k result minted a cursor")
			}
		}
	}
}

func TestAggregateMatchesReference(t *testing.T) {
	v := testView(t, 8)
	for _, opts := range []TruthOptions{{}, {MinProb: 0.4}, {Entity: v.Dataset.Entities[1]}} {
		rows := refTruth(v, opts)

		// Entity rollup reference.
		var wantEnt []Group
		byEnt := map[string][]Row{}
		for _, r := range rows {
			byEnt[r.Entity] = append(byEnt[r.Entity], r)
		}
		for _, name := range v.Dataset.Entities {
			if rs := byEnt[name]; len(rs) > 0 {
				wantEnt = append(wantEnt, refGroup(name, rs))
			}
		}
		got, err := Aggregate(v, AggByEntity, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, wantEnt) {
			t.Fatalf("entity agg (%+v):\n got %+v\nwant %+v", opts, got, wantEnt)
		}

		// Source rollup reference.
		ds := v.Dataset
		var wantSrc []Group
		for s, name := range ds.Sources {
			var pos []Row
			neg := 0
			for _, r := range rows {
				for _, ci := range ds.ClaimsByFact[r.Fact] {
					if c := ds.Claims[ci]; c.Source == s {
						if c.Observation {
							pos = append(pos, r)
						} else {
							neg++
						}
					}
				}
			}
			if len(pos) == 0 && neg == 0 {
				continue
			}
			g := refGroup(name, pos)
			g.PositiveClaims = len(pos)
			g.NegativeClaims = neg
			wantSrc = append(wantSrc, g)
		}
		gotSrc, err := Aggregate(v, AggBySource, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotSrc, wantSrc) {
			t.Fatalf("source agg (%+v):\n got %+v\nwant %+v", opts, gotSrc, wantSrc)
		}
	}
}

// refGroup folds rows into a Group the straightforward way.
func refGroup(key string, rows []Row) Group {
	g := Group{Key: key, Facts: len(rows)}
	for i, r := range rows {
		if r.Predicted {
			g.Predicted++
		}
		g.MeanProb += r.Probability
		if i == 0 || r.Probability > g.MaxProb {
			g.MaxProb = r.Probability
		}
	}
	if len(rows) > 0 {
		g.MeanProb /= float64(len(rows))
	}
	return g
}

func TestAggregateRejectsPagination(t *testing.T) {
	v := testView(t, 9)
	for _, opts := range []TruthOptions{{TopK: 2}, {Limit: 2}, {Cursor: encodeCursor(v.Seq, 0)}} {
		if _, err := Aggregate(v, AggBySource, opts); err == nil {
			t.Fatalf("aggregate accepted %+v", opts)
		}
	}
	if _, err := Aggregate(v, AggKind("weird"), TruthOptions{}); err == nil {
		t.Fatal("aggregate accepted unknown kind")
	}
}

func TestRecordsListing(t *testing.T) {
	v := testView(t, 10)
	// Full listing equals the cached table in entity order.
	r, err := Records(v, RecordOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var got []*integrate.Record
	for {
		rec, ok := r.Next()
		if !ok {
			break
		}
		got = append(got, rec)
	}
	if len(got) != len(v.Records) {
		t.Fatalf("%d records, want %d", len(got), len(v.Records))
	}
	for e := range got {
		if got[e] != &v.Records[e] {
			t.Fatalf("record %d is not the cached row", e)
		}
	}

	// Single-entity path.
	one, err := Records(v, RecordOptions{Entity: v.Dataset.Entities[4]})
	if err != nil {
		t.Fatal(err)
	}
	rec, ok := one.Next()
	if !ok || rec.Entity != v.Dataset.Entities[4] {
		t.Fatalf("single record = %v, %v", rec, ok)
	}
	if _, ok := one.Next(); ok {
		t.Fatal("single-entity listing yielded a second record")
	}

	// Paginated walk covers every record exactly once.
	var walked []string
	cursor := ""
	for {
		rs, err := Records(v, RecordOptions{Limit: 3, Cursor: cursor})
		if err != nil {
			t.Fatal(err)
		}
		for {
			rec, ok := rs.Next()
			if !ok {
				break
			}
			walked = append(walked, rec.Entity)
		}
		if cursor = rs.NextCursor(); cursor == "" {
			break
		}
	}
	if len(walked) != len(v.Records) {
		t.Fatalf("walked %d records, want %d", len(walked), len(v.Records))
	}
	for e, name := range walked {
		if name != v.Records[e].Entity {
			t.Fatalf("walked[%d] = %q, want %q", e, name, v.Records[e].Entity)
		}
	}
}

// TestPropertyStreamEqualsReference is the randomized equivalence
// property: for random filter/pagination/top-k combinations the streaming
// engine returns exactly the materialize-then-filter reference.
func TestPropertyStreamEqualsReference(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		v := testView(t, 100+seed)
		rng := stats.NewRNG(555 + seed)
		ds := v.Dataset
		for trial := 0; trial < 40; trial++ {
			var opts TruthOptions
			if rng.Bool(0.3) {
				opts.Entity = ds.Entities[rng.Intn(len(ds.Entities))]
				if rng.Bool(0.3) {
					facts := ds.FactsByEntity[v.EntityByName[opts.Entity]]
					opts.Attribute = ds.Facts[facts[rng.Intn(len(facts))]].Attribute
				}
			}
			if rng.Bool(0.3) {
				opts.Source = ds.Sources[rng.Intn(len(ds.Sources))]
			}
			if rng.Bool(0.4) {
				opts.MinProb = math.Round(rng.Float64()*100) / 100
			}
			if rng.Bool(0.3) {
				p := rng.Bool(0.5)
				opts.Predicted = &p
			}
			want := refTruth(v, opts)
			switch rng.Intn(3) {
			case 0: // single stream
				r, err := Truth(v, opts)
				if err != nil {
					t.Fatalf("seed %d trial %d (%+v): %v", seed, trial, opts, err)
				}
				sameRows(t, "stream", drain(t, r), want)
			case 1: // paginated walk
				sameRows(t, "paginated", paginate(t, v, opts, 1+rng.Intn(9)), want)
			case 2: // top-k
				opts.TopK = 1 + rng.Intn(len(want)+3)
				r, err := Truth(v, opts)
				if err != nil {
					t.Fatalf("seed %d trial %d (%+v): %v", seed, trial, opts, err)
				}
				want := refTruth(v, opts)
				sameRows(t, "topk", drain(t, r), want)
			}
		}
	}
}

// TestPropertyCursorMonotone: cutting any stream at any point and
// resuming through the minted cursor never drops or duplicates a row
// within one snapshot's seq.
func TestPropertyCursorMonotone(t *testing.T) {
	v := testView(t, 42)
	rng := stats.NewRNG(4242)
	for trial := 0; trial < 60; trial++ {
		opts := TruthOptions{}
		if rng.Bool(0.5) {
			opts.MinProb = rng.Float64()
		}
		if rng.Bool(0.3) {
			opts.Source = v.Dataset.Sources[rng.Intn(len(v.Dataset.Sources))]
		}
		want := refTruth(v, opts)
		cut := rng.Intn(len(want) + 1)
		first := opts
		first.Limit = cut
		if cut == 0 {
			continue // Limit 0 means unlimited; covered elsewhere
		}
		r, err := Truth(v, first)
		if err != nil {
			t.Fatal(err)
		}
		head := drain(t, r)
		rest := opts
		rest.Cursor = r.NextCursor()
		var tail []Row
		if rest.Cursor != "" {
			r2, err := Truth(v, rest)
			if err != nil {
				t.Fatal(err)
			}
			tail = drain(t, r2)
		}
		sameRows(t, "cut+resume", append(head, tail...), want)
	}
}
