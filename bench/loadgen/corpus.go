package loadgen

import (
	"fmt"
	"math/rand/v2"
	"os"

	"latenttruth/internal/dataset"
	"latenttruth/internal/model"
	"latenttruth/internal/synth"
)

// batchRows is the claim count of every write batch.
const batchRows = 32

// corpusSeed fixes the generated corpus. The workload seed chooses the
// held-out stream and the traffic, not the corpus: different corpora differ
// in how hard they are to infer, which moved accuracy by 2% between seeds,
// twice its bound, and moved latency and set-up time with it.
const corpusSeed = 1

// claimsPerRow approximates ScaleCorpus's claims (positive and derived
// negative) per positive row, so the preload keeps its claim target after
// the stream is held out of the corpus.
const claimsPerRow = 1.7

// Corpus is the generated data, split by seed for one workload: a preload
// the server reads as CSV, and a held-out stream of whole facts that the
// schedule sends. Preload ∪ stream is exactly the corpus's positive rows,
// so after the run the served corpus must equal DS.
type Corpus struct {
	// DS is the full corpus; every fact carries its generated truth label.
	DS      *model.Dataset
	Preload []model.Row
	// Batches is the held-out stream in send order, batchRows rows each
	// (the last may be shorter).
	Batches [][]model.Row
	// Probes[b] is the row of batch b that creates a new fact — the first
	// row of the first fact starting in the batch — or nil.
	Probes []*model.Row
	// entityRows counts each entity's positive rows; readable lists the
	// entities with at least one preload row, which reads may target from
	// the first request on.
	entityRows []int
	readable   []int
}

// NewCorpus generates the corpus and holds out at least streamRows rows
// of whole facts, chosen by seed. The preload carries about preloadClaims
// claims.
func NewCorpus(seed int64, preloadClaims, streamRows int) (*Corpus, error) {
	ds, err := synth.ScaleCorpus(synth.ScaleSpec{
		Claims:     preloadClaims + int(claimsPerRow*float64(streamRows)),
		LabelEvery: 1,
		Seed:       corpusSeed,
	})
	if err != nil {
		return nil, err
	}
	rowsOf := func(f int) []model.Row {
		var rows []model.Row
		fact := ds.Facts[f]
		for _, ci := range ds.ClaimsByFact[f] {
			if c := ds.Claims[ci]; c.Observation {
				rows = append(rows, model.Row{Entity: ds.Entities[fact.Entity], Attribute: fact.Attribute, Source: ds.Sources[c.Source]})
			}
		}
		return rows
	}

	c := &Corpus{DS: ds, entityRows: make([]int, ds.NumEntities())}
	held := make([]bool, ds.NumFacts())
	var stream []model.Row
	var starts []int // stream index where each held-out fact begins
	rng := rand.New(rand.NewPCG(uint64(seed), 0x10ad))
	for _, f := range rng.Perm(ds.NumFacts()) {
		if len(stream) >= streamRows {
			break
		}
		starts = append(starts, len(stream))
		stream = append(stream, rowsOf(f)...)
		held[f] = true
	}
	if len(stream) < streamRows {
		return nil, fmt.Errorf("loadgen: corpus has %d rows, cannot hold out %d", len(stream), streamRows)
	}
	inPreload := make([]bool, ds.NumEntities())
	for f, fact := range ds.Facts {
		rows := rowsOf(f)
		c.entityRows[fact.Entity] += len(rows)
		if !held[f] {
			c.Preload = append(c.Preload, rows...)
			inPreload[fact.Entity] = true
		}
	}
	for e, ok := range inPreload {
		if ok {
			c.readable = append(c.readable, e)
		}
	}
	next := 0 // index into starts
	for lo := 0; lo < len(stream); lo += batchRows {
		hi := min(lo+batchRows, len(stream))
		c.Batches = append(c.Batches, stream[lo:hi])
		for next < len(starts) && starts[next] < lo {
			next++
		}
		var probe *model.Row
		if next < len(starts) && starts[next] < hi {
			probe = &stream[starts[next]]
		}
		c.Probes = append(c.Probes, probe)
	}
	return c, nil
}

// writePreload writes the preload as a triples CSV.
func (c *Corpus) writePreload(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := dataset.WriteTriplesRows(f, c.Preload); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
