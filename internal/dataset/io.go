package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"

	"latenttruth/internal/model"
)

// TriplesHeader is the canonical header of a triples file.
var TriplesHeader = []string{"entity", "attribute", "source"}

// ReadTriples parses a triples CSV into a raw database. A header row equal
// to TriplesHeader is skipped if present. Duplicate triples are tolerated
// (the raw database de-duplicates).
func ReadTriples(r io.Reader) (*model.RawDB, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 3
	db := model.NewRawDB()
	line := 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: reading triples: %w", err)
		}
		line++
		if line == 1 && rec[0] == TriplesHeader[0] && rec[1] == TriplesHeader[1] && rec[2] == TriplesHeader[2] {
			continue
		}
		if rec[0] == "" || rec[1] == "" || rec[2] == "" {
			return nil, fmt.Errorf("dataset: triples line %d: empty field", line)
		}
		db.Add(rec[0], rec[1], rec[2])
	}
	if db.Len() == 0 {
		return nil, fmt.Errorf("dataset: triples input contains no rows")
	}
	return db, nil
}

// WriteTriples writes the raw database with a header row.
func WriteTriples(w io.Writer, db *model.RawDB) error {
	return WriteTriplesRows(w, db.Rows())
}

// WriteTriplesRows is WriteTriples over a bare row slice, for storage
// backends that hold rows outside a RawDB.
func WriteTriplesRows(w io.Writer, rows []model.Row) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(TriplesHeader); err != nil {
		return fmt.Errorf("dataset: writing triples header: %w", err)
	}
	rec := make([]string, 3)
	for _, r := range rows {
		rec[0], rec[1], rec[2] = r.Entity, r.Attribute, r.Source
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("dataset: writing triple: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// LabelsHeader is the canonical header of a labels file.
var LabelsHeader = []string{"entity", "attribute", "truth"}

// ReadLabels parses a labels CSV and applies the labels to ds, matching
// facts by entity and attribute name. Labels referencing unknown facts are
// an error (they indicate a dataset/labels mismatch). Truth values accept
// strconv.ParseBool syntax.
func ReadLabels(r io.Reader, ds *model.Dataset) error {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 3
	index := make(map[[2]string]int, ds.NumFacts())
	for _, f := range ds.Facts {
		index[[2]string{ds.Entities[f.Entity], f.Attribute}] = f.ID
	}
	if ds.Labels == nil {
		ds.Labels = make(map[int]bool)
	}
	line := 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("dataset: reading labels: %w", err)
		}
		line++
		if line == 1 && rec[0] == LabelsHeader[0] && rec[1] == LabelsHeader[1] && rec[2] == LabelsHeader[2] {
			continue
		}
		f, ok := index[[2]string{rec[0], rec[1]}]
		if !ok {
			return fmt.Errorf("dataset: labels line %d: no fact (%s, %s) in dataset", line, rec[0], rec[1])
		}
		v, err := strconv.ParseBool(rec[2])
		if err != nil {
			return fmt.Errorf("dataset: labels line %d: bad truth value %q", line, rec[2])
		}
		ds.Labels[f] = v
	}
	return nil
}

// WriteLabels writes ds's labels with entity and attribute names.
func WriteLabels(w io.Writer, ds *model.Dataset) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(LabelsHeader); err != nil {
		return fmt.Errorf("dataset: writing labels header: %w", err)
	}
	for _, f := range ds.LabeledFacts() {
		fact := ds.Facts[f]
		rec := []string{ds.Entities[fact.Entity], fact.Attribute, strconv.FormatBool(ds.Labels[f])}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("dataset: writing label: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// TruthHeader is the canonical header of a truth-table file.
var TruthHeader = []string{"entity", "attribute", "probability", "predicted"}

// WriteTruth writes a method's result as a truth table at the given
// threshold, in fact-id order.
func WriteTruth(w io.Writer, ds *model.Dataset, res *model.Result, threshold float64) error {
	if len(res.Prob) != ds.NumFacts() {
		return fmt.Errorf("dataset: result has %d scores for %d facts", len(res.Prob), ds.NumFacts())
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(TruthHeader); err != nil {
		return fmt.Errorf("dataset: writing truth header: %w", err)
	}
	for _, f := range ds.Facts {
		rec := []string{
			ds.Entities[f.Entity],
			f.Attribute,
			strconv.FormatFloat(res.Prob[f.ID], 'f', 6, 64),
			strconv.FormatBool(res.Predict(f.ID, threshold)),
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("dataset: writing truth row: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// PosteriorHeader is the canonical header of a posterior file.
var PosteriorHeader = []string{"entity", "attribute", "probability"}

// WritePosterior writes the per-fact posterior in fact-id order at full
// float64 precision: FormatFloat with precision -1 emits the shortest
// decimal that parses back to the identical bits, so a posterior written
// here and read back with ReadPosterior is bit-exact. This is the file
// that lets recovery and replication followers reconstruct the previous
// snapshot's probabilities exactly — the starting point a dirty refit's
// copy-on-write posterior is scattered into.
func WritePosterior(w io.Writer, ds *model.Dataset, prob []float64) error {
	if len(prob) != ds.NumFacts() {
		return fmt.Errorf("dataset: posterior has %d scores for %d facts", len(prob), ds.NumFacts())
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(PosteriorHeader); err != nil {
		return fmt.Errorf("dataset: writing posterior header: %w", err)
	}
	for _, f := range ds.Facts {
		rec := []string{
			ds.Entities[f.Entity],
			f.Attribute,
			strconv.FormatFloat(prob[f.ID], 'g', -1, 64),
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("dataset: writing posterior row: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadPosterior parses a posterior CSV (as written by WritePosterior) and
// aligns it to ds, matching facts by entity and attribute name. Every fact
// of ds must be covered and every row must name a known fact — anything
// else means the posterior belongs to a different dataset.
func ReadPosterior(r io.Reader, ds *model.Dataset) ([]float64, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 3
	index := make(map[[2]string]int, ds.NumFacts())
	for _, f := range ds.Facts {
		index[[2]string{ds.Entities[f.Entity], f.Attribute}] = f.ID
	}
	prob := make([]float64, ds.NumFacts())
	seen := make([]bool, ds.NumFacts())
	line, n := 0, 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: reading posterior: %w", err)
		}
		line++
		if line == 1 && rec[0] == PosteriorHeader[0] && rec[1] == PosteriorHeader[1] {
			continue
		}
		f, ok := index[[2]string{rec[0], rec[1]}]
		if !ok {
			return nil, fmt.Errorf("dataset: posterior line %d: unknown fact (%q, %q)", line, rec[0], rec[1])
		}
		if seen[f] {
			return nil, fmt.Errorf("dataset: posterior line %d: duplicate fact (%q, %q)", line, rec[0], rec[1])
		}
		v, err := strconv.ParseFloat(rec[2], 64)
		if err != nil {
			return nil, fmt.Errorf("dataset: posterior line %d: %w", line, err)
		}
		prob[f] = v
		seen[f] = true
		n++
	}
	if n != ds.NumFacts() {
		return nil, fmt.Errorf("dataset: posterior covers %d of %d facts", n, ds.NumFacts())
	}
	return prob, nil
}

// QualityHeader is the canonical header of a source-quality file.
var QualityHeader = []string{"source", "sensitivity", "specificity", "precision", "accuracy"}

// WriteQuality writes a source-quality table (Table 8 format plus
// precision and accuracy).
func WriteQuality(w io.Writer, quality []model.SourceQuality) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(QualityHeader); err != nil {
		return fmt.Errorf("dataset: writing quality header: %w", err)
	}
	ff := func(x float64) string { return strconv.FormatFloat(x, 'f', 6, 64) }
	for _, q := range quality {
		rec := []string{q.Source, ff(q.Sensitivity), ff(q.Specificity), ff(q.Precision), ff(q.Accuracy)}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("dataset: writing quality row: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadQuality parses a source-quality CSV (as written by WriteQuality).
func ReadQuality(r io.Reader) ([]model.SourceQuality, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 5
	var out []model.SourceQuality
	line := 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: reading quality: %w", err)
		}
		line++
		if line == 1 && rec[0] == QualityHeader[0] {
			continue
		}
		q := model.SourceQuality{Source: rec[0]}
		for i, dst := range []*float64{&q.Sensitivity, &q.Specificity, &q.Precision, &q.Accuracy} {
			v, err := strconv.ParseFloat(rec[i+1], 64)
			if err != nil {
				return nil, fmt.Errorf("dataset: quality line %d column %s: %w", line, QualityHeader[i+1], err)
			}
			*dst = v
		}
		out = append(out, q)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("dataset: quality input contains no rows")
	}
	return out, nil
}

// LoadTriplesFile reads a triples CSV from path and builds the dataset.
func LoadTriplesFile(path string) (*model.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	defer f.Close()
	db, err := ReadTriples(f)
	if err != nil {
		return nil, fmt.Errorf("dataset: %s: %w", path, err)
	}
	return model.Build(db), nil
}

// SaveFile writes the output of write to path, crash-safely: the content
// goes to a temporary file in the target directory, is fsynced, and is
// atomically renamed over path (with a directory fsync), so readers — and
// a post-crash filesystem — observe either the old file or the complete
// new one, never a truncated or half-written state. On any error the
// original file is left untouched and the temporary file is removed.
func SaveFile(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("dataset: %w", err)
	}
	tmp := f.Name()
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := write(f); err != nil {
		return fail(err)
	}
	// CreateTemp makes 0600 files; give the result normal output-file
	// permissions (preserving the target's mode when it already exists).
	perm := os.FileMode(0o644)
	if info, serr := os.Stat(path); serr == nil {
		perm = info.Mode().Perm()
	}
	if err := f.Chmod(perm); err != nil {
		return fail(fmt.Errorf("dataset: chmod %s: %w", tmp, err))
	}
	if err := f.Sync(); err != nil {
		return fail(fmt.Errorf("dataset: fsync %s: %w", tmp, err))
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("dataset: closing %s: %w", tmp, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("dataset: %w", err)
	}
	// Make the rename itself durable.
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("dataset: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("dataset: fsync %s: %w", dir, err)
	}
	return nil
}
