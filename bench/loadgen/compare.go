package loadgen

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// ReadResults reads a JSON-lines file written by Append.
func ReadResults(path string) ([]*Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []*Result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 16<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r Result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, &r)
	}
	return out, sc.Err()
}

// Verdicts of one (workload, metric) comparison.
const (
	verdictGain       = "gain"
	verdictRegression = "regression"
	verdictUnresolved = "unresolved"
	verdictWithin     = "within bound"
	verdictInfo       = "-"
	verdictFewRuns    = "too few runs"
)

// Row is the comparison of one metric on one workload between a baseline
// set of runs A and a candidate set B.
type Row struct {
	Workload, Metric, Unit string
	Trace                  bool
	NA, NB                 int
	A, B                   summary
	// Change is B's median against A's, as a share of A's, signed so that
	// positive is worse.
	Change float64
	// Spread is A's quartile distance as a share of its median.
	Spread float64
	Bound  float64
	Gated  bool
	// Wins counts the pairs (A[i], B[i]) where B is strictly better.
	Wins, Pairs int
	Verdict     string
}

type summary struct{ Median, Q1, Q3 float64 }

func summarize(xs []float64) summary {
	q1, q3 := quartiles(xs)
	return summary{median(xs), q1, q3}
}

// CompareRows applies the rules for landing a change to every metric both
// sets report on the same workload (valid runs only):
//   - a gated metric whose baseline spread exceeds its bound is unresolved,
//     unless every B run is better than every A run;
//   - otherwise B's median may be worse than A's by at most the bound;
//   - a gain needs B to win at least nine tenths of the pairs and the
//     medians to differ by more than A's quartile distance.
func CompareRows(a, b []*Result) []Row {
	type key struct {
		workload, metric string
		trace            bool
	}
	collect := func(rs []*Result) (map[key][]float64, map[key]string) {
		vals, units := make(map[key][]float64), make(map[key]string)
		for _, r := range rs {
			if !r.Valid {
				continue
			}
			for _, v := range r.Values {
				k := key{r.Workload, v.Name, r.Trace}
				vals[k] = append(vals[k], v.Value)
				units[k] = v.Unit
			}
		}
		return vals, units
	}
	va, units := collect(a)
	vb, _ := collect(b)
	var rows []Row
	for k, xa := range va {
		xb, ok := vb[k]
		if !ok {
			continue
		}
		m, known := metricInfo(k.metric)
		if !known {
			m = Metric{Name: k.metric, Better: lower}
		}
		// Untraced metrics with a bound are gated, and error_ratio with a
		// zero one: any increase in failures regresses.
		gated := !k.trace && known && (m.Bound > 0 || k.metric == "error_ratio")
		row := Row{Workload: k.workload, Metric: k.metric, Unit: units[k], Trace: k.trace,
			NA: len(xa), NB: len(xb), A: summarize(xa), B: summarize(xb), Bound: m.Bound, Gated: gated}
		sign := 1.0
		if m.Better == higher {
			sign = -1
		}
		better := func(x, y float64) bool { return sign*(x-y) < 0 } // x better than y
		row.Change = sign * (row.B.Median - row.A.Median) / math.Abs(row.A.Median)
		if row.A.Median == 0 {
			row.Change = sign * (row.B.Median - row.A.Median)
		}
		if row.A.Q3 != row.A.Q1 {
			row.Spread = (row.A.Q3 - row.A.Q1) / math.Abs(row.A.Median)
		}
		row.Pairs = min(len(xa), len(xb))
		for i := 0; i < row.Pairs; i++ {
			if better(xb[i], xa[i]) {
				row.Wins++
			}
		}
		allBetter := true
		for _, y := range xb {
			for _, x := range xa {
				allBetter = allBetter && better(y, x)
			}
		}
		gain := float64(row.Wins) >= 0.9*float64(row.Pairs) &&
			math.Abs(row.B.Median-row.A.Median) > row.A.Q3-row.A.Q1 && better(row.B.Median, row.A.Median)
		switch {
		case len(xa) < 2 || len(xb) < 2:
			row.Verdict = verdictFewRuns
		case !row.Gated:
			row.Verdict = verdictInfo
			if gain {
				row.Verdict = verdictGain
			}
		case row.Spread > row.Bound && !allBetter:
			row.Verdict = verdictUnresolved
		case row.Change > row.Bound:
			row.Verdict = verdictRegression
		case gain:
			row.Verdict = verdictGain
		default:
			row.Verdict = verdictWithin
		}
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool {
		ri, rj := rows[i], rows[j]
		if ri.Trace != rj.Trace {
			return !ri.Trace
		}
		if ri.Workload != rj.Workload {
			return ri.Workload < rj.Workload
		}
		return ri.Metric < rj.Metric
	})
	return rows
}

// Compare prints CompareRows as a table and returns an error naming every
// gated metric that regressed or could not be resolved.
func Compare(w io.Writer, a, b []*Result) error {
	invalid := 0
	for _, r := range append(append([]*Result(nil), a...), b...) {
		if !r.Valid {
			invalid++
		}
	}
	if invalid > 0 {
		fmt.Fprintf(w, "# %d run(s) skipped: generator lateness p90 above a tenth of the gated latency p50\n", invalid)
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median [q1, q3]\tB median [q1, q3]\tchange\tA spread\tbound\twins\tverdict")
	var bad []string
	for _, r := range CompareRows(a, b) {
		name := r.Metric
		if r.Trace {
			name += " (traced)"
		}
		bound := "-"
		if r.Gated {
			bound = fmt.Sprintf("%.1f%%", 100*r.Bound)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g [%.4g, %.4g] n=%d\t%.4g [%.4g, %.4g] n=%d\t%+.1f%%\t%.1f%%\t%s\t%d/%d\t%s\n",
			r.Workload, name, r.Unit, r.A.Median, r.A.Q1, r.A.Q3, r.NA, r.B.Median, r.B.Q1, r.B.Q3, r.NB,
			100*r.Change, 100*r.Spread, bound, r.Wins, r.Pairs, r.Verdict)
		if r.Verdict == verdictRegression || (r.Gated && (r.Verdict == verdictUnresolved || r.Verdict == verdictFewRuns)) {
			bad = append(bad, fmt.Sprintf("%s/%s %s", r.Workload, r.Metric, r.Verdict))
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if len(bad) > 0 {
		return fmt.Errorf("%d gated metric(s) not within bound: %v", len(bad), bad)
	}
	return nil
}
