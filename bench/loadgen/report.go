package loadgen

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"time"
)

var inf = math.Inf(1)

// ms converts d to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Value is one measured metric. N is the sample count behind it.
type Value struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// Env identifies where a run was measured.
type Env struct {
	NProc             int    `json:"nproc"`
	GOMAXPROCSServer  int    `json:"gomaxprocs_server"`
	GOMAXPROCSLoadgen int    `json:"gomaxprocs_loadgen"`
	GoVersion         string `json:"go"`
	Commit            string `json:"commit"`
}

// Result is one workload run.
type Result struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	// Valid is false when the generator's lateness p90 exceeded a tenth of
	// the run's latency_p50_ms: the run measured the generator.
	Valid bool `json:"valid"`
	// Correct is true when every correctness check passed; Checks names
	// the failed ones.
	Correct   bool     `json:"correct"`
	Checks    []string `json:"failed_checks,omitempty"`
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	Values    []Value  `json:"values"`
	Env       Env      `json:"env"`
}

// add records a metric; its unit comes from the metric tables, and an
// unknown name is a programming error.
func (r *Result) add(name string, v float64, n int) {
	m, ok := metricInfo(name)
	if !ok {
		panic("loadgen: metric " + name + " is in no table")
	}
	r.Values = append(r.Values, Value{Name: name, Value: v, Unit: m.Unit, N: n})
}

// addPercentiles records <prefix>_p50<suffix> and _p90 (the gated ones)
// and every tail percentile d supports, each with d's sample count. Tails
// are printed and compared but gate nothing.
func (r *Result) addPercentiles(prefix, suffix string, d dist, p50, p90 float64) {
	r.add(prefix+"_p50"+suffix, p50, len(d))
	r.add(prefix+"_p90"+suffix, p90, len(d))
	unit := r.Values[len(r.Values)-1].Unit
	for _, t := range d.tails() {
		r.Values = append(r.Values, Value{Name: prefix + "_" + t.Name + suffix, Value: t.Value, Unit: unit, N: len(d)})
	}
}

// get returns the named value.
func (r *Result) get(name string) (float64, bool) {
	for _, v := range r.Values {
		if v.Name == name {
			return v.Value, true
		}
	}
	return 0, false
}

// Print writes the run as "workload metric value unit n=N" lines.
func (r *Result) Print(w io.Writer) {
	fmt.Fprintf(w, "# %s seed=%d seconds=%g trace=%t valid=%t correct=%t attempted=%d failed=%d\n",
		r.Workload, r.Seed, r.Seconds, r.Trace, r.Valid, r.Correct, r.Attempted, r.Failed)
	for _, c := range r.Checks {
		fmt.Fprintf(w, "# %s FAILED %s\n", r.Workload, c)
	}
	for _, v := range r.Values {
		fmt.Fprintf(w, "%s %s %s %s", r.Workload, v.Name, strconv.FormatFloat(v.Value, 'g', -1, 64), v.Unit)
		if v.N > 0 {
			fmt.Fprintf(w, " n=%d", v.N)
		}
		fmt.Fprintln(w)
	}
}

// PrintEnv writes the measurement environment header.
func PrintEnv(w io.Writer, e Env) {
	fmt.Fprintf(w, "# nproc=%d gomaxprocs_server=%d gomaxprocs_loadgen=%d go=%s commit=%s\n",
		e.NProc, e.GOMAXPROCSServer, e.GOMAXPROCSLoadgen, e.GoVersion, e.Commit)
}

// Summary is the one-line JSON result a benchmark harness reads: the
// end-to-end metrics of an untraced run, or the per-layer metrics of a
// traced one. With several results, metric names are prefixed by their
// workload.
func Summary(results []*Result) ([]byte, error) {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: true, Metrics: make(map[string]metric)}
	for _, r := range results {
		out.Correct = out.Correct && r.Correct
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		table := EndToEnd
		if r.Trace {
			table = PerLayer
		}
		for _, m := range table {
			v, ok := r.get(m.Name)
			if !ok {
				return nil, fmt.Errorf("loadgen: %s did not report %s", r.Workload, m.Name)
			}
			name := m.Name
			if len(results) > 1 {
				name = r.Workload + "." + name
			}
			out.Metrics[name] = metric{finite(v), m.Unit}
		}
	}
	return json.Marshal(out)
}

// finite maps the +Inf of a failed-request percentile (and any NaN) to a
// number JSON can carry.
func finite(v float64) float64 {
	switch {
	case math.IsNaN(v):
		return 0
	case math.IsInf(v, 1):
		return math.MaxFloat64
	case math.IsInf(v, -1):
		return -math.MaxFloat64
	}
	return v
}

// Append adds results to a JSON-lines file, one line per run, so repeated
// invocations build up a set of runs for Compare.
func Append(path string, results []*Result) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, r := range results {
		c := *r
		c.Values = append([]Value(nil), r.Values...)
		for i := range c.Values {
			c.Values[i].Value = finite(c.Values[i].Value)
		}
		if err := enc.Encode(&c); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
