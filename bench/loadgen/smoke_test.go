package loadgen

import (
	"testing"
	"time"
)

// toyOptions is one workload at toy scale through the in-process path.
func toyOptions(t *testing.T, workload string) Options {
	return Options{Workload: workload, Seed: 1, Seconds: 2, PreloadClaims: 20_000, WorkDir: t.TempDir()}
}

// TestSmokeAllWorkloads runs every workload at 2×10⁴ claims for 2 s
// through the traced in-process path: the correctness gate must pass and
// every per-layer metric must be reported, so the harness cannot rot
// unnoticed.
func TestSmokeAllWorkloads(t *testing.T) {
	start := time.Now()
	for _, w := range Workloads {
		res, err := Traced(toyOptions(t, w), nil)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if !res.Correct {
			t.Errorf("%s: correctness checks failed: %v", w, res.Checks)
		}
		if res.Failed > 0 {
			t.Errorf("%s: %d of %d requests failed", w, res.Failed, res.Attempted)
		}
		if _, err := Summary([]*Result{res}); err != nil {
			t.Errorf("%s: %v", w, err)
		}
	}
	t.Logf("all workloads in %s", time.Since(start).Round(time.Millisecond))
}
