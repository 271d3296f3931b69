package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"testing"
	"time"

	"latenttruth/internal/obs"
)

// TestStatsMatchesServerState: /stats, rendered from the registry, reports
// what the server's own accessors — Snapshot(), Refits(), db.Stats() and
// the ingest log — say, after a full refit and after a dirty refit, with
// instrumentation on (memory backend) and off (segment backend). Before
// the first refit the mode field is absent.
func TestStatsMatchesServerState(t *testing.T) {
	for _, disabled := range []bool{false, true} {
		t.Run(fmt.Sprintf("obs_disabled=%v", disabled), func(t *testing.T) {
			cfg := testConfig(RefitDirty)
			if disabled {
				cfg = segmentConfig(RefitDirty, t.TempDir())
				cfg.Obs.Disabled = true
			}
			s, ts := newTestServer(t, cfg)
			if _, body := getBody(t, ts, "/stats"); bytes.Contains(body, []byte(`"mode"`)) {
				t.Fatalf("/stats has a mode before the first refit: %s", body)
			}
			for i, mode := range []RefitPolicy{RefitFull, RefitDirty} {
				if _, err := s.Ingest(batchRows(i)); err != nil {
					t.Fatal(err)
				}
				sn, err := s.Refit("")
				if err != nil {
					t.Fatal(err)
				}
				if sn.Mode != mode {
					t.Fatalf("refit %d ran %s, want %s", i, sn.Mode, mode)
				}
				if _, err := s.Ingest(batchRows(i + 5)); err != nil {
					t.Fatal(err)
				}
				var got statsResponse
				_, body := getBody(t, ts, "/stats")
				if err := json.Unmarshal(body, &got); err != nil {
					t.Fatal(err)
				}
				rs := s.Refits()
				want := statsResponse{
					Ready: true, Seq: sn.Seq, Mode: sn.Mode, Policy: cfg.Policy,
					Pending: s.ingest.Len(), IngestedTotal: s.ingest.Total(),
					Refits: rs.Refits, FullRefits: rs.FullRefits, DirtyRefits: rs.DirtyRefits,
					LastRefitMS: got.LastRefitMS, FreshnessMS: got.FreshnessMS, UptimeS: got.UptimeS,
					DirtyEntities: sn.DirtyEntities, Version: obs.Version, Commit: obs.Commit,
					Entities: sn.Stats.Entities, Sources: sn.Stats.Sources, Facts: sn.Stats.Facts,
					Claims: sn.Stats.Claims, PositiveClaims: sn.Stats.PositiveClaims,
					NegativeClaims: sn.Stats.NegativeClaims, Labeled: sn.Stats.Labeled,
					Storage: s.db.Stats(),
				}
				if got != want {
					t.Fatalf("after the %s refit:\n/stats %+v\nwant   %+v", mode, got, want)
				}
				// The time-derived fields differ from the accessors' only by
				// the seconds-to-milliseconds conversion.
				ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
				near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, b) }
				if !near(got.LastRefitMS, ms(sn.RefitDuration)) || !near(got.FreshnessMS, ms(sn.Freshness)) {
					t.Fatalf("last_refit_ms %v freshness_ms %v, snapshot %v %v",
						got.LastRefitMS, got.FreshnessMS, sn.RefitDuration, sn.Freshness)
				}
				if got.UptimeS <= 0 || got.UptimeS > time.Since(s.started).Seconds() {
					t.Fatalf("uptime_s %v outside (0, %v]", got.UptimeS, time.Since(s.started).Seconds())
				}
			}
		})
	}
}
