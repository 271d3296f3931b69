//go:build !linux

package loadgen

import "time"

// sleepUntil returns at t, within the Go timer's resolution. Off Linux the
// generator's lateness (loadgen.late_ms_*) is correspondingly larger.
func sleepUntil(t time.Time) { time.Sleep(time.Until(t)) }
