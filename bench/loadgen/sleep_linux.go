package loadgen

import (
	"syscall"
	"time"
)

// spinWindow is how far ahead of a deadline sleepUntil stops sleeping and
// spins. The Go timer rounds sub-millisecond sleeps up to a millisecond,
// which at 2000 requests/s would make the generator, not the server, the
// source of delay. nanosleep oversleeps by about 60µs, so asking it to wake
// 70µs early leaves a spin of a few microseconds: the generator stays on
// time without taking a CPU from the server.
const spinWindow = 70 * time.Microsecond

// sleepUntil returns at t, give or take a few microseconds.
func sleepUntil(t time.Time) {
	if d := time.Until(t) - spinWindow; d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR only shortens the sleep; the spin covers it
	}
	for time.Now().Before(t) {
	}
}
