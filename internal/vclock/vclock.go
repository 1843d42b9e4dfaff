// Package vclock provides the time abstraction used by every component of
// the rescheduling runtime.
//
// The paper's experiments are wall-clock experiments on a 64-node cluster
// (runs of ~1000 seconds). To reproduce them quickly and deterministically,
// all components receive a Clock instead of calling the time package
// directly. Three implementations are provided:
//
//   - Real: thin wrapper over the time package, for running the system
//     against real hosts (cmd/reschedd).
//   - Auto: discrete-event virtual time for every simulated run (the
//     experiments, the examples, scenario.RunLive) and every test that
//     steps time: the clock jumps to the next timer whenever every goroutine
//     running on it is blocked, so a 1000-second experiment takes as long
//     as its events take to compute, and the same inputs give the same
//     timeline to the nanosecond. Goroutines join it through Go, their waits
//     off the clock go through Wait, Park, Cond or WaitGroup so that it sees
//     them, and Close ends the simulation. A test steps time by sleeping on
//     it.
//   - Manual: a frozen clock whose time never moves, which the end-to-end
//     benchmark (cmd/bench) hands its registries so that their LastSeen
//     stamps do not depend on how fast it runs.
package vclock

import "time"

// Clock is the time source shared by all runtime components. Durations and
// instants handed to a Clock are in virtual time; how virtual time relates
// to wall time is the implementation's concern.
type Clock interface {
	// Now returns the current virtual time.
	Now() time.Time
	// Sleep blocks the calling goroutine for d of virtual time.
	Sleep(d time.Duration)
	// NewTimer returns a timer that fires once after d.
	NewTimer(d time.Duration) *Timer
	// Since returns the virtual time elapsed since t.
	Since(t time.Time) time.Duration
}

// Timer is a clock-backed single-shot timer. C carries the virtual fire
// time.
type Timer struct {
	C <-chan time.Time

	stop func() bool
	w    *waiter // an Auto clock's timer, which Park can wait on
}

// Stop prevents the timer from firing. It reports whether the stop
// cancelled a pending fire.
func (t *Timer) Stop() bool { return t.stop() }

// Epoch is the conventional start instant of simulated experiments. Its
// value is arbitrary; a fixed epoch keeps logs and recorded series
// reproducible run to run.
var Epoch = time.Date(2004, time.April, 1, 0, 0, 0, 0, time.UTC)
