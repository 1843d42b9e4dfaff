// Package sim simulates the paper's testbed: Sun Blade 100 workstations
// (Host) on switched 100 Mbps Ethernet (Network). Both models integrate
// progress lazily between events and complete work at its exact finish
// instant, so every observable is deterministic given a clock; one wake-up
// per model signals the earliest completion without polling.
package sim

import (
	"math"
	"sync"
	"time"

	"autoresched/internal/vclock"
)

// wakeup is a model's one pending completion timer. Arming it replaces
// whatever was armed before.
type wakeup struct {
	gen    int // invalidates a fired timer whose goroutine has not yet taken the lock
	timer  *vclock.Timer
	cancel chan struct{} // closed to release the replaced goroutine
}

// armLocked disarms the pending wake-up and, unless seconds is +Inf, arms
// one that runs fire(at) under mu once seconds (+1 ns, so the completion
// has passed) have elapsed on clock; at is the timer's instant, or now if
// the lock was taken later. The caller holds mu.
func (w *wakeup) armLocked(clock vclock.Clock, mu *sync.Mutex, seconds float64, fire func(at time.Time)) {
	w.gen++
	if w.timer != nil {
		w.timer.Stop()
		close(w.cancel)
		w.timer = nil
		w.cancel = nil
	}
	if math.IsInf(seconds, 1) {
		return
	}
	timer := clock.NewTimer(durationOf(seconds) + time.Nanosecond)
	cancel := make(chan struct{})
	w.timer = timer
	w.cancel = cancel
	gen := w.gen
	vclock.Go(clock, func() {
		var at time.Time
		p := vclock.Park(clock, timer, cancel)
		select {
		case at = <-timer.C:
		case <-cancel:
		}
		p.Unpark()
		if at.IsZero() {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		if w.gen != gen {
			return
		}
		w.timer = nil
		w.cancel = nil
		if now := clock.Now(); now.After(at) {
			at = now
		}
		fire(at)
	})
}

func durationOf(seconds float64) time.Duration {
	return time.Duration(seconds * float64(time.Second))
}
