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

// wakeup is a model's one pending completion wait. Arming it replaces
// whatever was armed before.
type wakeup struct {
	cancel *vclock.Event // fired to release the replaced wait, or to void its fire if its time came first
}

// armLocked disarms the pending wake-up and, unless seconds is +Inf, arms
// one that runs fire(at) under mu once seconds (+1 ns, so the completion
// has passed) have elapsed on clock; at is the time it takes the lock. The
// caller holds mu.
func (w *wakeup) armLocked(clock vclock.Clock, mu *sync.Mutex, seconds float64, fire func(at time.Time)) {
	if w.cancel != nil {
		w.cancel.Fire()
		w.cancel = nil
	}
	if math.IsInf(seconds, 1) {
		return
	}
	cancel := new(vclock.Event)
	w.cancel = cancel
	vclock.Go(clock, func() {
		if vclock.Wait(clock, durationOf(seconds)+time.Nanosecond, cancel) != nil {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		if cancel.Fired() {
			return
		}
		w.cancel = nil
		fire(clock.Now())
	})
}

func durationOf(seconds float64) time.Duration {
	return time.Duration(seconds * float64(time.Second))
}
