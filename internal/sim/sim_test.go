package sim

import (
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"autoresched/internal/vclock"
)

// waitGoroutines waits until at most n goroutines are running.
func waitGoroutines(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > n {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines running, want at most %d", runtime.NumGoroutine(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWakeupLastArmWins: arming replaces the pending wake-up, so only the
// last arm fires, once, at its due instant plus the nanosecond, and every
// replaced goroutine has exited.
func TestWakeupLastArmWins(t *testing.T) {
	clock := vclock.NewAuto(vclock.Epoch)
	var mu sync.Mutex
	var w wakeup
	fired := make(chan time.Time, 4)
	fire := func(at time.Time) { fired <- at }
	base := runtime.NumGoroutine()

	mu.Lock()
	for _, seconds := range []float64{3, 1, 4, 2} {
		w.armLocked(clock, &mu, seconds, fire)
	}
	mu.Unlock()

	clock.Sleep(time.Hour)
	want := vclock.Epoch.Add(2*time.Second + time.Nanosecond)
	if len(fired) != 1 {
		t.Fatalf("fired %d times, want once", len(fired))
	}
	if at := <-fired; !at.Equal(want) {
		t.Fatalf("fired at %v, want %v", at, want)
	}
	waitGoroutines(t, base)
}

// TestWakeupInfDisarms: +Inf arms nothing and cancels what was armed.
func TestWakeupInfDisarms(t *testing.T) {
	clock := vclock.NewAuto(vclock.Epoch)
	var mu sync.Mutex
	var w wakeup
	fired := make(chan time.Time, 2)
	fire := func(at time.Time) { fired <- at }
	base := runtime.NumGoroutine()

	mu.Lock()
	w.armLocked(clock, &mu, 1, fire)
	w.armLocked(clock, &mu, math.Inf(1), fire)
	mu.Unlock()
	if w.timer != nil {
		t.Fatal("a timer is armed after +Inf")
	}
	clock.Sleep(time.Hour)
	waitGoroutines(t, base)
	select {
	case at := <-fired:
		t.Fatalf("+Inf fired at %v", at)
	default:
	}
}
