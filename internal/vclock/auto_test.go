package vclock

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestAutoSleepAdvancesWithoutWallTime(t *testing.T) {
	a := NewAuto(Epoch)
	wall := time.Now()
	a.Sleep(1000 * time.Second)
	if got := a.Since(Epoch); got != 1000*time.Second {
		t.Fatalf("Since(Epoch) = %v, want exactly 1000s", got)
	}
	if w := time.Since(wall); w > time.Second {
		t.Fatalf("Sleep(1000s) took %v of wall time", w)
	}
}

// A non-positive Sleep returns at once without moving the clock, even with
// no timer pending to move it to.
func TestAutoSleepNonPositiveReturnsImmediately(t *testing.T) {
	a := NewAuto(Epoch)
	a.Sleep(0)
	a.Sleep(-time.Second)
	if got := a.Since(Epoch); got != 0 {
		t.Fatalf("Since(Epoch) = %v after non-positive sleeps, want 0", got)
	}
}

// A sleeper wakes at its deadline, not before: the clock reaches it only
// once the test's own sleeps have passed it.
func TestAutoSleepWakesAtDeadline(t *testing.T) {
	a := NewAuto(Epoch)
	var mu sync.Mutex
	var woke time.Duration
	Go(a, func() {
		a.Sleep(10 * time.Second)
		mu.Lock()
		woke = a.Since(Epoch)
		mu.Unlock()
	})
	a.Sleep(9 * time.Second)
	mu.Lock()
	if woke != 0 {
		t.Fatalf("sleeper woke at %v, before its 10s deadline", woke)
	}
	mu.Unlock()
	a.Sleep(time.Second) // the sleeper's earlier timer at 10s fires first
	mu.Lock()
	defer mu.Unlock()
	if woke != 10*time.Second {
		t.Fatalf("sleeper woke at %v, want 10s", woke)
	}
}

// A timer stopped before its deadline reports the cancel once and never
// fires, however far the clock moves past it.
func TestAutoTimerStopBeforeFire(t *testing.T) {
	a := NewAuto(Epoch)
	tm := a.NewTimer(5 * time.Second)
	if !tm.Stop() {
		t.Fatal("Stop() of a pending timer = false, want true")
	}
	if tm.Stop() {
		t.Fatal("second Stop() = true, want false")
	}
	a.Sleep(10 * time.Second)
	select {
	case <-tm.C:
		t.Fatal("stopped timer fired")
	default:
	}
	fired := a.NewTimer(time.Second)
	a.Sleep(time.Second)
	if fired.Stop() {
		t.Fatal("Stop() of a fired timer = true, want false")
	}
}

// Property: sleeping through any partition of a total duration fires
// exactly the timers whose deadline the total reaches, each at its
// deadline.
func TestAutoSleepPartitionProperty(t *testing.T) {
	f := func(steps []uint8, deadlines []uint8) bool {
		if len(steps) > 16 {
			steps = steps[:16]
		}
		if len(deadlines) > 16 {
			deadlines = deadlines[:16]
		}
		a := NewAuto(Epoch)
		var timers []*Timer
		for _, d := range deadlines {
			timers = append(timers, a.NewTimer(time.Duration(d)*time.Second))
		}
		var total time.Duration
		for _, s := range steps {
			total += time.Duration(s) * time.Second
			a.Sleep(time.Duration(s) * time.Second)
		}
		for i, tm := range timers {
			deadline := time.Duration(deadlines[i]) * time.Second
			select {
			case at := <-tm.C:
				if deadline > total || !at.Equal(Epoch.Add(deadline)) {
					return false
				}
			default:
				// A timer due at the total fires before the last sleep
				// ends; a run that never sleeps fires nothing.
				if deadline < total || deadline == total && total > 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Sleepers started in one order wake in deadline order, each at its own
// deadline, with no step by step driving.
func TestAutoSleepersWakeInDeadlineOrder(t *testing.T) {
	a := NewAuto(Epoch)
	var mu sync.Mutex
	var order []string
	var wg WaitGroup
	for i, d := range []time.Duration{30 * time.Second, 10 * time.Second, 20 * time.Second} {
		wg.Add(1)
		Go(a, func() {
			defer wg.Done()
			a.Sleep(d)
			mu.Lock()
			order = append(order, fmt.Sprintf("%d@%v", i, a.Since(Epoch)))
			mu.Unlock()
		})
	}
	wg.Wait(a)
	want := "1@10s 2@20s 0@30s"
	if got := strings.Join(order, " "); got != want {
		t.Fatalf("wake order = %s, want %s", got, want)
	}
}

// Timers fire earliest first, equal deadlines in creation order, one per
// quiescent point: a2 shares a1's deadline but fires only once a1's sleeper
// has run and finished.
func TestAutoFiresInDeadlineThenCreationOrder(t *testing.T) {
	a := NewAuto(Epoch)
	var mu sync.Mutex
	var order []string
	var wg WaitGroup
	for _, s := range []struct {
		name string
		d    time.Duration
	}{{"c", 30 * time.Second}, {"a1", 10 * time.Second}, {"b", 20 * time.Second}, {"a2", 10 * time.Second}} {
		wg.Add(1)
		Go(a, func() {
			defer wg.Done()
			a.Sleep(s.d)
			mu.Lock()
			order = append(order, s.name+"@"+a.Since(Epoch).String())
			mu.Unlock()
		})
	}
	wg.Wait(a)
	want := "a1@10s a2@10s b@20s c@30s"
	if got := strings.Join(order, " "); got != want {
		t.Fatalf("wake order = %s, want %s", got, want)
	}
}

// A wait off the clock — Await on an Event, a Cond, a WaitGroup — holds
// time still until the wait is over, and a timer stopped before its deadline
// never moves the clock.
func TestAutoSeesOffClockWaits(t *testing.T) {
	a := NewAuto(Epoch)
	var mu sync.Mutex
	cond := NewCond(a, &mu)
	ready := false
	var closed Event
	var wg WaitGroup
	wg.Add(2)
	Go(a, func() {
		defer wg.Done()
		a.Sleep(5 * time.Second)
		mu.Lock()
		ready = true
		cond.Broadcast()
		mu.Unlock()
	})
	Go(a, func() {
		defer wg.Done()
		mu.Lock()
		for !ready {
			cond.Wait()
		}
		mu.Unlock()
		a.Sleep(time.Second)
		closed.Fire()
	})
	stopped := a.NewTimer(time.Hour)
	Await(a, &closed)
	if got := a.Since(Epoch); got != 6*time.Second {
		t.Fatalf("woke at %v, want 6s", got)
	}
	if !stopped.Stop() {
		t.Fatal("Stop of a pending timer = false")
	}
	wg.Wait(a)
	a.Sleep(time.Minute)
	if got := a.Since(Epoch); got != 6*time.Second+time.Minute {
		t.Fatalf("woke at %v, want 6m6s (the stopped hour must not count)", got)
	}
}

// Goroutines woken together — here by one Fire — resume one at a time in
// the order they blocked: the second runs only once the first blocks again,
// however long the first takes in wall time.
func TestAutoResumesWokenGoroutinesOneAtATime(t *testing.T) {
	a := NewAuto(Epoch)
	var gate Event
	var mu sync.Mutex
	var order []string
	note := func(s string) {
		mu.Lock()
		order = append(order, s)
		mu.Unlock()
	}
	var wg WaitGroup
	for _, name := range []string{"a", "b"} {
		wg.Add(1)
		Go(a, func() {
			defer wg.Done()
			Await(a, &gate)
			note(name + "1")
			time.Sleep(5 * time.Millisecond) // wall time: the other may not run meanwhile
			note(name + "1+")
			a.Sleep(time.Second)
			note(name + "2")
		})
	}
	a.Sleep(time.Second) // both start and block on the gate
	gate.Fire()
	wg.Wait(a)
	if got, want := strings.Join(order, " "), "a1 a1+ b1 b1+ a2 b2"; got != want {
		t.Fatalf("order = %s, want %s", got, want)
	}
}

// When every goroutine is blocked and no timer is pending, the last one to
// block panics naming every blocked site instead of hanging.
func TestAutoDeadlockNamesBlockedSites(t *testing.T) {
	a := NewAuto(Epoch)
	var never, parked Event
	Go(a, func() {
		parked.Fire()
		Await(a, &never)
	})
	// Wait for the goroutine to have started before blocking for good.
	Await(a, &parked)

	var msg string
	func() {
		defer func() { msg, _ = recover().(string) }()
		var mu sync.Mutex
		mu.Lock()
		NewCond(a, &mu).Wait()
	}()
	for _, want := range []string{
		"no timer is pending",
		"TestAutoDeadlockNamesBlockedSites.func1 (auto_test.go:",
		"TestAutoDeadlockNamesBlockedSites.func2 (auto_test.go:",
	} {
		if !strings.Contains(msg, want) {
			t.Fatalf("deadlock report %q does not contain %q", msg, want)
		}
	}
}

// Close lets what still runs on a finished simulation's clock run out: a
// goroutine whose start had not come starts, and its hour-long sleep fires,
// while one blocked on an Event nobody fires stays blocked (for the rest
// of the test binary) without the deadlock panic.
func TestAutoCloseRunsTheRestOut(t *testing.T) {
	a := NewAuto(Epoch)
	var never Event
	Go(a, func() { Await(a, &never) })
	slept := make(chan time.Duration, 1)
	Go(a, func() {
		a.Sleep(time.Hour)
		slept <- a.Since(Epoch)
	})
	a.Close()
	if got := <-slept; got != time.Hour {
		t.Fatalf("sleeper woke at %v, want 1h", got)
	}
}

// Two Auto clocks in one process keep their own time: one asleep for an
// hour does not hold the other, nor does the other move it.
func TestAutoClocksAreIndependent(t *testing.T) {
	slow, fast := NewAuto(Epoch), NewAuto(Epoch)
	done := make(chan time.Duration)
	go func() {
		b := NewAuto(Epoch)
		b.Sleep(time.Hour)
		done <- b.Since(Epoch)
	}()
	fast.Sleep(time.Minute)
	if got := fast.Since(Epoch); got != time.Minute {
		t.Fatalf("fast clock at %v, want 1m", got)
	}
	if got := slow.Since(Epoch); got != 0 {
		t.Fatalf("idle clock moved to %v", got)
	}
	if got := <-done; got != time.Hour {
		t.Fatalf("third clock at %v, want 1h", got)
	}
}

func TestRealClockBasics(t *testing.T) {
	c := Real()
	t0 := c.Now()
	c.Sleep(time.Millisecond)
	if c.Since(t0) <= 0 {
		t.Fatal("real clock did not advance")
	}
	select {
	case <-c.NewTimer(time.Millisecond).C:
	case <-time.After(time.Second):
		t.Fatal("real timer did not fire")
	}
	tm := c.NewTimer(time.Hour)
	if !tm.Stop() {
		t.Fatal("real timer Stop = false")
	}
}
