package vclock

import (
	"strings"
	"sync"
	"testing"
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
		timer := a.NewTimer(s.d)
		wg.Add(1)
		Go(a, func() {
			defer wg.Done()
			p := Park(a, timer)
			<-timer.C
			p.Unpark()
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

// A wait off the clock — Park on a channel, a Cond, a WaitGroup — holds
// time still until the wait is over, and a timer stopped before its deadline
// never moves the clock.
func TestAutoSeesOffClockWaits(t *testing.T) {
	a := NewAuto(Epoch)
	var mu sync.Mutex
	cond := NewCond(a, &mu)
	ready := false
	closed := make(chan struct{})
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
		close(closed)
	})
	stopped := a.NewTimer(time.Hour)
	p := Park(a, nil, closed)
	<-closed
	p.Unpark()
	if got := a.Since(Epoch); got != 6*time.Second {
		t.Fatalf("woke at %v, want 6s", got)
	}
	if !stopped.Stop() {
		t.Fatal("Stop of a pending timer = false")
	}
	wg.Wait(a)
	timer := a.NewTimer(time.Minute)
	p = Park(a, timer)
	at := <-timer.C
	p.Unpark()
	if want := Epoch.Add(6*time.Second + time.Minute); !at.Equal(want) {
		t.Fatalf("timer delivered %v, want %v (the stopped hour must not count)", at, want)
	}
}

// Goroutines woken together — here by one close — resume one at a time in
// the order they blocked: the second runs only once the first blocks again,
// however long the first takes in wall time.
func TestAutoResumesWokenGoroutinesOneAtATime(t *testing.T) {
	a := NewAuto(Epoch)
	gate := make(chan struct{})
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
			Await(a, gate)
			note(name + "1")
			time.Sleep(5 * time.Millisecond) // wall time: the other may not run meanwhile
			note(name + "1+")
			a.Sleep(time.Second)
			note(name + "2")
		})
	}
	a.Sleep(time.Second) // both start and block on the gate
	close(gate)
	wg.Wait(a)
	if got, want := strings.Join(order, " "), "a1 a1+ b1 b1+ a2 b2"; got != want {
		t.Fatalf("order = %s, want %s", got, want)
	}
}

// When every goroutine is blocked and no timer is pending, the last one to
// block panics naming every blocked site instead of hanging.
func TestAutoDeadlockNamesBlockedSites(t *testing.T) {
	a := NewAuto(Epoch)
	never := make(chan struct{})
	parked := make(chan struct{})
	Go(a, func() {
		close(parked)
		p := Park(a, nil, never)
		<-never
		p.Unpark()
	})
	// Wait for the goroutine to have started before blocking for good.
	p := Park(a, nil, parked)
	<-parked
	p.Unpark()

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
// while one blocked on a channel nobody closes stays blocked (for the rest
// of the test binary) without the deadlock panic.
func TestAutoCloseRunsTheRestOut(t *testing.T) {
	a := NewAuto(Epoch)
	never := make(chan struct{})
	Go(a, func() {
		p := Park(a, nil, never)
		<-never
		p.Unpark()
	})
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
	case <-c.After(time.Millisecond):
	case <-time.After(time.Second):
		t.Fatal("real After did not fire")
	}
	tm := c.NewTimer(time.Hour)
	if !tm.Stop() {
		t.Fatal("real timer Stop = false")
	}
}
