package vclock

import (
	"sync"
	"testing"
	"time"
)

// A wait on an Event that has already fired is over at once, as a wait on
// a closed channel was: with no timer pending a park that was not marked
// would be reported as a deadlock, and one pending an hour away must not
// move the clock.
func TestEventFiredBeforeTheWaitEndsItAtOnce(t *testing.T) {
	a := NewAuto(Epoch)
	var e Event
	e.Fire()
	Await(a, &e)
	a.NewTimer(time.Hour)
	if got := Wait(a, time.Minute, &e); got != &e {
		t.Fatalf("Wait on a fired Event = %p, want it (%p)", got, &e)
	}
	if got := a.Since(Epoch); got != 0 {
		t.Fatalf("clock moved to %v", got)
	}
	select {
	case <-e.Done():
	default:
		t.Fatal("Done of a fired Event is not closed")
	}
}

// A second Fire does nothing: it neither panics nor reaches a goroutine
// that has moved on to another wait.
func TestEventFireTwiceIsANoOp(t *testing.T) {
	a := NewAuto(Epoch)
	var first, second Event
	done := first.Done() // made before the Fire, closed by it once
	var mu sync.Mutex
	stage := 0
	Go(a, func() {
		Await(a, &first)
		mu.Lock()
		stage = 1
		mu.Unlock()
		Await(a, &second)
		mu.Lock()
		stage = 2
		mu.Unlock()
	})
	a.Sleep(time.Second)
	first.Fire()
	a.Sleep(time.Second) // the goroutine runs on and parks on second
	first.Fire()
	a.Sleep(time.Second)
	mu.Lock()
	got := stage
	mu.Unlock()
	if got != 1 {
		t.Fatalf("stage = %d after the second Fire, want 1", got)
	}
	if !first.Fired() || second.Fired() {
		t.Fatalf("Fired = %v, %v; want true, false", first.Fired(), second.Fired())
	}
	<-done
	second.Fire()
	a.Sleep(time.Second)
	mu.Lock()
	defer mu.Unlock()
	if stage != 2 {
		t.Fatalf("stage = %d after second fired, want 2", stage)
	}
}

// A registration outlives the wait it was made for when a timer ends that
// wait first. The slot it names is freed and taken by the goroutine's next
// wait; firing the old Event then must not end the new wait.
func TestEventFireSkipsAReusedSlot(t *testing.T) {
	a := NewAuto(Epoch)
	var stale, next Event
	var mu sync.Mutex
	resumed := false
	Go(a, func() {
		if Wait(a, time.Second, &stale) != nil {
			t.Error("the first wait ended by the Event, want its timer")
		}
		Await(a, &next) // in the slot the timed-out wait freed
		mu.Lock()
		resumed = true
		mu.Unlock()
	})
	a.Sleep(2 * time.Second)
	stale.Fire()
	a.Sleep(time.Second)
	mu.Lock()
	got := resumed
	mu.Unlock()
	if got {
		t.Fatal("an old registration's Fire ended the slot's next wait")
	}
	next.Fire()
	a.Sleep(time.Second)
	mu.Lock()
	defer mu.Unlock()
	if !resumed {
		t.Fatal("the wait did not end when its own Event fired")
	}
}

// Wait reports what ended it: the first of its Events that fired, or nil
// for the timer — on the Auto clock and on a real one.
func TestEventWaitReportsWhichEndedIt(t *testing.T) {
	a := NewAuto(Epoch)
	var e1, e2 Event
	Go(a, func() {
		a.Sleep(3 * time.Second)
		e2.Fire()
	})
	if got := Wait(a, 10*time.Second, &e1, &e2); got != &e2 {
		t.Fatalf("Wait = %p, want e2 (%p; e1 %p)", got, &e2, &e1)
	}
	if got := a.Since(Epoch); got != 3*time.Second {
		t.Fatalf("woke at %v, want 3s", got)
	}
	if got := Wait(a, 10*time.Second, &e1); got != nil {
		t.Fatalf("Wait = %p, want nil (the timer)", got)
	}
	if got := a.Since(Epoch); got != 13*time.Second {
		t.Fatalf("timed out at %v, want 13s", got)
	}
	e1.Fire()
	if got := Wait(a, time.Hour, &e2, &e1); got != &e2 {
		t.Fatalf("Wait with both fired = %p, want the first listed, e2 (%p)", got, &e2)
	}

	c := Real()
	var r1, r2 Event
	if got := Wait(c, time.Millisecond, &r1, &r2); got != nil {
		t.Fatalf("real Wait = %p, want nil (the timer)", got)
	}
	go r2.Fire()
	if got := Wait(c, time.Hour, &r1, &r2); got != &r2 {
		t.Fatalf("real Wait = %p, want r2 (%p)", got, &r2)
	}
}

// A Fire from a goroutine off the clock, made while every goroutine on it
// is blocked and no timer is pending, resumes the waiter: no later
// quiescent point would find the mark.
func TestEventFireOffTheClockResumesTheWaiter(t *testing.T) {
	a := NewAuto(Epoch)
	var e Event
	resumed := make(chan struct{})
	Go(a, func() {
		Await(a, &e)
		close(resumed)
	})
	a.Close() // the test goroutine leaves the clock; the waiter starts and parks
	for parked := false; !parked; {
		a.mu.Lock()
		parked = a.running == 0 && a.seq >= 2 // the start, then the Await
		a.mu.Unlock()
		time.Sleep(time.Millisecond)
	}
	e.Fire()
	select {
	case <-resumed:
	case <-time.After(10 * time.Second):
		t.Fatal("the waiter never resumed after an off-clock Fire")
	}
}
