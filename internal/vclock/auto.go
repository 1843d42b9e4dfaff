package vclock

import (
	"container/heap"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// Auto is a Clock that advances itself, the discrete-event way. Virtual
// time stands still while any goroutine running on the clock can make
// progress; once every one of them is blocked, Auto jumps to the earliest
// pending timer and fires it (equal deadlines in creation order), one timer
// per quiescent point.
//
// A goroutine runs on the clock if it created the clock or was started by
// Go. It is blocked while it sleeps on the clock, waits in Wait, Await, a
// Cond or a WaitGroup. Whatever ends a wait — a timer firing, an
// Event firing, a Cond broadcast — marks the goroutines blocked on it as
// it happens, so the advance decision needs no wall time, no yields and no
// polling. Marked goroutines resume one at a time, in the order they
// blocked, each once the one before blocks again: one goroutine on the
// clock runs at a time, and the same inputs give the same interleaving.
// Blocking anywhere else — a bare channel receive, a sync.WaitGroup — looks
// like progress and holds the clock still.
//
// When every goroutine is blocked and no timer is pending nothing can ever
// wake them: Auto panics naming the sites they are blocked at.
type Auto struct {
	mu      sync.Mutex
	now     time.Time
	waiters waiterHeap // pending timers
	wseq    int        // timers so far, the order equal deadlines fire in
	running int        // goroutines on the clock that are not blocked
	parks   []*wait    // every slot, for the deadlock report
	free    []*wait
	ready   readyHeap // marked slots, the order they resume in
	seq     uint64    // parks so far, the order marked goroutines resume in
	closed  bool      // the driving goroutine has left; see Close
}

// waiter is one pending timer.
type waiter struct {
	deadline time.Time
	ch       chan time.Time // a Timer's C; nil for the timer of a wait
	seq      int            // tie-break so equal deadlines fire in creation order
	index    int            // heap bookkeeping; -1 once removed
	parked   mark           // the timer of a wait: the wait it ends
}

type waiterHeap []*waiter

func (h waiterHeap) Len() int { return len(h) }
func (h waiterHeap) Less(i, j int) bool {
	if !h[i].deadline.Equal(h[j].deadline) {
		return h[i].deadline.Before(h[j].deadline)
	}
	return h[i].seq < h[j].seq
}
func (h waiterHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index, h[j].index = i, j
}
func (h *waiterHeap) Push(x any) {
	w := x.(*waiter)
	w.index = len(*h)
	*h = append(*h, w)
}
func (h *waiterHeap) Pop() any {
	old := *h
	n := len(old)
	w := old[n-1]
	old[n-1] = nil
	w.index = -1
	*h = old[:n-1]
	return w
}

// wait is the slot of one blocked goroutine, reused once it resumes.
type wait struct {
	seq    uint64        // the park's; 0 while the slot is free
	marked bool          // the wait is over: the slot is in the ready heap
	wake   chan struct{} // the turn to resume, one token per park
	pcs    [4]uintptr    // the blocked call, for the deadlock report
}

// mark names one park to what can end it: the slot on clock a and the
// park's seq, which tells a registration that outlived its wait (the slot
// freed or reused) from a current one.
type mark struct {
	a   *Auto
	p   *wait
	seq uint64
}

// readyHeap holds the marked slots, earliest-blocked first.
type readyHeap []*wait

func (h readyHeap) Len() int           { return len(h) }
func (h readyHeap) Less(i, j int) bool { return h[i].seq < h[j].seq }
func (h readyHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *readyHeap) Push(x any)        { *h = append(*h, x.(*wait)) }
func (h *readyHeap) Pop() any {
	p := (*h)[len(*h)-1]
	*h = (*h)[:len(*h)-1]
	return p
}

// NewAuto returns an Auto clock whose current time is start. The calling
// goroutine runs on it.
func NewAuto(start time.Time) *Auto {
	return &Auto{now: start, running: 1}
}

// Now returns the current virtual time.
func (a *Auto) Now() time.Time {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.now
}

// Since returns the virtual time elapsed since t.
func (a *Auto) Since(t time.Time) time.Duration { return a.Now().Sub(t) }

// NewTimer returns a timer that fires once d of virtual time has elapsed. A
// goroutine on the clock waits with Sleep or Wait: blocking on C holds it.
func (a *Auto) NewTimer(d time.Duration) *Timer {
	a.mu.Lock()
	w := a.addWaiterLocked(d)
	w.ch = make(chan time.Time, 1)
	a.mu.Unlock()
	return &Timer{C: w.ch, stop: func() bool { return a.removeWaiter(w) }}
}

func (a *Auto) addWaiterLocked(d time.Duration) *waiter {
	a.wseq++
	w := &waiter{deadline: a.now.Add(d), seq: a.wseq}
	heap.Push(&a.waiters, w)
	return w
}

func (a *Auto) removeWaiter(w *waiter) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if w.index < 0 {
		return false
	}
	heap.Remove(&a.waiters, w.index)
	return true
}

// Sleep blocks the calling goroutine for d of virtual time.
func (a *Auto) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	Wait(a, d)
}

// Close ends the simulation: the goroutine that created the clock leaves
// it, and the goroutines still on it run out, woken ones resuming and
// timers firing, until each has returned or waits on something that no
// timer can bring. Those stay blocked, and no deadlock is reported. Stop
// the simulation's periodic components first: the clock runs their timers
// for as long as they rearm them.
func (a *Auto) Close() {
	a.mu.Lock()
	a.closed = true
	a.running--
	a.settleAndUnlock()
}

// parkLocked blocks the calling goroutine until w (if any) or one of evs
// fires, and until the clock then lets it resume. It is called with a.mu
// held from the blocking call (Await, Wait, Go), whose caller is the first
// frame recorded, and returns with a.mu released.
func (a *Auto) parkLocked(w *waiter, evs ...*Event) {
	var p *wait
	if n := len(a.free); n > 0 {
		p, a.free = a.free[n-1], a.free[:n-1]
	} else {
		p = &wait{wake: make(chan struct{}, 1)}
		a.parks = append(a.parks, p)
	}
	a.seq++
	p.seq = a.seq
	runtime.Callers(3, p.pcs[:])
	m := mark{a: a, p: p, seq: p.seq}
	if w != nil {
		w.parked = m
	}
	for _, e := range evs {
		if e.registerLocked(m) {
			a.markLocked(m)
		}
	}
	a.running--
	a.settleAndUnlock()
	<-p.wake
	a.mu.Lock()
	p.seq, p.marked = 0, false
	a.free = append(a.free, p)
	a.mu.Unlock()
}

// markLocked ends the wait m names, unless the slot has moved on to
// another park or is marked already.
func (a *Auto) markLocked(m mark) {
	if m.p.seq == m.seq && !m.p.marked {
		m.p.marked = true
		heap.Push(&a.ready, m.p)
	}
}

// settleAndUnlock, once nobody runs, lets the earliest-blocked marked
// goroutine resume, firing timers, earliest first, until one is marked;
// then it releases a.mu.
func (a *Auto) settleAndUnlock() {
	if a.running < 0 {
		a.mu.Unlock()
		panic("vclock: a goroutine the Auto clock did not start blocked on it (start it with vclock.Go)")
	}
	for a.running == 0 {
		if len(a.ready) > 0 {
			a.resumeLocked()
			break
		}
		if len(a.waiters) == 0 {
			if a.closed {
				break
			}
			msg := a.deadlockLocked()
			a.mu.Unlock()
			panic(msg)
		}
		w := heap.Pop(&a.waiters).(*waiter)
		if w.deadline.After(a.now) {
			a.now = w.deadline
		}
		if w.ch != nil {
			w.ch <- a.now // buffered, and a popped waiter fires once
		} else {
			a.markLocked(w.parked)
		}
	}
	a.mu.Unlock()
}

// resumeLocked lets the earliest-blocked marked goroutine resume.
func (a *Auto) resumeLocked() {
	a.running++
	heap.Pop(&a.ready).(*wait).wake <- struct{}{} // buffered, one token per park
}

// deadlockLocked names every blocked goroutine's site: the first frame of
// its blocked call outside this package's non-test code.
func (a *Auto) deadlockLocked() string {
	var sites []string
	for _, p := range a.parks {
		if p.seq == 0 {
			continue
		}
		frames := runtime.CallersFrames(p.pcs[:])
		for f, more := frames.Next(); ; f, more = frames.Next() {
			if !strings.Contains(f.File, "/internal/vclock/") || strings.HasSuffix(f.File, "_test.go") || !more {
				sites = append(sites, fmt.Sprintf("%s (%s:%d)", f.Function, f.File[strings.LastIndex(f.File, "/")+1:], f.Line))
				break
			}
		}
	}
	sort.Strings(sites)
	return fmt.Sprintf("vclock: every goroutine on the Auto clock is blocked and no timer is pending at %s; blocked at:\n\t%s",
		a.now.Format(time.RFC3339Nano), strings.Join(sites, "\n\t"))
}

// Go starts f on a new goroutine that runs on c. On an Auto clock the start
// is an event like a timer's: f begins at the next quiescent point, goroutines
// started at one instant one at a time in the order Go started them, and it
// counts as running from this call until f returns.
func Go(c Clock, f func()) {
	a, ok := c.(*Auto)
	if !ok {
		go f()
		return
	}
	a.mu.Lock()
	start := a.addWaiterLocked(0)
	a.running++
	a.mu.Unlock()
	go func() {
		defer func() {
			a.mu.Lock()
			a.running--
			a.settleAndUnlock()
		}()
		a.mu.Lock()
		a.parkLocked(start)
		f()
	}()
}

// Await blocks until e fires; c is the clock the caller runs on.
func Await(c Clock, e *Event) {
	if a, ok := c.(*Auto); ok {
		a.mu.Lock()
		a.parkLocked(nil, e)
	} else if !e.Fired() {
		<-e.Done()
	}
}

// Wait blocks for d of virtual time or until one of evs fires, whichever
// comes first, and returns the first of evs that has fired, or nil if none
// has; c is the clock the caller runs on.
func Wait(c Clock, d time.Duration, evs ...*Event) *Event {
	if a, ok := c.(*Auto); ok {
		a.mu.Lock()
		w := a.addWaiterLocked(d)
		a.parkLocked(w, evs...)
		a.removeWaiter(w)
	} else {
		t := c.NewTimer(d)
		cases := []reflect.SelectCase{{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(t.C)}}
		for _, e := range evs {
			cases = append(cases, reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(e.Done())})
		}
		reflect.Select(cases)
		t.Stop()
	}
	for _, e := range evs {
		if e.Fired() {
			return e
		}
	}
	return nil
}

// Cond is a sync.Cond whose Wait an Auto clock sees as blocked. Broadcast
// must be called with the lock held.
type Cond struct {
	c    sync.Cond
	a    *Auto
	next *Event // on a: what the next Broadcast fires, made by a Wait for it
}

// NewCond returns a Cond on lock l for goroutines running on c.
func NewCond(c Clock, l sync.Locker) *Cond {
	a, _ := c.(*Auto)
	return &Cond{c: sync.Cond{L: l}, a: a}
}

// Wait is sync.Cond.Wait.
func (c *Cond) Wait() {
	if c.a == nil {
		c.c.Wait()
		return
	}
	if c.next == nil {
		c.next = new(Event)
	}
	next := c.next
	c.c.L.Unlock()
	Await(c.a, next)
	c.c.L.Lock()
}

// Broadcast is sync.Cond.Broadcast.
func (c *Cond) Broadcast() {
	if c.a == nil {
		c.c.Broadcast()
	} else if c.next != nil {
		c.next.Fire()
		c.next = nil
	}
}

// WaitGroup is a sync.WaitGroup whose Wait an Auto clock sees as blocked.
type WaitGroup struct {
	mu   sync.Mutex
	n    int
	done *Event // made by the first Wait that blocks, fired at zero
}

// Add is sync.WaitGroup.Add.
func (g *WaitGroup) Add(n int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.n += n; g.n < 0 {
		panic("vclock: negative WaitGroup counter")
	}
	if g.n == 0 && g.done != nil {
		g.done.Fire()
		g.done = nil
	}
}

// Done is sync.WaitGroup.Done.
func (g *WaitGroup) Done() { g.Add(-1) }

// Wait blocks until the counter is zero; c is the clock the caller runs on.
func (g *WaitGroup) Wait(c Clock) {
	g.mu.Lock()
	if g.n == 0 {
		g.mu.Unlock()
		return
	}
	if g.done == nil {
		g.done = new(Event)
	}
	done := g.done
	g.mu.Unlock()
	Await(c, done)
}
