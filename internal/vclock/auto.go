package vclock

import (
	"container/heap"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Auto is a Clock that advances itself, the discrete-event way. Virtual
// time stands still while any goroutine running on the clock can make
// progress; once every one of them is blocked, Auto jumps to the earliest
// pending timer and fires it (equal deadlines in creation order), one timer
// per quiescent point.
//
// A goroutine runs on the clock if it created the clock or was started by
// Go. It is blocked while it sleeps on the clock, waits in a Cond or a
// WaitGroup, or sits between Park and Unpark. A wait is over once what it
// waits on is ready (a timer fired, a channel closed, a Cond broadcast),
// even before the goroutine runs again, so the advance decision needs no
// wall time and no yields. Goroutines whose waits are over resume one at a
// time, in the order they blocked, each once the one before blocks again:
// one goroutine on the clock runs at a time, and the same inputs give the
// same interleaving. Blocking anywhere else — a bare channel receive, a
// sync.WaitGroup — looks like progress and holds the clock still.
//
// When every goroutine is blocked and no timer is pending nothing can ever
// wake them: Auto panics naming the sites they are blocked at.
type Auto struct {
	mu      sync.Mutex
	now     time.Time
	waiters waiterHeap // pending timers
	wseq    int        // timers so far, the order equal deadlines fire in
	turn    *sync.Cond // on mu: broadcast when a woken goroutine may resume
	running int        // goroutines on the clock that are not blocked
	parks   []wait     // blocked goroutines; a zero wait marks a free slot
	free    []int
	seq     uint64 // parks so far, the order woken goroutines resume in
	closed  bool   // the driving goroutine has left; see Close
}

// waiter is one pending timer.
type waiter struct {
	deadline time.Time
	ch       chan time.Time
	seq      int  // tie-break so equal deadlines fire in creation order
	index    int  // heap bookkeeping; -1 once removed
	fired    bool // the clock fired it
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

// wait is one blocked goroutine: what ends its wait and where it waits.
type wait struct {
	used    bool
	granted bool               // its wait is over and it may resume
	seq     uint64             // when it blocked
	w       *waiter            // a timer; firing it ends the wait
	done    [2]<-chan struct{} // closing either ends the wait
	gen     *atomic.Uint64     // a Cond's broadcasts; moving past seen ends the wait
	seen    uint64
	pcs     [4]uintptr // the blocked call, for the deadlock report
}

// NewAuto returns an Auto clock whose current time is start. The calling
// goroutine runs on it.
func NewAuto(start time.Time) *Auto {
	a := &Auto{now: start, running: 1}
	a.turn = sync.NewCond(&a.mu)
	return a
}

// Now returns the current virtual time.
func (a *Auto) Now() time.Time {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.now
}

// Since returns the virtual time elapsed since t.
func (a *Auto) Since(t time.Time) time.Duration { return a.Now().Sub(t) }

// NewTimer returns a timer that fires once d of virtual time has elapsed.
// To block on it, Park on it.
func (a *Auto) NewTimer(d time.Duration) *Timer {
	a.mu.Lock()
	w := a.addWaiterLocked(d)
	a.mu.Unlock()
	return &Timer{C: w.ch, stop: func() bool { return a.removeWaiter(w) }, w: w}
}

func (a *Auto) addWaiterLocked(d time.Duration) *waiter {
	a.wseq++
	w := &waiter{deadline: a.now.Add(d), ch: make(chan time.Time, 1), seq: a.wseq}
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
	a.mu.Lock()
	w := a.addWaiterLocked(d)
	slot := a.parkLocked(wait{w: w})
	<-w.ch
	a.unpark(slot)
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

// parkLocked records a blocked goroutine, advances the clock if that left
// nobody running, and releases a.mu. It is called from the blocking call
// (Sleep, Park, Cond.Wait), whose caller is the first frame recorded.
func (a *Auto) parkLocked(p wait) int {
	p.used = true
	a.seq++
	p.seq = a.seq
	runtime.Callers(3, p.pcs[:])
	slot := len(a.parks)
	if n := len(a.free); n > 0 {
		slot, a.free = a.free[n-1], a.free[:n-1]
		a.parks[slot] = p
	} else {
		a.parks = append(a.parks, p)
	}
	a.running--
	a.settleAndUnlock()
	return slot
}

// unpark returns once the clock lets the goroutine in slot resume: one
// goroutine runs at a time, so goroutines woken together resume one after
// another, in the order they blocked.
func (a *Auto) unpark(slot int) {
	a.mu.Lock()
	for !a.parks[slot].granted {
		a.turn.Wait()
	}
	a.parks[slot] = wait{}
	a.free = append(a.free, slot)
	a.mu.Unlock()
}

// settleAndUnlock, once nobody runs, lets the earliest-blocked goroutine
// whose wait is over resume, firing timers, earliest first, until there is
// one; then it releases a.mu.
func (a *Auto) settleAndUnlock() {
	if a.running < 0 {
		a.mu.Unlock()
		panic("vclock: a goroutine the Auto clock did not start blocked on it (start it with vclock.Go)")
	}
	for a.running == 0 {
		if i := a.nextLocked(); i >= 0 {
			a.parks[i].granted = true
			a.running++
			a.turn.Broadcast()
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
		w.fired = true
		w.ch <- a.now // buffered, and a popped waiter fires once
	}
	a.mu.Unlock()
}

// nextLocked returns the slot of the earliest-blocked goroutine whose wait
// is over, or -1.
func (a *Auto) nextLocked() int {
	next := -1
	for i := range a.parks {
		p := &a.parks[i]
		if p.used && !p.granted && (next < 0 || p.seq < a.parks[next].seq) && p.ready() {
			next = i
		}
	}
	return next
}

func (p *wait) ready() bool {
	if p.w != nil && p.w.fired {
		return true
	}
	for _, ch := range p.done {
		select {
		case <-ch: // a nil channel is never ready
			return true
		default:
		}
	}
	return p.gen != nil && p.gen.Load() != p.seen
}

// deadlockLocked names every blocked goroutine's site: the first frame of
// its blocked call outside this package's non-test code.
func (a *Auto) deadlockLocked() string {
	var sites []string
	for i := range a.parks {
		if !a.parks[i].used {
			continue
		}
		frames := runtime.CallersFrames(a.parks[i].pcs[:])
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
		slot := a.parkLocked(wait{w: start})
		<-start.ch
		a.unpark(slot)
		f()
	}()
}

// Parked is a goroutine's blocked wait on an Auto clock; see Park.
type Parked struct {
	a    *Auto
	slot int
}

// Park tells c that the calling goroutine is about to block until t fires
// or one of done is closed (t may be nil; at most two channels, each only
// ever closed, never sent on). The goroutine must call Unpark as soon as it
// runs again. On clocks other than Auto both are free.
func Park(c Clock, t *Timer, done ...<-chan struct{}) Parked {
	a, ok := c.(*Auto)
	if !ok {
		return Parked{}
	}
	p := wait{}
	if t != nil {
		p.w = t.w
	}
	if copy(p.done[:], done) < len(done) {
		panic("vclock: Park on more than two channels")
	}
	a.mu.Lock()
	return Parked{a: a, slot: a.parkLocked(p)}
}

// Unpark ends the wait Park began.
func (p Parked) Unpark() {
	if p.a != nil {
		p.a.unpark(p.slot)
	}
}

// Await blocks until done is closed; c is the clock the caller runs on.
func Await(c Clock, done <-chan struct{}) {
	p := Park(c, nil, done)
	<-done
	p.Unpark()
}

// Wait blocks for d of virtual time or until one of done is closed (at
// most two, each only ever closed), whichever comes first, and reports
// whether one of done is closed; c is the clock the caller runs on.
func Wait(c Clock, d time.Duration, done ...<-chan struct{}) bool {
	t := c.NewTimer(d)
	defer t.Stop()
	p := Park(c, t, done...)
	var ch [2]<-chan struct{}
	copy(ch[:], done)
	select {
	case <-t.C:
	case <-ch[0]:
	case <-ch[1]:
	}
	p.Unpark()
	for i := range ch {
		select {
		case <-ch[i]: // a nil channel is never ready
			return true
		default:
		}
	}
	return false
}

// Cond is a sync.Cond whose Wait an Auto clock sees as blocked. Broadcast
// must be called with the lock held.
type Cond struct {
	c   sync.Cond
	a   *Auto
	gen atomic.Uint64
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
	c.a.mu.Lock()
	slot := c.a.parkLocked(wait{gen: &c.gen, seen: c.gen.Load()})
	c.c.Wait()
	c.c.L.Unlock() // the goroutine that runs meanwhile may need the lock
	c.a.unpark(slot)
	c.c.L.Lock()
}

// Broadcast is sync.Cond.Broadcast.
func (c *Cond) Broadcast() {
	c.gen.Add(1)
	c.c.Broadcast()
}

// WaitGroup is a sync.WaitGroup whose Wait an Auto clock sees as blocked.
type WaitGroup struct {
	mu   sync.Mutex
	n    int
	done chan struct{} // made by the first Wait that blocks, closed at zero
}

// Add is sync.WaitGroup.Add.
func (g *WaitGroup) Add(n int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.n += n; g.n < 0 {
		panic("vclock: negative WaitGroup counter")
	}
	if g.n == 0 && g.done != nil {
		close(g.done)
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
		g.done = make(chan struct{})
	}
	done := g.done
	g.mu.Unlock()
	Await(c, done)
}
