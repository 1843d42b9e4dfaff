package vclock

import (
	"container/heap"
	"sync"
	"time"
)

// Manual is a Clock that only advances when the test calls Advance (or
// AdvanceToNext). It makes timer interleavings fully deterministic.
type Manual struct {
	mu      sync.Mutex
	cond    *sync.Cond // broadcast whenever the waiter set changes
	now     time.Time
	waiters waiterHeap
	seq     int
}

// NewManual returns a Manual clock whose current time is start.
func NewManual(start time.Time) *Manual {
	m := &Manual{now: start}
	m.cond = sync.NewCond(&m.mu)
	return m
}

type waiter struct {
	deadline time.Time
	ch       chan time.Time
	seq      int  // tie-break so equal deadlines fire in creation order
	index    int  // heap bookkeeping; -1 once removed
	fired    bool // an Auto clock fired it
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

// Now returns the current manual time.
func (m *Manual) Now() time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.now
}

// Since returns the manual time elapsed since t.
func (m *Manual) Since(t time.Time) time.Duration { return m.Now().Sub(t) }

func (m *Manual) addWaiter(d time.Duration) *waiter {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.seq++
	w := &waiter{
		deadline: m.now.Add(d),
		ch:       make(chan time.Time, 1),
		seq:      m.seq,
	}
	heap.Push(&m.waiters, w)
	m.cond.Broadcast()
	return w
}

func (m *Manual) removeWaiter(w *waiter) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if w.index < 0 {
		return false
	}
	heap.Remove(&m.waiters, w.index)
	m.cond.Broadcast()
	return true
}

// Sleep blocks until the clock has been advanced d past the current time.
func (m *Manual) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	<-m.addWaiter(d).ch
}

// After returns a channel that delivers the manual time once the clock has
// been advanced d past the current time.
func (m *Manual) After(d time.Duration) <-chan time.Time {
	return m.addWaiter(d).ch
}

// NewTimer returns a single-shot timer driven by Advance.
func (m *Manual) NewTimer(d time.Duration) *Timer {
	w := m.addWaiter(d)
	return &Timer{C: w.ch, stop: func() bool { return m.removeWaiter(w) }, w: w}
}

// Advance moves the clock forward by d, firing every timer whose deadline is
// reached, in deadline order. Deliveries are non-blocking (buffer of one),
// matching the time package's behaviour for slow receivers.
func (m *Manual) Advance(d time.Duration) {
	m.mu.Lock()
	target := m.now.Add(d)
	for len(m.waiters) > 0 && !m.waiters[0].deadline.After(target) {
		w := m.waiters[0]
		m.now = w.deadline
		select {
		case w.ch <- m.now:
		default:
		}
		heap.Pop(&m.waiters)
	}
	m.now = target
	m.cond.Broadcast()
	m.mu.Unlock()
}

// AdvanceToNext advances exactly to the earliest pending deadline and fires
// it. It reports how far the clock moved and whether any timer was pending.
func (m *Manual) AdvanceToNext() (time.Duration, bool) {
	m.mu.Lock()
	if len(m.waiters) == 0 {
		m.mu.Unlock()
		return 0, false
	}
	d := m.waiters[0].deadline.Sub(m.now)
	m.mu.Unlock()
	m.Advance(d)
	return d, true
}

// Waiters reports the number of pending timers/sleepers.
func (m *Manual) Waiters() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.waiters)
}

// WaitUntilWaiters blocks until at least n timers/sleepers are pending.
// Tests use it to rendezvous with goroutines that are about to sleep.
func (m *Manual) WaitUntilWaiters(n int) {
	m.mu.Lock()
	for len(m.waiters) < n {
		m.cond.Wait()
	}
	m.mu.Unlock()
}

var _ Clock = (*Manual)(nil)
