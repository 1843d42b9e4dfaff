package vclock

import (
	"slices"
	"sync"
	"sync/atomic"
)

// Event is a one-shot signal that a wait on any clock can end on: once
// fired it stays fired. Wait on it with Await or Wait; on an Auto
// clock Fire marks the goroutines blocked on it as it happens, which is how
// the clock sees the wait end. The zero Event is ready to use, meant to be
// embedded in its owner; it must not be copied after first use.
type Event struct {
	mu    sync.Mutex
	fired atomic.Bool
	ch    chan struct{} // made by the first Done, closed by the Fire
	marks []mark        // goroutines blocked on it on an Auto clock
}

// Fire fires e, ending every wait on it; firing it again does nothing.
func (e *Event) Fire() {
	e.mu.Lock()
	if e.fired.Swap(true) {
		e.mu.Unlock()
		return
	}
	if e.ch != nil {
		close(e.ch)
	}
	marks := e.marks
	e.marks = nil
	e.mu.Unlock()
	for _, m := range marks {
		m.a.mu.Lock()
		m.a.markLocked(m)
		if m.a.running == 0 && len(m.a.ready) > 0 {
			m.a.resumeLocked() // fired off the clock: no quiescent point is to come
		}
		m.a.mu.Unlock()
	}
}

// Fired reports whether e has fired.
func (e *Event) Fired() bool { return e.fired.Load() }

// Done returns a channel closed when e fires, for code that selects on it
// beside other channels. A goroutine on an Auto clock must not block on it:
// the clock would not see the wait.
func (e *Event) Done() <-chan struct{} {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.ch == nil {
		e.ch = make(chan struct{})
		if e.fired.Load() {
			close(e.ch)
		}
	}
	return e.ch
}

// registerLocked has m marked when e fires, or reports that it has fired;
// the caller holds m.a.mu. Before the list grows it drops m.a's parks that
// are over, so timed-out waits on a long-lived Event do not pile up.
func (e *Event) registerLocked(m mark) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.fired.Load() {
		return true
	}
	if len(e.marks) == cap(e.marks) {
		live := e.marks[:0]
		for _, o := range e.marks {
			if o.a != m.a || o.p.seq == o.seq {
				live = append(live, o)
			}
		}
		clear(e.marks[len(live):])
		e.marks = slices.Grow(live, len(live)) // the next sweep is at least as many parks away
	}
	e.marks = append(e.marks, m)
	return false
}
