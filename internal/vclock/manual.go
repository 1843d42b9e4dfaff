package vclock

import (
	"sync/atomic"
	"time"
)

// Manual is a frozen Clock: its time never moves, so a Sleep or a timer
// waits forever. It stands where a component needs a clock's reading but
// no time may pass, such as a benchmark that must see the same LastSeen
// stamps however slow it runs.
type Manual struct{ now time.Time }

// NewManual returns a Manual clock frozen at start.
func NewManual(start time.Time) *Manual { return &Manual{now: start} }

// Now returns the frozen time.
func (m *Manual) Now() time.Time { return m.now }

// Since returns the frozen time elapsed since t.
func (m *Manual) Since(t time.Time) time.Duration { return m.now.Sub(t) }

// Sleep returns at once for a non-positive d and never for a positive one.
func (m *Manual) Sleep(d time.Duration) {
	if d > 0 {
		select {}
	}
}

// NewTimer returns a timer that never fires.
func (m *Manual) NewTimer(time.Duration) *Timer {
	var stopped atomic.Bool
	return &Timer{C: make(chan time.Time), stop: func() bool { return stopped.CompareAndSwap(false, true) }}
}

var _ Clock = (*Manual)(nil)
