package vclock

import (
	"fmt"
	"time"
)

// Scaled returns a Clock whose virtual time starts at start and advances
// scale times faster than wall time. A Sleep of one virtual second on a
// 1000x clock blocks for one wall millisecond.
//
// Scaled clocks are how the paper's long-running experiments (Section 5) are
// reproduced in bench/test time without changing any configured interval.
func Scaled(start time.Time, scale float64) Clock {
	if scale <= 0 {
		panic(fmt.Sprintf("vclock: non-positive scale %v", scale))
	}
	return &scaledClock{start: start, wallStart: time.Now(), scale: scale}
}

type scaledClock struct {
	start     time.Time
	wallStart time.Time
	scale     float64
}

func (c *scaledClock) Now() time.Time {
	wall := time.Since(c.wallStart)
	return c.start.Add(time.Duration(float64(wall) * c.scale))
}

func (c *scaledClock) Since(t time.Time) time.Duration { return c.Now().Sub(t) }

// wall converts a virtual duration to the wall duration it occupies.
func (c *scaledClock) wall(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	w := time.Duration(float64(d) / c.scale)
	if w <= 0 {
		w = 1 // keep ordering: a positive virtual wait must not be free
	}
	return w
}

func (c *scaledClock) Sleep(d time.Duration) { time.Sleep(c.wall(d)) }

func (c *scaledClock) After(d time.Duration) <-chan time.Time {
	return c.NewTimer(d).C
}

func (c *scaledClock) NewTimer(d time.Duration) *Timer {
	ch := make(chan time.Time, 1)
	t := time.AfterFunc(c.wall(d), func() {
		select {
		case ch <- c.Now():
		default:
		}
	})
	return &Timer{C: ch, stop: t.Stop}
}
