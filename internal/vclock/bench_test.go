package vclock

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// BenchmarkAutoResume prices one resume decision with n goroutines parked
// on the clock, each in a Wait on its own timer plus one Event they all
// share — the shape of a simulated fleet's monitor loops with their stop
// Event. The timers' periods differ, so every quiescent point fires one
// timer and resumes one goroutine; ns/op is per resume.
func BenchmarkAutoResume(b *testing.B) {
	for _, n := range []int{64, 512, 2048} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			a := NewAuto(Epoch)
			var stop Event
			var resumes atomic.Int64
			var wg WaitGroup
			for i := 0; i < n; i++ {
				wg.Add(1)
				period := time.Duration(n+i) * time.Microsecond
				Go(a, func() {
					defer wg.Done()
					for Wait(a, period, &stop) == nil {
						resumes.Add(1)
					}
				})
			}
			a.Sleep(time.Nanosecond) // every goroutine starts and parks
			resumes.Store(0)
			b.ResetTimer()
			for resumes.Load() < int64(b.N) {
				a.Sleep(time.Duration(n) * time.Microsecond)
			}
			b.StopTimer()
			stop.Fire()
			wg.Wait(a)
		})
	}
}
