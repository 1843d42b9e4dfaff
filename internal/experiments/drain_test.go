package experiments

import (
	"runtime"
	"testing"
	"time"
)

// TestRepeatedSweepsLeaveNoGoroutines: every experiment closes its cluster,
// so the goroutines still on a sweep's clock when it returns run out
// instead of staying parked. Without that, each small scale sweep leaves
// five behind, and b.N loops and repeated test runs grow without bound.
func TestRepeatedSweepsLeaveNoGoroutines(t *testing.T) {
	const runs = 5
	settle := func() int {
		time.Sleep(20 * time.Millisecond) // the last goroutines' exits
		runtime.GC()
		return runtime.NumGoroutine()
	}
	before := settle()
	for i := 0; i < runs; i++ {
		if _, err := RunScale(ScaleConfig{Params: Params{Seed: 42}, Hosts: []int{8}}); err != nil {
			t.Fatal(err)
		}
	}
	if grown := settle() - before; grown >= runs {
		t.Fatalf("%d sweeps left %d goroutines behind", runs, grown)
	}
}
