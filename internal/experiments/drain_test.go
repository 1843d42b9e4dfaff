package experiments

import (
	"runtime"
	"testing"
	"time"
)

// settledGoroutines counts the goroutines once the last ones' exits are
// through.
func settledGoroutines() int {
	time.Sleep(20 * time.Millisecond)
	runtime.GC()
	return runtime.NumGoroutine()
}

// TestRepeatedSweepsLeaveNoGoroutines: every experiment closes its cluster,
// so the goroutines still on a sweep's clock when it returns run out
// instead of staying parked. Without that, each small scale sweep leaves
// five behind, and b.N loops and repeated test runs grow without bound.
func TestRepeatedSweepsLeaveNoGoroutines(t *testing.T) {
	const runs = 5
	before := settledGoroutines()
	for i := 0; i < runs; i++ {
		if _, err := RunScale(ScaleConfig{Params: Params{Seed: 42}, Hosts: []int{8}}); err != nil {
			t.Fatal(err)
		}
	}
	if grown := settledGoroutines() - before; grown >= runs {
		t.Fatalf("%d sweeps left %d goroutines behind", runs, grown)
	}
}

// TestAbortedMigrationsLeaveNoGoroutines: when a migration's source gives
// up — a partition fails the handover, or the destination host crashes at
// its init — the destination it spawned exits instead of waiting for state
// that will never come.
func TestAbortedMigrationsLeaveNoGoroutines(t *testing.T) {
	const runs = 3
	cfg := ChaosConfig{Params: Params{Seed: 42}, scenarios: []string{"partition-abort", "crash-dest-mid-migration"}}
	before := settledGoroutines()
	for i := 0; i < runs; i++ {
		if _, err := RunChaos(cfg); err != nil {
			t.Fatal(err)
		}
	}
	if grown := settledGoroutines() - before; grown >= runs {
		t.Fatalf("%d runs of the aborting scenarios left %d goroutines behind", runs, grown)
	}
}

// TestPostCommitFailuresLeaveNoGoroutines: when a migration's source dies
// after the commit point, the destination owns the process but its lazy
// state never arrives. Its restore goroutine must end with the stream, not
// wait in a receive for chunks that never come — on the stop-and-copy and
// the precopy path alike.
func TestPostCommitFailuresLeaveNoGoroutines(t *testing.T) {
	const runs = 3
	before := settledGoroutines()
	for i := 0; i < runs; i++ {
		for _, paged := range []bool{false, true} {
			cfg := ChaosConfig{Params: Params{Seed: 42}, scenarios: []string{"crash-source-post-commit"}, paged: paged}
			if _, err := RunChaos(cfg); err != nil {
				t.Fatal(err)
			}
		}
	}
	if grown := settledGoroutines() - before; grown >= runs {
		t.Fatalf("%d classic and %d paged runs of crash-source-post-commit left %d goroutines behind", runs, runs, grown)
	}
}
