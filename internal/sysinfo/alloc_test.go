//go:build !race

package sysinfo

import (
	"testing"

	"autoresched/internal/sim"
	"autoresched/internal/vclock"
)

// A monitoring cycle reads the simulated process table into the array the
// previous cycle's table used: once that array is as large as the table, a
// cycle allocates nothing for it.
func TestSimSourceProcsSteadyStateAllocatesNothing(t *testing.T) {
	host := sim.NewHost(vclock.NewAuto(vclock.Epoch), "ws1", sim.Config{})
	for i := 0; i < 40; i++ {
		host.Spawn("proc", 1<<20)
	}
	src := NewSimSource(host, nil)
	if _, err := src.Procs(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if procs, err := src.Procs(); err != nil || len(procs) != 40 {
			t.Fatalf("Procs = %d rows, %v; want 40", len(procs), err)
		}
	})
	if allocs != 0 {
		t.Fatalf("SimSource.Procs allocates %v times a cycle, want 0", allocs)
	}
}
