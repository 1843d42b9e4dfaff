package jobs

import "testing"

// TestQueueSnapshotAllocs pins the snapshot floor: a view slice and one
// backing array for every placement in it, however many jobs there are.
func TestQueueSnapshotAllocs(t *testing.T) {
	q := runningQueue(t, 64)
	if avg := testing.AllocsPerRun(50, func() { q.Pending() }); avg > 2 {
		t.Errorf("Pending allocates %.1f objects per snapshot, want at most 2", avg)
	}
	if avg := testing.AllocsPerRun(50, func() { q.Running() }); avg > 2 {
		t.Errorf("Running allocates %.1f objects per snapshot, want at most 2", avg)
	}
}

// TestPlanCycleAllocs pins one FIFO cycle at depth 64, which admits 13
// jobs: the admission order, the occupancy overlay, each admission's hosts
// and the plan's growth — 23 objects, where copying the pending snapshot
// and the fleet each cycle cost 144. A copy per job or per host shows here.
func TestPlanCycleAllocs(t *testing.T) {
	pending, view := benchView(64, false)
	if avg := testing.AllocsPerRun(50, func() { PlanCycle(FIFO{}, pending, view) }); avg > 23 {
		t.Errorf("PlanCycle(fifo, depth 64) allocates %.1f objects per cycle, want at most 23", avg)
	}
}
