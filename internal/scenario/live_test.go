package scenario

import (
	"strings"
	"testing"
	"time"
)

// TestRunLiveSubmitsGeneratedQueue: a benign generated-shape scenario goes
// through the real control plane — core.System.Submit, the live dispatcher,
// rank launch — and every job completes. This is the bridge check that the
// generator's output is a valid input to the live machinery, not only to
// the model runner.
func TestRunLiveSubmitsGeneratedQueue(t *testing.T) {
	s := Scenario{
		Name: "live-smoke", Workload: WorkloadJacobi, MemMode: MemPaged,
		Migration: MigrateStopCopy, Policy: "priority-preemptive", LinkMbps: 100,
		Hosts: 4, StateMB: 1, DurationSec: 240, SchedEverySec: 1,
		Jobs: []JobSpec{
			{Name: "a", Priority: 1, Gang: 2, MinWorld: 2, ArrivalSec: 0, WorkSec: 30},
			{Name: "b", Priority: 0, Gang: 1, MinWorld: 1, ArrivalSec: 0, WorkSec: 30},
		},
	}
	if err := testSpace().Check(s); err != nil {
		t.Fatal(err)
	}
	out, err := RunLive(s, 10*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if out.Submitted != 2 || out.Completed != 2 || out.Failed != 0 {
		t.Fatalf("live outcome = %+v, want both jobs completed", out)
	}
}

// TestRunLiveRejectsUnknownPolicy: the live bridge validates the policy
// axis before building anything.
func TestRunLiveRejectsUnknownPolicy(t *testing.T) {
	s := Scenario{Policy: "round-robin"}
	if _, err := RunLive(s, time.Hour); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

// TestRunLiveSubmitsAtArrival: a job arriving at 120 s joins the queue at
// 120 s on the run's clock. Either job finishes within seconds of its
// submission on the idle fleet, so a run cut off at 119 s ends with the
// early job done and the late one not, and one cut off at 130 s ends with
// both done.
func TestRunLiveSubmitsAtArrival(t *testing.T) {
	s := Scenario{
		Name: "live-arrival", Workload: WorkloadJacobi, MemMode: MemPaged,
		Migration: MigrateStopCopy, Policy: "fifo", LinkMbps: 100,
		Hosts: 4, StateMB: 1, DurationSec: 240, SchedEverySec: 1,
		Jobs: []JobSpec{
			{Name: "late", Gang: 1, MinWorld: 1, ArrivalSec: 120, WorkSec: 30},
			{Name: "early", Gang: 1, MinWorld: 1, ArrivalSec: 0, WorkSec: 30},
		},
	}
	if err := testSpace().Check(s); err != nil {
		t.Fatal(err)
	}
	out, err := RunLive(s, 119*time.Second)
	if err == nil || !strings.Contains(err.Error(), "job late ") || out.Completed != 1 {
		t.Fatalf("cut off at 119 s: outcome %+v, err %v; want the early job done and the late one not", out, err)
	}
	if out, err := RunLive(s, 130*time.Second); err != nil || out.Completed != 2 {
		t.Fatalf("cut off at 130 s: outcome %+v, err %v; want both jobs done", out, err)
	}
}
