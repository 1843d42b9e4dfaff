package scenario

import (
	"strings"
	"testing"
)

// TestRunnerDeterministic: executing the same generated fleet twice yields
// byte-identical flattened reports — every recorded quantity is a pure
// function of the seed.
func TestRunnerDeterministic(t *testing.T) {
	render := func() string {
		out, err := Flatten(7, RunFleet(DefaultSpace(), 7, 4))
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	first := render()
	if second := render(); second != first {
		t.Fatal("same seed, different flattened report across two runs")
	}
}

// TestRunnerNoDoubleAssignment: across a wide seed sweep, no admission
// cycle ever leaves one host assigned to two running jobs — the runner
// panics on a violation, so completing the sweep is the assertion. This
// pins the fix for preemption-driven migrations, which once relocated a
// victim's rank onto a host the admission was about to occupy.
func TestRunnerNoDoubleAssignment(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		for _, r := range RunFleet(DefaultSpace(), seed, 4) {
			if r.Outcome.JobsTotal == 0 {
				t.Fatalf("seed %d: empty fleet run", seed)
			}
		}
	}
}

// TestRunnerDrainsBenignScenario: with no faults and a fleet wide enough
// for every gang, the whole queue completes and the makespan lands after
// the last arrival.
func TestRunnerDrainsBenignScenario(t *testing.T) {
	s := Scenario{
		Name: "benign", Workload: WorkloadJacobi, MemMode: MemPaged,
		Migration: MigrateStopCopy, Policy: "fifo", LinkMbps: 100,
		Hosts: 4, StateMB: 8, DurationSec: 240, SchedEverySec: 2,
		Jobs: []JobSpec{
			{Name: "a", Gang: 2, MinWorld: 2, ArrivalSec: 0, WorkSec: 30},
			{Name: "b", Gang: 1, MinWorld: 1, ArrivalSec: 10, WorkSec: 40},
		},
	}
	if err := testSpace().Check(s); err != nil {
		t.Fatal(err)
	}
	res := Runner{}.Run(s)
	if !res.Outcome.Drained || res.Outcome.JobsCompleted != 2 {
		t.Fatalf("outcome = %+v, want both jobs drained", res.Outcome)
	}
	if res.Outcome.MakespanSec <= 10 {
		t.Fatalf("makespan %d s, want past the last arrival", res.Outcome.MakespanSec)
	}
	if res.Outcome.Admissions != 2 {
		t.Fatalf("admissions = %d, want 2", res.Outcome.Admissions)
	}
}

// TestRunnerCrashRevivesAndRequeues: a crash outage requeues the rigid job
// running on the victim host, revives the host after DownSec, and the job
// still completes with its progress kept.
func TestRunnerCrashRevivesAndRequeues(t *testing.T) {
	s := Scenario{
		Name: "crash", Workload: WorkloadJacobi, MemMode: MemPaged,
		Migration: MigrateStopCopy, Policy: "fifo", LinkMbps: 100,
		Hosts: 4, StateMB: 8, DurationSec: 240, SchedEverySec: 1,
		Jobs: []JobSpec{
			{Name: "a", Gang: 1, MinWorld: 1, ArrivalSec: 0, WorkSec: 60},
		},
		Faults: []FaultSpec{
			{AtSec: 10, Kind: FaultCrashHost, Host: HostName(0), DownSec: 30},
		},
	}
	if err := testSpace().Check(s); err != nil {
		t.Fatal(err)
	}
	res := Runner{}.Run(s)
	if !res.Outcome.Drained {
		t.Fatalf("outcome = %+v, want drained", res.Outcome)
	}
	if res.Outcome.ChurnRequeues != 1 {
		t.Fatalf("churn requeues = %d, want 1", res.Outcome.ChurnRequeues)
	}
	digest := strings.Join(res.Schedule, "\n")
	for _, want := range []string{"crash-host host=h01", "revive-host host=h01", "churn-requeue job=a", "complete job=a"} {
		if !strings.Contains(digest, want) {
			t.Fatalf("schedule digest missing %q:\n%s", want, digest)
		}
	}
}

// TestRunnerForcedMigrationChargesDowntime: a forced migrate fault moves
// the running job and charges a non-zero freeze window into the downtime
// histogram.
func TestRunnerForcedMigrationChargesDowntime(t *testing.T) {
	s := Scenario{
		Name: "migrate", Workload: WorkloadJacobi, MemMode: MemPaged,
		Migration: MigrateLive, Policy: "fifo", LinkMbps: 100,
		Hosts: 4, StateMB: 8, DirtyPagesPerSec: 200, DurationSec: 240, SchedEverySec: 1,
		Jobs: []JobSpec{
			{Name: "a", Gang: 1, MinWorld: 1, ArrivalSec: 0, WorkSec: 60},
		},
		Faults: []FaultSpec{
			{AtSec: 10, Kind: FaultMigrate, Job: "a"},
		},
	}
	if err := testSpace().Check(s); err != nil {
		t.Fatal(err)
	}
	res := Runner{}.Run(s)
	if len(res.Spans) != 1 {
		t.Fatalf("spans = %v, want one migration", res.Spans)
	}
	if res.Spans[0].Mode != "precopy" && res.Spans[0].Mode != "fallback" {
		t.Fatalf("live scenario migrated in mode %q", res.Spans[0].Mode)
	}
	if res.Outcome.Downtime.Count != 1 || res.Outcome.Downtime.P50 == "0" {
		t.Fatalf("downtime = %+v, want one non-zero freeze window", res.Outcome.Downtime)
	}
	if !res.Outcome.Drained {
		t.Fatalf("outcome = %+v, want drained", res.Outcome)
	}
}

// TestRunnerResizeShrinksWorld: a resize fault against an elastic job lands
// at the target world and records a reshape span.
func TestRunnerResizeShrinksWorld(t *testing.T) {
	s := Scenario{
		Name: "resize", Workload: WorkloadJacobi, MemMode: MemElastic,
		Migration: MigrateStopCopy, Policy: "fifo", LinkMbps: 100,
		Hosts: 4, StateMB: 8, DurationSec: 240, SchedEverySec: 1,
		Jobs: []JobSpec{
			{Name: "a", Gang: 4, Elastic: true, MinWorld: 1, ArrivalSec: 0, WorkSec: 60},
		},
		Faults: []FaultSpec{
			{AtSec: 10, Kind: FaultResize, Job: "a", World: 2},
		},
	}
	if err := testSpace().Check(s); err != nil {
		t.Fatal(err)
	}
	res := Runner{}.Run(s)
	if len(res.Resizes) != 1 || res.Resizes[0].NewWorld != 2 {
		t.Fatalf("resizes = %+v, want one landing at world 2", res.Resizes)
	}
	if !res.Outcome.Drained {
		t.Fatalf("outcome = %+v, want drained", res.Outcome)
	}
}

// testSpace widens the default space's queue floor so the focused
// single-job scenarios above still type-check against it.
func testSpace() Space {
	sp := DefaultSpace()
	sp.JobCount.Min = 1
	return sp
}
