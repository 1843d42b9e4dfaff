package experiments

import (
	"strings"
	"testing"

	"autoresched/internal/malleable"
)

// TestChaosResizeScenariosAreDeterministic runs the two malleability crash
// scenarios twice with the same seed and requires the report to be
// byte-identical. It also pins the two crash-window outcomes:
// losing a freshly spawned rank mid-expand aborts the resize cleanly (the
// job completes at the old size), and losing a victim host mid-shrink after
// the drain does not stop the shrink from committing.
func TestChaosResizeScenariosAreDeterministic(t *testing.T) {
	cfg := ChaosConfig{
		Params:    Params{Seed: 7},
		scenarios: []string{"resize-crash-new-rank", "resize-crash-victim"},
	}
	run := func() ([]ChaosRow, string) {
		rows, err := RunChaos(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rows, RenderChaos(rows)
	}
	rows1, out1 := run()
	_, out2 := run()
	if out1 != out2 {
		t.Fatalf("reports differ:\n--- first\n%s\n--- second\n%s", out1, out2)
	}
	if len(rows1) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows1))
	}
	byName := map[string]ChaosRow{}
	for _, r := range rows1 {
		byName[r.Scenario] = r
		if !r.Survived {
			t.Errorf("%s: survived=%v completed=%v correct=%v err=%q",
				r.Scenario, r.Survived, r.Completed, r.Correct, r.FinalErr)
		}
	}
	if r := byName["resize-crash-new-rank"]; r.Counters[malleable.CtrResizeAborted] != 1 ||
		r.Counters[malleable.CtrResizeCommitted] != 0 || r.Counters[malleable.CtrRanksSpawned] != 0 {
		t.Errorf("resize-crash-new-rank counters: %v", r.Counters)
	}
	if r := byName["resize-crash-victim"]; r.Counters[malleable.CtrResizeCommitted] != 1 ||
		r.Counters[malleable.CtrRanksRetired] != 1 || r.Counters[malleable.CtrResizeAborted] != 0 {
		t.Errorf("resize-crash-victim counters: %v", r.Counters)
	}
	if !strings.Contains(out1, "trap crash-host host=ws5 proc=elastic-jacobi phase=spawn") {
		t.Errorf("expand trap not in schedule:\n%s", out1)
	}
	if !strings.Contains(out1, "trap crash-host host=ws4 proc=elastic-jacobi phase=reshape") {
		t.Errorf("shrink trap not in schedule:\n%s", out1)
	}
}

// TestMalleableExperimentDeterministicAndOrdered runs the three-arm
// malleability experiment twice with the same seed: the report (resize
// trajectories, counters, outcomes, completion times) must be byte-identical,
// and the headline ordering malleable <= migrate <= fixed must hold with
// the arms' expected final shapes.
func TestMalleableExperimentDeterministicAndOrdered(t *testing.T) {
	if testing.Short() {
		t.Skip("three-arm churn runs in -short mode")
	}
	cfg := MalleableConfig{Params: Params{Seed: 5}}
	run := func() ([]MalleableRow, string) {
		rows, err := RunMalleable(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rows, RenderMalleable(rows)
	}
	rows1, out1 := run()
	_, out2 := run()
	if out1 != out2 {
		t.Fatalf("reports differ:\n--- first\n%s\n--- second\n%s", out1, out2)
	}
	byArm := map[string]MalleableRow{}
	for _, r := range rows1 {
		byArm[r.Arm] = r
		if !r.Completed || !r.Correct || r.FinalErr != "" {
			t.Errorf("%s: completed=%v correct=%v err=%q", r.Arm, r.Completed, r.Correct, r.FinalErr)
		}
	}
	if r := byArm["fixed"]; r.Committed != 0 || r.FinalWorld != 4 {
		t.Errorf("fixed arm resized: %+v", r)
	}
	if r := byArm["migrate"]; r.Committed != 1 || r.FinalWorld != 4 ||
		r.Counters[malleable.CtrRanksSpawned] != 2 || r.Counters[malleable.CtrRanksRetired] != 2 {
		t.Errorf("migrate arm shape: %+v", r)
	}
	if r := byArm["malleable"]; r.Committed != 2 || r.FinalWorld != 5 {
		t.Errorf("malleable arm shape: %+v", r)
	}
	ma, mi, fx := byArm["malleable"].VirtualSec, byArm["migrate"].VirtualSec, byArm["fixed"].VirtualSec
	if !(ma <= mi && mi <= fx) {
		t.Errorf("completion ordering violated: malleable %.1f, migrate %.1f, fixed %.1f", ma, mi, fx)
	}
}
