package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"autoresched/internal/core"
	"autoresched/internal/faults"
	"autoresched/internal/malleable"
	"autoresched/internal/metrics"
	"autoresched/internal/monitor"
	"autoresched/internal/registry"
)

// TestChaosCrashDestScenarioIsDeterministic runs the required
// mid-migration-crash scenario twice with the same seed and requires the
// whole report — fault schedule, outcome, counters, timings — to be
// byte-identical. It also pins the end-to-end recovery path: the migration
// aborts, the pre-migration checkpoint is restored on a fresh first-fit
// host, and the computation completes with correct checksums.
func TestChaosCrashDestScenarioIsDeterministic(t *testing.T) {
	cfg := ChaosConfig{
		Params:    Params{Seed: 7},
		scenarios: []string{"crash-dest-mid-migration"},
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

	if len(rows1) != 1 {
		t.Fatalf("rows = %d, want 1", len(rows1))
	}
	r := rows1[0]
	if !r.Survived {
		t.Fatalf("scenario did not survive: %+v", r)
	}
	if r.Retries != 1 {
		t.Fatalf("retries = %d, want 1", r.Retries)
	}
	if r.Counters[core.CtrMigrAborted] != 1 {
		t.Fatalf("aborted = %d, want 1", r.Counters[core.CtrMigrAborted])
	}
	if r.Counters[core.CtrCkptRestores] != 1 {
		t.Fatalf("checkpoint restores = %d, want 1", r.Counters[core.CtrCkptRestores])
	}
	if r.FinalHost == "ws2" {
		t.Fatal("app ended on the crashed destination")
	}
	if !strings.Contains(out1, "trap crash-host host=ws2") {
		t.Fatalf("phase trap not in schedule:\n%s", out1)
	}
}

// checkChaosGolden compares a full sweep's report with the committed
// golden, which is the report as `repro -exp chaos` prints it (`make chaos`
// diffs the CLI against the same file): every fault, trap and check line,
// counter and span count of every scenario, the timings and the phase
// quantiles. The report does not depend on the seed.
func checkChaosGolden(t *testing.T, rows []ChaosRow, golden string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", golden))
	if err != nil {
		t.Fatal(err)
	}
	if got := RenderChaos(rows) + "\n"; got != string(want) {
		t.Errorf("report differs from testdata/%s:\n--- got\n%s--- want\n%s", golden, got, want)
	}
}

// TestChaosAllScenariosSurvive sweeps the full scenario set: every fault
// plan must terminate (no hang) and complete the checksummed computation,
// and the report must equal the golden.
func TestChaosAllScenariosSurvive(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep in -short mode")
	}
	run := metrics.NewRegistry()
	rows, err := RunChaos(ChaosConfig{Params: Params{Seed: 3}, Metrics: run})
	if err != nil {
		t.Fatal(err)
	}
	checkChaosGolden(t, rows, "chaos.txt")
	if len(rows) != 14 {
		t.Fatalf("scenarios = %d, want 14 (8 classic + 2 resize + 2 jobs + 2 persist)", len(rows))
	}
	for _, r := range rows {
		if !r.Survived {
			t.Errorf("%s: survived=%v completed=%v correct=%v err=%q",
				r.Scenario, r.Survived, r.Completed, r.Correct, r.FinalErr)
		}
	}
	// Spot-check that the faults actually exercised the paths they target.
	byName := map[string]ChaosRow{}
	for _, r := range rows {
		byName[r.Scenario] = r
	}
	if r := byName["partition-abort"]; r.Counters[core.CtrMigrAborted] != 1 || r.Counters[core.CtrCkptRestores] != 1 {
		t.Errorf("partition-abort counters: %v", r.Counters)
	}
	if r := byName["crash-source-post-commit"]; r.Counters[core.CtrMigrCommitted] != 1 || r.Counters[core.CtrCkptRestores] != 1 {
		t.Errorf("crash-source-post-commit counters: %v", r.Counters)
	}
	if r := byName["registry-restart"]; r.Counters[registry.CtrRestarts] != 1 ||
		r.Counters[monitor.CtrReregisters] != 4 || r.Counters[core.CtrProcResyncs] != 1 {
		t.Errorf("registry-restart counters: %v", r.Counters)
	}
	if r := byName["duplicate-order"]; r.Counters[core.CtrOrdersDeduped] != 2 || r.Counters[core.CtrMigrCommitted] != 1 {
		t.Errorf("duplicate-order counters: %v", r.Counters)
	}
	if r := byName["heartbeat-faults"]; r.Counters[faults.CtrStatusDropped] != 2 ||
		r.Counters[faults.CtrStatusDuplicated] != 2 || r.Counters[faults.CtrStatusDelayed] != 1 {
		t.Errorf("heartbeat-faults counters: %v", r.Counters)
	}
	// The resize scenarios must take the exact paths they target: losing a
	// fresh rank mid-expand aborts the resize (the job finishes at the old
	// size), losing a victim mid-shrink after the drain still commits.
	if r := byName["resize-crash-new-rank"]; r.Counters[malleable.CtrResizeAborted] != 1 ||
		r.Counters[malleable.CtrResizeCommitted] != 0 {
		t.Errorf("resize-crash-new-rank counters: %v", r.Counters)
	}
	if r := byName["resize-crash-victim"]; r.Counters[malleable.CtrResizeCommitted] != 1 ||
		r.Counters[malleable.CtrRanksRetired] != 1 {
		t.Errorf("resize-crash-victim counters: %v", r.Counters)
	}
	// The jobs scenarios must take their exact paths too: killing a victim
	// rank mid-eviction-checkpoint still requeues and reruns the gang (one
	// rank resumes from its surviving image); crashing a reserved host
	// mid-gang-reserve poisons the reservation (Commit fails, the admission
	// replans) without orphaning a lease.
	if r := byName["jobs-kill-victim-mid-ckpt"]; r.Counters[core.CtrJobsRequeued] != 1 ||
		r.Counters[core.CtrJobsAdmitted] != 3 || r.Counters[core.CtrCkptRestores] != 1 ||
		r.Counters[core.CtrJobsReservations] != 0 {
		t.Errorf("jobs-kill-victim-mid-ckpt counters: %v", r.Counters)
	}
	if r := byName["jobs-crash-host-mid-reserve"]; r.Counters[core.CtrJobsReservations] != 1 ||
		r.Counters[core.CtrJobsRequeued] != 1 || r.Counters[core.CtrJobsAdmitted] != 3 {
		t.Errorf("jobs-crash-host-mid-reserve counters: %v", r.Counters)
	}
	// The persist scenarios must take the durable paths: every crash-loop
	// restart (three back to back, one more after the torn tail write) is a
	// crash-consistent recovery with zero monitor re-registrations and zero
	// process resyncs, and the standby promotion fences the primary exactly
	// once.
	if r := byName["registry-crashloop-under-load"]; r.Counters[registry.CtrRestarts] != 4 ||
		r.Counters[registry.CtrRecoveries] != 4 ||
		r.Counters[monitor.CtrReregisters] != 0 || r.Counters[core.CtrProcResyncs] != 0 {
		t.Errorf("registry-crashloop-under-load counters: %v", r.Counters)
	}
	if r := byName["registry-standby-promote"]; r.Counters[registry.CtrStandbyPromotions] != 1 ||
		r.Counters[monitor.CtrReregisters] != 0 || r.Counters[core.CtrProcResyncs] != 0 {
		t.Errorf("registry-standby-promote counters: %v", r.Counters)
	}
	// Regression: the run-wide registry `repro -metrics` writes out used to
	// lose every scenario's counters in Merge. Its counters must equal the
	// per-scenario counters the report prints, summed.
	snap := run.Snapshot().Counters
	if len(snap) == 0 {
		t.Fatal("run-wide snapshot has no counters")
	}
	for _, name := range chaosCounterNames {
		var sum int64
		for _, r := range rows {
			sum += r.Counters[name]
		}
		if snap[name] != sum {
			t.Errorf("run-wide %s = %d, scenarios sum to %d", name, snap[name], sum)
		}
	}
}

// TestChaosJobsScenariosDeterministic runs both multi-job preemption-crash
// scenarios twice with the same seed and requires the report to be
// byte-identical. It also pins the end-to-end behavior: the
// trap fired, the victim requeued and reran to a correct result, and no
// reservation marks were orphaned by the crash.
func TestChaosJobsScenariosDeterministic(t *testing.T) {
	cfg := ChaosConfig{
		Params:    Params{Seed: 5},
		scenarios: []string{"jobs-kill-victim-mid-ckpt", "jobs-crash-host-mid-reserve"},
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
	for _, r := range rows1 {
		if !r.Survived {
			t.Errorf("%s: survived=%v completed=%v correct=%v err=%q",
				r.Scenario, r.Survived, r.Completed, r.Correct, r.FinalErr)
		}
	}
	if !strings.Contains(out1, "trap kill-on-checkpoint proc=batch.0") ||
		!strings.Contains(out1, "trap kill-on-checkpoint proc=batch.1") {
		t.Fatalf("checkpoint traps not in schedule:\n%s", out1)
	}
	if strings.Count(out1, "check reservations-outstanding=0") != 2 {
		t.Fatalf("orphaned-lease checks missing:\n%s", out1)
	}
	if got := rows1[1].Counters[core.CtrJobsReservations]; got != 1 {
		t.Fatalf("reservations lost = %d, want 1 (Commit must fail on the crashed host)", got)
	}
}

// TestChaosPersistScenariosDeterministic runs both durable-control-plane
// scenarios twice with the same seed and requires the report to be
// byte-identical. It also pins the end-to-end behavior: every
// crash-loop restart recovered from the store (no re-registration storm),
// the quiesced change log replays to the primary's exact final state, the
// deposed primary's gang commit was fenced, and the promoted standby
// re-admitted the gang exactly once.
func TestChaosPersistScenariosDeterministic(t *testing.T) {
	cfg := ChaosConfig{
		Params:    Params{Seed: 5},
		scenarios: []string{"registry-crashloop-under-load", "registry-standby-promote"},
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
	for _, r := range rows1 {
		if !r.Survived {
			t.Errorf("%s: survived=%v completed=%v correct=%v err=%q",
				r.Scenario, r.Survived, r.Completed, r.Correct, r.FinalErr)
		}
	}
	if n := strings.Count(out1, "recovered=true hosts=4 procs=1"); n != 4 {
		t.Fatalf("crash-consistent restarts in schedule = %d, want 4:\n%s", n, out1)
	}
	if !strings.Contains(out1, "check reregisters=0 proc-resyncs=0") {
		t.Fatalf("zero-re-registration check missing:\n%s", out1)
	}
	if !strings.Contains(out1, "check replay-digest-match=true") {
		t.Fatalf("replay digest check missing:\n%s", out1)
	}
	if !strings.Contains(out1, "check deposed-commit-fenced=true") ||
		!strings.Contains(out1, "check promoted-readmit ok=true") ||
		!strings.Contains(out1, "check promoted-reservations-outstanding=0") ||
		!strings.Contains(out1, "check promoted-digest-match=true") {
		t.Fatalf("standby promotion checks missing:\n%s", out1)
	}
	if got := rows1[0].Counters[registry.CtrRecoveries]; got != 4 {
		t.Fatalf("recoveries = %d, want 4", got)
	}
	if got := rows1[1].Counters[registry.CtrStandbyPromotions]; got != 1 {
		t.Fatalf("standby promotions = %d, want 1", got)
	}
}
