package experiments

import (
	"strings"
	"testing"
	"time"
)

// The experiment tests assert the SHAPE of the paper's results — who wins,
// what order phases happen in, roughly what factors separate the policies —
// on shortened runs. The full-length runs live behind cmd/repro and the
// benchmarks.

func TestOverheadShape(t *testing.T) {
	res, err := RunOverhead(OverheadConfig{
		Params:   Params{Scale: 200, Seed: 1},
		duration: 8 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Baseline load is the paper's lightly loaded workstation (~0.25).
	if res.Load1Without < 0.1 || res.Load1Without > 0.5 {
		t.Fatalf("baseline load1 = %v, want ~0.25", res.Load1Without)
	}
	// The rescheduler costs something, but stays small (paper: < 4%%...
	// allow up to 25%% on these short noisy runs).
	if res.Load1With < res.Load1Without*0.9 {
		t.Fatalf("load with rescheduler (%v) below baseline (%v)", res.Load1With, res.Load1Without)
	}
	if res.Load1OverheadPct > 25 {
		t.Fatalf("load overhead = %v%%, want small", res.Load1OverheadPct)
	}
	if res.CPUOverheadPct > 25 || res.CPUOverheadPct < -10 {
		t.Fatalf("cpu overhead = %v%%", res.CPUOverheadPct)
	}
	// Communication overhead is ~zero (paper: "almost no overhead").
	if res.SentOverheadPct > 15 || res.RecvOverheadPct > 15 {
		t.Fatalf("comm overhead = %v%% / %v%%", res.SentOverheadPct, res.RecvOverheadPct)
	}
	// Baseline communication is in the right ballpark (~6 KB/s).
	if res.SentWithout < 2 || res.SentWithout > 12 {
		t.Fatalf("baseline send = %v KB/s, want ~5.8", res.SentWithout)
	}
	out := res.Render()
	for _, frag := range []string{"Figure 5", "Figure 6", "overhead"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("render missing %q:\n%s", frag, out)
		}
	}
}

func TestEfficiencyShape(t *testing.T) {
	// Scale 100: virtual-time distortion from wall-clock contention stays
	// small even when the whole test suite runs in parallel.
	res, err := RunEfficiency(EfficiencyConfig{
		Params:    Params{Scale: 100, Seed: 2},
		AppStart:  60 * time.Second,
		LoadStart: 120 * time.Second,
		Warmup:    3,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Phase ordering of Section 5.2.
	if !(res.LoadStart < res.CommandAt && res.CommandAt <= res.PollPointAt &&
		res.PollPointAt < res.InitDone && res.InitDone < res.ResumeAt &&
		res.ResumeAt <= res.RestoreDone && res.RestoreDone < res.AppDone) {
		t.Fatalf("phase ordering broken: %+v", res)
	}
	// The reaction is damped (the paper's 72 s with warmup 7; here warmup 3
	// at 10 s monitoring means at least ~20 s).
	if res.ReactionTime < 15*time.Second {
		t.Fatalf("reaction = %v, want damped (>15s)", res.ReactionTime)
	}
	// The spawn phase reflects the LAM-like latency (~0.3 s).
	if res.InitTime < 200*time.Millisecond || res.InitTime > 3*time.Second {
		t.Fatalf("init = %v, want ~0.3s", res.InitTime)
	}
	// Migration completes in seconds, not minutes (paper: 7.5 s). The
	// bound is generous because wall-clock contention from concurrently
	// running test binaries inflates virtual time at this scale.
	if res.MigrationTime < time.Second || res.MigrationTime > 75*time.Second {
		t.Fatalf("migration = %v, want seconds not minutes", res.MigrationTime)
	}
	// Restoration overlaps execution: resume strictly before restore done.
	if !res.Record.ResumeAt.Before(res.Record.RestoreDone) {
		t.Fatalf("no restore/execute overlap: %+v", res.Record)
	}
	// Figure 7's shape: ws2 goes from idle to busy across the migration.
	// Absolute utilisation is depressed by wall-clock contention when the
	// whole suite runs in parallel, so compare before against after.
	migrated := res.Record.RestoreDone
	started := res.Recorder.Start().Add(res.AppStart)
	cpu2Before := res.Recorder.Series("ws2/cpu").Window(started, migrated)
	cpu2After := res.Recorder.Series("ws2/cpu").Window(migrated.Add(time.Minute), migrated.Add(10*time.Minute))
	if len(cpu2After.Points) == 0 {
		t.Fatal("no post-migration samples on ws2")
	}
	if after, before := cpu2After.Mean(), cpu2Before.Mean(); after < 30 || after < before+20 {
		t.Fatalf("ws2 cpu: before=%v%% after=%v%%, want a clear jump (app runs there)", before, after)
	}
	out := res.Render()
	if !strings.Contains(out, "migration decision") {
		t.Fatalf("render:\n%s", out)
	}
}

// TestFalseMigrationDamping: a short load burst must fool a warmup-1
// scheduler into a pointless migration, and must NOT fool a well-damped
// one — the Section 5.2 rationale for the reaction delay.
func TestFalseMigrationDamping(t *testing.T) {
	params := Params{Scale: 200, Seed: 5}
	hasty, err := runFalseMigration(params, 1)
	if err != nil {
		t.Fatal(err)
	}
	if hasty == 0 {
		t.Fatal("warmup 1 did not produce the false migration")
	}
	damped, err := runFalseMigration(params, 7)
	if err != nil {
		t.Fatal(err)
	}
	if damped != 0 {
		t.Fatalf("warmup 7 migrated on a transient: %d migrations", damped)
	}
}

func TestPoliciesShape(t *testing.T) {
	rows, err := RunPolicies(PoliciesConfig{
		Params: Params{Scale: 100, Seed: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	p1, p2, p3 := rows[0], rows[1], rows[2]
	// Policy 1 never migrates and is slowest.
	if p1.MigrateTo != "-" || p1.MigrationSec != 0 {
		t.Fatalf("policy1 = %+v", p1)
	}
	// Policy 2, blind to communication, picks the communicating ws2
	// (registered first and under the load threshold).
	if p2.MigrateTo != "ws2" {
		t.Fatalf("policy2 migrated to %s, want ws2", p2.MigrateTo)
	}
	// Policy 3 skips ws2 (communication) and ws3 (load), picks free ws4.
	if p3.MigrateTo != "ws4" {
		t.Fatalf("policy3 migrated to %s, want ws4", p3.MigrateTo)
	}
	// Completion-time ordering: policy3 < policy2 < policy1, with policy1
	// substantially slower (paper: 983.6 vs 433.27 vs 329.71).
	if !(p3.TotalSec < p2.TotalSec && p2.TotalSec < p1.TotalSec) {
		t.Fatalf("ordering broken: p1=%v p2=%v p3=%v", p1.TotalSec, p2.TotalSec, p3.TotalSec)
	}
	if p1.TotalSec < 1.5*p3.TotalSec {
		t.Fatalf("no-migration run only %.1fx slower, want >1.5x", p1.TotalSec/p3.TotalSec)
	}
	// The application runs substantially slower on the communicating ws2
	// than on the free ws4 (paper: 199 s vs 115 s on the destination) —
	// the protocol-processing CPU cost, a large and noise-proof margin.
	if p2.DestSec < p3.DestSec*1.15 {
		t.Fatalf("dest times: p2=%v p3=%v, want p2 clearly slower on the communicating host",
			p2.DestSec, p3.DestSec)
	}
	// Both migrations moved real state. The migration-time ordering of the
	// paper (8.31 s into the communicating host vs 6.71 s into the free
	// one) rests on fair-share NIC contention; wall-clock jitter at this
	// compression can exceed that gap, so the ordering itself is pinned by
	// the low-noise TestTransferSlowerIntoCommBusyHost and by the
	// canonical cmd/repro run recorded in EXPERIMENTS.md.
	if p2.TransferSec <= 0 || p3.TransferSec <= 0 {
		t.Fatalf("transfer times: p2=%v p3=%v", p2.TransferSec, p3.TransferSec)
	}
	out := RenderPolicies(rows)
	if !strings.Contains(out, "policy3") || !strings.Contains(out, "ws4") {
		t.Fatalf("render:\n%s", out)
	}
}
