package experiments

import (
	"strings"
	"testing"

	"autoresched/internal/core"
	"autoresched/internal/metrics"
)

// TestLivemigSweepDeterministicWithVisibleCrossover pins the acceptance
// properties of the downtime sweep: byte-identical renders, precopy downtime
// strictly below stop-and-copy whenever precopy converges, and a visible
// crossover (fallback engaging) on the slower links.
func TestLivemigSweepDeterministicWithVisibleCrossover(t *testing.T) {
	rows1 := RunLivemig(Params{})
	rows2 := RunLivemig(Params{})
	out1, out2 := RenderLivemig(rows1), RenderLivemig(rows2)
	if out1 != out2 {
		t.Fatalf("sweep not deterministic:\n--- first\n%s\n--- second\n%s", out1, out2)
	}

	fallbacks := 0
	for _, r := range rows1 {
		o := r.Outcome
		switch o.Mode {
		case "precopy":
			if o.Downtime >= o.StopCopy {
				t.Errorf("bw=%.0f rate=%.0f: precopy downtime %s not below stop-and-copy %s",
					r.Bandwidth, r.DirtyRate, o.Downtime, o.StopCopy)
			}
		case "fallback":
			fallbacks++
			if o.Downtime <= o.StopCopy {
				t.Errorf("bw=%.0f rate=%.0f: fallback downtime %s should exceed the plain stop-and-copy %s",
					r.Bandwidth, r.DirtyRate, o.Downtime, o.StopCopy)
			}
		default:
			t.Errorf("bw=%.0f rate=%.0f: unknown mode %q", r.Bandwidth, r.DirtyRate, o.Mode)
		}
	}
	if fallbacks == 0 {
		t.Error("no crossover anywhere in the sweep: fallback never engaged")
	}
	if !strings.Contains(out1, "crossover at") {
		t.Errorf("crossover not called out in render:\n%s", out1)
	}

	// Downtime is monotone non-decreasing in dirty rate within one link while
	// the mode stays precopy and the round count stays put; the cheap global
	// property worth pinning is that a zero dirty rate freezes after round 1
	// with an empty residual on every link.
	for _, r := range rows1 {
		if r.DirtyRate == 0 && (r.Outcome.Rounds != 1 || r.Outcome.PagesResent != 0) {
			t.Errorf("bw=%.0f rate=0: rounds=%d resent=%d, want a single clean round",
				r.Bandwidth, r.Outcome.Rounds, r.Outcome.PagesResent)
		}
	}
}

func TestLivemigSweepFeedsMetrics(t *testing.T) {
	mreg := metrics.NewRegistry()
	rows := RunLivemig(Params{Metrics: mreg})
	h := mreg.Histogram("livemig/model_downtime_seconds")
	if got, want := h.Count(), uint64(len(rows)); got != want {
		t.Fatalf("downtime observations = %d, want %d", got, want)
	}
}

// TestChaosAllScenariosSurviveWithLiveMigration re-runs the full chaos sweep
// with the live path enabled: the tree carries a paged ballast, every
// migrate order attempts iterative precopy, and the extra ninth scenario
// kills the destination right after the first precopy round. Every scenario
// must still settle with correct checksums.
func TestChaosAllScenariosSurviveWithLiveMigration(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep in -short mode")
	}
	rows, err := RunChaos(ChaosConfig{
		Params: Params{Seed: 3},
		paged:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkChaosGolden(t, rows, "chaos-live.txt")
	if len(rows) != 15 {
		t.Fatalf("scenarios = %d, want 15 (8 classic + crash-dest-mid-precopy + 2 resize + 2 jobs + 2 persist)", len(rows))
	}
	byName := map[string]ChaosRow{}
	for _, r := range rows {
		byName[r.Scenario] = r
		if !r.Survived {
			t.Errorf("%s: survived=%v completed=%v correct=%v err=%q",
				r.Scenario, r.Survived, r.Completed, r.Correct, r.FinalErr)
		}
	}
	r, ok := byName["crash-dest-mid-precopy"]
	if !ok {
		t.Fatal("crash-dest-mid-precopy scenario missing")
	}
	if r.Counters[core.CtrMigrAborted] != 1 || r.Counters[core.CtrCkptRestores] != 1 {
		t.Errorf("crash-dest-mid-precopy counters: %v", r.Counters)
	}
	if r.Retries != 1 {
		t.Errorf("crash-dest-mid-precopy retries = %d, want 1", r.Retries)
	}
	found := false
	for _, line := range r.Schedule {
		if strings.Contains(line, "trap crash-host host=ws2") {
			found = true
		}
	}
	if !found {
		t.Errorf("mid-precopy trap never fired; schedule: %v", r.Schedule)
	}
}
