package experiments

import (
	"os"
	"reflect"
	"testing"

	"autoresched/internal/jobs"
)

// TestMultijobDeterministic: the shoot-out is a pure function of the seed —
// two runs produce identical rows and byte-identical reports.
func TestMultijobDeterministic(t *testing.T) {
	cfg := Params{Seed: 1}
	a := RunMultijob(cfg)
	b := RunMultijob(cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("rows differ between identical runs:\n%#v\n%#v", a, b)
	}
	if ra, rb := RenderMultijob(a), RenderMultijob(b); ra != rb {
		t.Fatalf("reports differ between identical runs:\n%s\n---\n%s", ra, rb)
	}
}

// TestMultijobPolicyOrdering: the experiment's claims, per seed — the
// priority-preemptive policy strictly lowers every high-priority wait
// quantile against FIFO (that is what preemption buys), and backfill lowers
// the makespan against FIFO (that is what walking past a blocked gang
// buys). Every arm drains the full queue.
func TestMultijobPolicyOrdering(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		cfg := Params{Seed: seed}
		rows := RunMultijob(cfg)
		byPolicy := make(map[string]MultijobRow, len(rows))
		for _, r := range rows {
			if r.Completed != multijobJobs {
				t.Fatalf("seed %d: policy %s completed %d of %d jobs", seed, r.Policy, r.Completed, multijobJobs)
			}
			byPolicy[r.Policy] = r
		}
		fifo := byPolicy["fifo"]
		prio := byPolicy["priority-preemptive"]
		back := byPolicy["backfill"]

		const hi = 2
		fw, pw := fifo.Waits[hi], prio.Waits[hi]
		if fw.Jobs == 0 || pw.Jobs == 0 {
			t.Fatalf("seed %d: no high-priority jobs in the sample", seed)
		}
		if !(pw.P50 < fw.P50 && pw.P90 < fw.P90 && pw.Max < fw.Max) {
			t.Errorf("seed %d: priority-preemptive does not strictly lower high-priority waits: fifo p50/p90/max=%d/%d/%d, preemptive=%d/%d/%d",
				seed, fw.P50, fw.P90, fw.Max, pw.P50, pw.P90, pw.Max)
		}
		if !(back.MakespanTicks < fifo.MakespanTicks) {
			t.Errorf("seed %d: backfill makespan %d not below fifo %d", seed, back.MakespanTicks, fifo.MakespanTicks)
		}
		preempts := 0
		for _, n := range prio.Preemptions {
			preempts += n
		}
		if preempts == 0 {
			t.Errorf("seed %d: priority-preemptive planned no preemptions", seed)
		}
		if n := fifo.Preemptions[jobs.EvictRequeue] + fifo.Preemptions[jobs.EvictShrink] + fifo.Preemptions[jobs.EvictMigrate]; n != 0 {
			t.Errorf("seed %d: fifo planned %d preemptions; want none", seed, n)
		}
	}
}

// TestMultijobGolden pins the documented seed-42 report byte for byte: the
// file is what `repro -exp multijob -seed 42` prints (captured from the
// bespoke tick model before the shoot-out moved onto scenario.Runner).
func TestMultijobGolden(t *testing.T) {
	const golden = "testdata/multijob-seed42.txt"
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	got := RenderMultijob(RunMultijob(Params{Seed: 42})) + "\n"
	if got != string(want) {
		t.Fatalf("seed-42 report drifted from %s; if the change is intended, regenerate with\n"+
			"  go run ./cmd/repro -exp multijob -seed 42 > internal/experiments/%s\n--- got\n%s--- want\n%s",
			golden, golden, got, want)
	}
}

// TestMultijobScenariosInSpace: every hand-built arm is a scenario the
// generator could have drawn from the narrowed space, so the Runner never
// sees a value (a zero scheduling interval, a fault naming an unknown host)
// its generated inputs would not contain.
func TestMultijobScenariosInSpace(t *testing.T) {
	space := multijobSpace()
	for seed := int64(1); seed <= 100; seed++ {
		arms := multijobScenarios(seed)
		if len(arms) != len(jobs.Policies()) {
			t.Fatalf("seed %d: %d arms for %d policies", seed, len(arms), len(jobs.Policies()))
		}
		for _, s := range arms {
			if err := space.Check(s); err != nil {
				t.Errorf("seed %d: %v", seed, err)
			}
		}
	}
}
