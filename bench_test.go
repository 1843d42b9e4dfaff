// Package autoresched's top-level benchmarks regenerate every table and
// figure of the paper's evaluation (Section 5). Each benchmark runs the full
// experiment once per iteration (whole simulated cluster runs on the Auto
// clock) and reports the paper's headline quantities as custom
// metrics, so
//
//	go test -bench=. -benchmem
//
// prints the reproduction next to the numbers the paper published. The
// EXPERIMENTS.md file records a full comparison.
package autoresched

import (
	"strings"
	"testing"
	"time"

	"autoresched/internal/experiments"
	"autoresched/internal/rules"
	"autoresched/internal/sysinfo"
)

// BenchmarkTable1StateSemantics regenerates Table 1: the semantics of the
// free/busy/overloaded states (loaded, migrate-in, migrate-out).
func BenchmarkTable1StateSemantics(b *testing.B) {
	states := []rules.State{rules.Free, rules.Busy, rules.Overloaded}
	var sink int
	for i := 0; i < b.N; i++ {
		for _, s := range states {
			if s.Loaded() {
				sink++
			}
			if s.AcceptsMigration() {
				sink++
			}
			if s.WantsOffload() {
				sink++
			}
		}
	}
	if sink == 0 {
		b.Fatal("state semantics vanished")
	}
	// Table 1's content, verified: exactly one state accepts migration and
	// exactly one wants offload.
	b.ReportMetric(1, "accepting-states")
	b.ReportMetric(1, "offloading-states")
}

// BenchmarkFigure3SimpleRules regenerates Figure 3: parsing and evaluating
// the paper's two printed simple rules.
func BenchmarkFigure3SimpleRules(b *testing.B) {
	engine := rules.NewEngine(nil)
	if _, err := engine.LoadFile("internal/rules/testdata/figure3.rules"); err != nil {
		b.Fatal(err)
	}
	snap := sysinfo.Snapshot{CPUIdlePct: 44, Sockets: 901}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		state, err := engine.State(snap)
		if err != nil {
			b.Fatal(err)
		}
		if state != rules.Overloaded {
			b.Fatalf("state = %v", state)
		}
	}
}

// BenchmarkFigure4ComplexRule regenerates Figure 4: evaluating the complex
// rule "( 40% * r4 + 30% * r1 + 30% * r3 ) & r2" through its four
// sub-rules.
func BenchmarkFigure4ComplexRule(b *testing.B) {
	engine := rules.NewEngine(nil)
	if _, err := engine.LoadFile("internal/rules/testdata/figure4.rules"); err != nil {
		b.Fatal(err)
	}
	engine.SetRoot(5)
	snap := sysinfo.Snapshot{Load1: 3, CPUIdlePct: 40, MemAvailPct: 5, Sockets: 800}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		state, err := engine.State(snap)
		if err != nil {
			b.Fatal(err)
		}
		if state != rules.Busy {
			b.Fatalf("state = %v", state)
		}
	}
}

// BenchmarkFig5OverheadLoad regenerates Figure 5: the rescheduler's load
// and CPU overhead on an observed workstation.
func BenchmarkFig5OverheadLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunOverhead(experiments.OverheadConfig{
			Params: experiments.Params{Seed: int64(i + 1)},
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Load1OverheadPct, "load1-overhead-%")
		b.ReportMetric(res.CPUOverheadPct, "cpu-overhead-%")
		b.ReportMetric(res.Load1With, "load1-with")
		b.ReportMetric(res.Load1Without, "load1-without")
	}
}

// BenchmarkFig6OverheadComm regenerates Figure 6: the rescheduler's
// communication overhead (send/receive KB/s with and without).
func BenchmarkFig6OverheadComm(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunOverhead(experiments.OverheadConfig{
			Params: experiments.Params{Seed: int64(i + 1)},
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.SentWith, "send-KB/s-with")
		b.ReportMetric(res.SentWithout, "send-KB/s-without")
		b.ReportMetric(res.RecvWith, "recv-KB/s-with")
		b.ReportMetric(res.RecvWithout, "recv-KB/s-without")
	}
}

// BenchmarkFig7EfficiencyCPU regenerates Figure 7: the CPU timeline of one
// autonomic migration, reporting the phase durations of Section 5.2.
func BenchmarkFig7EfficiencyCPU(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunEfficiency(experiments.EfficiencyConfig{
			Params:    experiments.Params{Seed: int64(i + 1)},
			AppStart:  120 * time.Second,
			LoadStart: 200 * time.Second,
			Warmup:    5,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.ReactionTime.Seconds(), "reaction-s")
		b.ReportMetric(res.InitTime.Seconds(), "spawn-s")
		b.ReportMetric(res.TimeToPoll.Seconds(), "to-pollpoint-s")
		b.ReportMetric(res.MigrationTime.Seconds(), "migration-s")
	}
}

// BenchmarkFig8EfficiencyComm regenerates Figure 8: the communication burst
// of the same migration, reporting how much state moved and the
// restore/execute overlap.
func BenchmarkFig8EfficiencyComm(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunEfficiency(experiments.EfficiencyConfig{
			Params:    experiments.Params{Seed: int64(i + 1)},
			AppStart:  120 * time.Second,
			LoadStart: 200 * time.Second,
			Warmup:    5,
		})
		if err != nil {
			b.Fatal(err)
		}
		moved := float64(res.Record.EagerBytes+res.Record.LazyBytes) / 1e6
		overlap := res.Record.RestoreDone.Sub(res.Record.ResumeAt).Seconds()
		b.ReportMetric(moved, "state-MB")
		b.ReportMetric(overlap, "restore-overlap-s")
		peak := res.Recorder.Series("ws2/recvKBs").Max()
		b.ReportMetric(peak, "peak-recv-KB/s")
	}
}

// BenchmarkTable2Policies regenerates Table 2: total execution time under
// the three policies, plus the chosen destinations encoded as metrics
// (policy2 must pick the communicating ws2, policy3 the free ws4).
func BenchmarkTable2Policies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunPolicies(experiments.PoliciesConfig{
			Params: experiments.Params{Seed: int64(i + 1)},
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].TotalSec, "policy1-total-s")
		b.ReportMetric(rows[1].TotalSec, "policy2-total-s")
		b.ReportMetric(rows[2].TotalSec, "policy3-total-s")
		b.ReportMetric(rows[1].MigrationSec, "policy2-migration-s")
		b.ReportMetric(rows[2].MigrationSec, "policy3-migration-s")
		if !strings.Contains(rows[1].MigrateTo, "ws2") || !strings.Contains(rows[2].MigrateTo, "ws4") {
			b.Fatalf("destinations: p2=%s p3=%s", rows[1].MigrateTo, rows[2].MigrateTo)
		}
	}
}
