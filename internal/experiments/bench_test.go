package experiments

import (
	"fmt"
	"testing"
)

// BenchmarkScale64 times one whole 64-host sweep — cluster build, 64
// monitors heartbeating into the registry, four checksummed tree apps,
// churn, injected overloads, and the resulting migrations. One iteration is
// one sweep; ns/op is end-to-end wall time for the paper-sized cluster.
func BenchmarkScale64(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := RunScale(ScaleConfig{Params: Params{Seed: 42}, Hosts: []int{64}})
		if err != nil {
			b.Fatal(err)
		}
		if rows[0].Completed != rows[0].Apps || !rows[0].Correct {
			b.Fatalf("sweep degraded: %+v", rows[0])
		}
	}
}

// BenchmarkWarmupAblation measures the Section 5.2 damping trade-off: how
// often a transient load burst causes a pointless migration at warm-up 1
// versus warm-up 7 (the paper's ~72-second reaction window).
func BenchmarkWarmupAblation(b *testing.B) {
	for _, warmup := range []int{1, 7} {
		b.Run(fmt.Sprintf("warmup%d", warmup), func(b *testing.B) {
			falseMoves := 0
			for i := 0; i < b.N; i++ {
				migrations, err := runFalseMigration(Params{Seed: int64(i + 1)}, warmup)
				if err != nil {
					b.Fatal(err)
				}
				if migrations > 0 {
					falseMoves++
				}
			}
			b.ReportMetric(float64(falseMoves)/float64(b.N), "false-migrations/op")
		})
	}
}
