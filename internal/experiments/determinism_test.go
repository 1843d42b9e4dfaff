package experiments

import (
	"fmt"
	"testing"
)

// TestChaosDeterministicAcrossSeeds runs a migration-heavy scenario subset
// twice for each of three seeds and requires the whole report — fault
// schedule, robustness counters, timings and phase quantiles — to be
// byte-identical between the two runs. The seeds' subtests run in parallel,
// each on its own Auto clock. (That the span pipeline's quantiles are pure
// functions of exact timestamps is metrics/spans_test.go's job.)
func TestChaosDeterministicAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed chaos determinism sweep in -short mode")
	}
	scenarios := []string{"degraded-migration", "partition-abort", "duplicate-order"}
	for _, seed := range []int64{1, 2, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			cfg := ChaosConfig{
				Params:    Params{Seed: seed},
				scenarios: scenarios,
			}
			run := func() string {
				rows, err := RunChaos(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return RenderChaos(rows)
			}
			out1, out2 := run(), run()
			if out1 != out2 {
				t.Fatalf("reports differ:\n--- first\n%s\n--- second\n%s", out1, out2)
			}
		})
	}
}
