package experiments

import (
	"fmt"
	"testing"
)

// TestChaosDeterministicAcrossSeeds runs a migration-heavy scenario subset
// twice for each of three seeds and requires the deterministic report —
// fault schedule, robustness counters, migration phase counts — to be
// byte-identical between the two runs. This is the regression fence for the
// observability layer: a span that leaks scheduling jitter into the
// deterministic section breaks it. (That the span pipeline's quantiles are
// pure functions of exact timestamps is metrics/spans_test.go's job.)
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
				Params:    Params{Scale: 1000, Seed: seed},
				scenarios: scenarios,
			}
			run := func() string {
				rows, err := RunChaos(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return RenderChaosDeterministic(rows)
			}
			out1, out2 := run(), run()
			if out1 != out2 {
				t.Fatalf("deterministic sections differ:\n--- first\n%s\n--- second\n%s", out1, out2)
			}
		})
	}
}
