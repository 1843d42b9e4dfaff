// Accessors only the tests of package experiments call.

package experiments

import "autoresched/internal/livemig"

// chaosScenarioNames lists the chaos scenario set in run order — the one
// authoritative list behind every "N/N scenarios survive" claim. live
// selects the sweep that appends the precopy-specific scenario
// (crash-dest-mid-precopy), so len(chaosScenarioNames(false)) and
// len(chaosScenarioNames(true)) are the two survival denominators;
// EXPERIMENTS.md's stated counts are pinned to them by
// TestChaosCountsMatchDocs.
func chaosScenarioNames(live bool) []string {
	var cfg *livemig.Config
	if live {
		cfg = &livemig.Config{}
	}
	scs := chaosScenarios(cfg)
	names := make([]string, 0, len(scs))
	for _, sc := range scs {
		names = append(names, sc.name)
	}
	return names
}
