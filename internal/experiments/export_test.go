// Accessors only the tests of package experiments call.

package experiments

// chaosScenarioNames lists the chaos scenario set in run order — the one
// authoritative list behind every "N/N scenarios survive" claim. paged
// selects the sweep that appends the precopy-specific scenario
// (crash-dest-mid-precopy), so len(chaosScenarioNames(false)) and
// len(chaosScenarioNames(true)) are the two survival denominators;
// EXPERIMENTS.md's stated counts are pinned to them by
// TestChaosCountsMatchDocs.
func chaosScenarioNames(paged bool) []string {
	scs := chaosScenarios(paged)
	names := make([]string, 0, len(scs))
	for _, sc := range scs {
		names = append(names, sc.name)
	}
	return names
}
