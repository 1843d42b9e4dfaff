package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestChaosCountsMatchDocs pins every scenario-count claim in
// EXPERIMENTS.md to the one authoritative list (chaosScenarioNames). The
// two counts — the base chaos sweep and the live sweep that adds
// crash-dest-mid-precopy — used to be hand-maintained in two sections and
// drifted; now a count edit in either place fails here unless the scenario
// list actually changed.
func TestChaosCountsMatchDocs(t *testing.T) {
	base := chaosScenarioNames(false)
	live := chaosScenarioNames(true)
	if len(live) != len(base)+1 {
		t.Fatalf("live sweep has %d scenarios, want base %d plus crash-dest-mid-precopy", len(live), len(base))
	}
	added := map[string]bool{}
	for _, n := range live {
		added[n] = true
	}
	for _, n := range base {
		delete(added, n)
	}
	if len(added) != 1 || !added["crash-dest-mid-precopy"] {
		t.Fatalf("live sweep's addition = %v, want exactly crash-dest-mid-precopy", added)
	}

	raw, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)

	// The base count is stated once, as N/N scenarios survive.
	wantBase := fmt.Sprintf("**%d/%d scenarios survive**", len(base), len(base))
	if n := strings.Count(doc, wantBase); n != 1 {
		t.Errorf("EXPERIMENTS.md states %q %d times, want exactly once", wantBase, n)
	}
	// The live section derives its count from the list rather than
	// restating an independent number.
	wantLive := fmt.Sprintf("(%d/%d, per", len(live), len(live))
	if !strings.Contains(doc, wantLive) {
		t.Errorf("EXPERIMENTS.md missing the derived live count %q", wantLive)
	}
	// And no stale survival claim hides elsewhere: every N/N scenarios
	// survive match must carry the base count.
	re := regexp.MustCompile(`(\d+)/(\d+) scenarios survive`)
	for _, m := range re.FindAllStringSubmatch(doc, -1) {
		if m[1] != m[2] || m[1] != fmt.Sprint(len(base)) {
			t.Errorf("EXPERIMENTS.md claims %q, but the authoritative list has %d scenarios", m[0], len(base))
		}
	}
}
