package scenario_test

import (
	"testing"

	"autoresched/internal/scenario"
)

// TestExternal reads what export_test.go exposes, which resolves only
// against the package's test variant, and calls Lay.
func TestExternal(t *testing.T) {
	scenario.Lay()
	_ = scenario.Incubate()
}
