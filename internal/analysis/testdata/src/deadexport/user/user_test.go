package user_test

import (
	"testing"

	"autoresched/internal/scenario"
)

// TestReadsScenario is another package's test: what it calls and reads has
// a reader.
func TestReadsScenario(t *testing.T) {
	scenario.OtherTestReads()
	var p scenario.Perch
	_ = p.Height
}
