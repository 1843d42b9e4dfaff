package user_test

import (
	"testing"

	"autoresched/internal/scenario"
)

// TestReadsScenario is another package's test: what it calls has a reader.
func TestReadsScenario(t *testing.T) { scenario.OtherTestReads() }
