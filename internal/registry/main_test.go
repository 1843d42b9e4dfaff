package registry

import (
	"testing"

	"autoresched/internal/testutil"
)

// TestMain fails the package's test run if goroutines started by the tests
// are still alive after they finish — servers and pollers must all shut down
// cleanly.
func TestMain(m *testing.M) { testutil.VerifyTestMain(m) }
