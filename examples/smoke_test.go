// Package examples_test smoke-tests every runnable example: each must
// build, run to completion within a deadline and exit zero. The examples
// double as end-to-end integration tests of the public wiring (cluster +
// core + hpcm + registry), so a refactor that breaks their API surface
// fails here rather than in a user's copy-paste.
package examples_test

import (
	"context"
	"os/exec"
	"testing"
	"time"
)

func TestExamplesRunClean(t *testing.T) {
	if testing.Short() {
		t.Skip("example binaries in -short mode")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skipf("go tool not on PATH: %v", err)
	}
	// Each example's simulated run takes well under a second of wall time
	// (virtual time is discrete-event); the deadline only has to catch hangs.
	const deadline = 90 * time.Second
	for _, name := range []string{
		"quickstart", "testtree", "policies", "hierarchy", "faulttolerance", "jacobi",
	} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			ctx, cancel := context.WithTimeout(context.Background(), deadline)
			defer cancel()
			cmd := exec.CommandContext(ctx, "go", "run", "./"+name)
			cmd.Dir = "."
			out, err := cmd.CombinedOutput()
			if ctx.Err() != nil {
				t.Fatalf("example %s exceeded %v:\n%s", name, deadline, out)
			}
			if err != nil {
				t.Fatalf("example %s failed: %v\n%s", name, err, out)
			}
		})
	}
}
