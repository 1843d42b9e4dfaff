//go:build !race

package hpcm

import (
	"runtime/debug"
	"testing"
	"time"

	"autoresched/internal/mpi"
)

// migrationAllocCeiling is what one stop-and-copy migration of the process
// below allocated, steady state, before hpcm observed its own phase spans.
const migrationAllocCeiling = 96

// TestNilMetricsMigrationAllocatesNoMore: on a middleware without Metrics —
// how the end-to-end benchmark builds it — the span sites cost nothing, so
// a whole migration allocates no more than it did before they existed.
// (The race detector allocates on its own, hence the build tag.)
func TestNilMetricsMigrationAllocatesNoMore(t *testing.T) {
	u := mpi.NewUniverse(mpi.Options{Transport: mpi.Instant{}})
	mw, err := New(Options{Universe: u})
	if err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(100, func() { mw.span(SpanTotal, time.Second) }); avg != 0 {
		t.Fatalf("a span on nil Metrics allocates %.1f objects, want 0", avg)
	}
	main := func(ctx *Context) error {
		grid := make([]float64, 4096)
		if err := ctx.RegisterLazy("grid", &grid); err != nil {
			return err
		}
		if ctx.Resumed() {
			return ctx.Await("grid")
		}
		return ctx.PollPoint("go")
	}
	migrate := func() {
		p, err := mw.Start("app", "a", main)
		if err != nil {
			t.Fatal(err)
		}
		p.Signal(Command{DestHost: "b"})
		if err := p.Wait(); err != nil {
			t.Fatal(err)
		}
		if p.Migrations() != 1 {
			t.Fatal("the process did not migrate")
		}
	}
	// With the collector off the count is exact; the first runs still grow
	// the universe's and the pools' tables.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	testing.AllocsPerRun(100, migrate)
	if avg := testing.AllocsPerRun(50, migrate); avg > migrationAllocCeiling {
		t.Fatalf("a migration on nil Metrics allocates %.0f objects, want at most %d", avg, migrationAllocCeiling)
	}
}
