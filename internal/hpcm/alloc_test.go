//go:build !race

package hpcm

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"testing"
	"time"

	"autoresched/internal/livemig"
	"autoresched/internal/mpi"
	"autoresched/internal/vclock"
)

// migrationAllocCeiling is what one stop-and-copy migration of the process
// below allocates, steady state: the span sites add nothing on nil Metrics,
// and the destination adopts the lazy grid instead of allocating a copy.
const migrationAllocCeiling = 95

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

// allocated returns the bytes the program has allocated so far.
func allocated() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// TestLiveMigrationCopiesTheRegionOnce: a converged live migration of an
// R-byte paged region pays for one copy of it, round 1's, plus the pages it
// resends. The destination adopts that copy as its region, the resumed
// incarnation allocates none of its own and the freeze delta ships windows
// of the source's region, so the whole migration stays under 1.25 R plus a
// fixed slack; a receive buffer or a zeroed region back would each add R.
func TestLiveMigrationCopiesTheRegionOnce(t *testing.T) {
	const slack = 512 << 10
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	mw, clock := newLiveBenchMW(t)
	defer clock.Close()
	gate := newTurnstile(clock)
	p, err := mw.Start("app", "a", liveMain(liveRegion, gate))
	if err != nil {
		t.Fatal(err)
	}
	gate.open() // the source holds its region
	before := allocated()
	p.Signal(Command{DestHost: "b"})
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	got := allocated() - before
	if rec := p.Records()[0]; rec.FreezeAt.IsZero() || rec.PrecopyRounds < 1 {
		t.Fatalf("the migration did not precopy and freeze: %+v", rec)
	}
	if limit := uint64(liveRegion*5/4 + slack); got > limit {
		t.Fatalf("a live migration of a %d-byte region allocated %d bytes, want at most %d", liveRegion, got, limit)
	}
}

// TestSecondLiveMigrationAllocatesNoRegion: a process's second live
// migration copies round 1 into the region its first one retired, so it
// allocates under R/4 plus a fixed slack, where the first pays R (above).
func TestSecondLiveMigrationAllocatesNoRegion(t *testing.T) {
	const slack = 512 << 10
	if got := liveRoundTrip(t, allocated); got > liveRegion/4+slack {
		t.Fatalf("the second live migration of a %d-byte region allocated %d bytes, want at most %d", liveRegion, got, liveRegion/4+slack)
	}
}

// TestLiveMigrationsRetainOneRegion: the middleware keeps one retired
// region however many processes migrated live, not one per process. Four
// processes of an R-byte region, each migrated once and running on, hold at
// most R more live heap than before they moved.
func TestLiveMigrationsRetainOneRegion(t *testing.T) {
	const procs, slack = 4, 1 << 20
	var churn, stop atomic.Bool
	arrays := make(chan *byte, procs)
	mw, clock := newLiveBenchMW(t)
	defer clock.Close()
	drain := func() { // the channel would keep every incarnation's region alive
		clock.Sleep(10 * time.Millisecond) // each incarnation reports before its first sleep
		for range procs {
			<-arrays
		}
	}
	liveHeap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	ps := make([]*Process, procs)
	for i := range ps {
		p, err := mw.Start(fmt.Sprintf("app%d", i), "a", shadowedMain(liveRegion, &churn, &stop, arrays))
		if err != nil {
			t.Fatal(err)
		}
		ps[i] = p
	}
	drain()
	before := liveHeap()
	for _, p := range ps {
		if rec := migrateTo(t, clock, p, "b"); rec.FreezeAt.IsZero() {
			t.Fatalf("%s did not migrate live: %+v", p.Name(), rec)
		}
	}
	drain()
	if grew := int64(liveHeap()) - int64(before); grew > liveRegion+slack {
		t.Fatalf("%d processes of a %d-byte region migrated live once each grew the live heap by %d bytes, want at most %d", procs, liveRegion, grew, liveRegion+slack)
	}
	stop.Store(true)
	for _, p := range ps {
		if err := p.Wait(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestResumedRegisterPagesAllocatesNoRegion: a resumed incarnation's region
// waits for the memory that arrived; only a fresh one allocates its own.
func TestResumedRegisterPagesAllocatesNoRegion(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	inventory := image{Segments: []segment{{Name: "region", Lazy: true, Size: liveRegion, Enc: encRaw}}}
	for _, tc := range []struct {
		ctx    *Context
		region bool
	}{
		{&Context{state: newRegistry(nil)}, true},
		{&Context{label: "moved", state: newRegistry(newSavedState(nil, inventory))}, false},
	} {
		before := allocated()
		if _, err := tc.ctx.RegisterPages("region", liveRegion, livePageBytes); err != nil {
			t.Fatal(err)
		}
		if got := allocated() - before; (got >= liveRegion) != tc.region {
			t.Fatalf("RegisterPages (resumed %v) allocated %d bytes for a %d-byte region", tc.ctx.Resumed(), got, liveRegion)
		}
	}
}

// TestStopAndCopyDoesNotShareTheSourceArray: stop-and-copy collects an
// eager []float64 by reference, so the destination must copy it — adopting
// it as the precopy rounds' snapshots are would hand the resumed
// incarnation memory the source still owns.
func TestStopAndCopyDoesNotShareTheSourceArray(t *testing.T) {
	mw, _ := newMW(t, &testBinder{}, 0)
	arrays := make(chan *float64, 2)
	p, err := mw.Start("app", "ws1", func(ctx *Context) error {
		var grid []float64
		if err := ctx.Register("grid", &grid); err != nil {
			return err
		}
		if !ctx.Resumed() {
			grid = make([]float64, 512)
		}
		arrays <- &grid[0]
		for !ctx.Resumed() {
			if err := ctx.PollPoint("go"); err != nil {
				return err
			}
			ctx.Sleep(time.Millisecond)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Signal(Command{DestHost: "ws2"})
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	if p.Migrations() != 1 {
		t.Fatal("the process did not migrate")
	}
	if source, dest := <-arrays, <-arrays; source == dest {
		t.Fatal("the destination's slice shares the source's backing array")
	}
}

// TestStopAndCopyCopiesNoLazyState: a stop-and-copy migration hands its lazy
// state over after the commit, so the destination adopts the source's
// R-byte array, streamed in quarter-R chunks, instead of copying it, and
// the whole migration stays under R/4 plus a fixed slack; a receive buffer
// back would add R.
func TestStopAndCopyCopiesNoLazyState(t *testing.T) {
	const slack = 512 << 10
	clock := vclock.NewAuto(vclock.Epoch)
	defer clock.Close()
	u := mpi.NewUniverse(mpi.Options{Clock: clock, Transport: mpi.Instant{}})
	mw, err := New(Options{Universe: u, ChunkBytes: liveRegion / 4})
	if err != nil {
		t.Fatal(err)
	}
	gate := newTurnstile(clock)
	p, err := mw.Start("app", "a", func(ctx *Context) error {
		var grid []float64
		if err := ctx.RegisterLazy("grid", &grid); err != nil {
			return err
		}
		if ctx.Resumed() {
			return ctx.Await("grid")
		}
		grid = make([]float64, liveRegion/8)
		gate.pass()
		for {
			if err := ctx.PollPoint("go"); err != nil {
				return err
			}
			ctx.Sleep(time.Millisecond)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	gate.open() // the source holds its array
	before := allocated()
	p.Signal(Command{DestHost: "b"})
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	got := allocated() - before
	if p.Migrations() != 1 {
		t.Fatal("the process did not migrate")
	}
	if limit := uint64(liveRegion/4 + slack); got > limit {
		t.Fatalf("a stop-and-copy migration of a %d-byte lazy array allocated %d bytes, want at most %d", liveRegion, got, limit)
	}
}

// TestPrecopyFallbackInstallsTheSourcesRegion: when precopy does not
// converge, the stop-and-copy that follows collects the paged region by
// reference and the destination installs that memory as its region, so
// from the abandoned attempt to the end the migration allocates under R/4
// plus a fixed slack; a copy of the region would add R.
func TestPrecopyFallbackInstallsTheSourcesRegion(t *testing.T) {
	const slack = 512 << 10
	var before uint64
	mw, clock := newLiveMW(t, nil, &livemig.Config{}, func(ev MigrationEvent) {
		if ev.Phase == PhaseAborted && before == 0 {
			before = allocated()
		}
	})
	defer clock.(*vclock.Auto).Close()
	// Every poll-point dirties every page, faster than a round ships them.
	p, err := mw.Start("app", "ws1", func(ctx *Context) error {
		pages, err := ctx.RegisterPages("region", liveRegion, livePageBytes)
		if err != nil {
			return err
		}
		if ctx.Resumed() {
			return ctx.Await("region")
		}
		for i := 0; ; i++ {
			for w := 0; w < liveRegion/8; w += livePageBytes / 8 {
				pages.SetFloat64(w, float64(i))
			}
			if err := ctx.PollPoint("go"); err != nil {
				return err
			}
			ctx.Sleep(10 * time.Millisecond)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Signal(Command{DestHost: "ws2"})
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	got := allocated() - before
	if rec := p.Records()[0]; before == 0 || rec.PrecopyRounds != 0 || !rec.FreezeAt.IsZero() {
		t.Fatalf("the migration did not fall back to stop-and-copy: %+v", rec)
	}
	if limit := uint64(liveRegion/4 + slack); got > limit {
		t.Fatalf("a precopy fallback of a %d-byte region allocated %d bytes, want at most %d", liveRegion, got, limit)
	}
}
