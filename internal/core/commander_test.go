package core

import (
	"strings"
	"testing"
	"time"

	"autoresched/internal/hpcm"
	"autoresched/internal/metrics"
	"autoresched/internal/proto"
	"autoresched/internal/sim"
	"autoresched/internal/vclock"
)

// launchHeld builds a three-host system on clock and launches one app on
// ws1 whose first incarnation waits for release before running body, so
// orders sent before the release find it on ws1 under its first pid. The
// test fires release and waits for the app.
func launchHeld(t *testing.T, clock vclock.Clock, opts Options, body hpcm.Main) (*System, *App, *vclock.Event) {
	t.Helper()
	cl := NewCluster(clock, 12.5e6)
	t.Cleanup(cl.Close)
	names, err := cl.AddHosts("ws", 3, sim.Config{Speed: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	opts.Cluster = cl
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddNodes(names...); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Stop)
	release := new(vclock.Event)
	app, err := s.Launch("app", "ws1", nil, func(ctx *hpcm.Context) error {
		if !ctx.Resumed() {
			vclock.Await(clock, release)
		}
		return body(ctx)
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, app, release
}

func TestMigrateSignalsManagedProcess(t *testing.T) {
	ring := &metrics.Ring{}
	s, app, release := launchHeld(t, vclock.NewAuto(vclock.Epoch), Options{Events: ring}, func(ctx *hpcm.Context) error {
		if ctx.Resumed() {
			return nil
		}
		return ctx.PollPoint("p")
	})
	// The signal's payload is the one carrier of the destination.
	order := proto.MigrateOrder{PID: app.Process().PID(), DestHost: "ws3", DestAddr: "cmd://ws3", Policy: "policy3"}
	if err := s.Migrate("ws1", order); err != nil {
		t.Fatal(err)
	}
	release.Fire()
	if err := app.Wait(); err != nil {
		t.Fatal(err)
	}
	if recs := app.Process().Records(); len(recs) != 1 || recs[0].From != "ws1" || recs[0].To != "ws3" {
		t.Fatalf("records = %+v", recs)
	}
	if n := ring.CountBy(metrics.SourceCommander, "order"); n != 1 {
		t.Fatalf("order events = %d, want 1", n)
	}
}

func TestMigrateUnknownPID(t *testing.T) {
	s, app, release := launchHeld(t, vclock.NewAuto(vclock.Epoch), Options{}, func(*hpcm.Context) error { return nil })
	defer func() {
		release.Fire()
		_ = app.Wait()
	}()
	err := s.Migrate("ws1", proto.MigrateOrder{PID: 99, DestHost: "ws3"})
	if err == nil || !strings.Contains(err.Error(), "no managed process") {
		t.Fatalf("err = %v", err)
	}
	if err := s.Migrate("ws2", proto.MigrateOrder{PID: app.Process().PID(), DestHost: "ws3"}); err == nil {
		t.Fatal("an order on the wrong host reached the process")
	}
	if err := s.Migrate("ws1", proto.MigrateOrder{PID: app.Process().PID()}); err == nil {
		t.Fatal("order without destination accepted")
	}
}

// TestMigrateFollowsTheCurrentProcess: an order names the pid the app runs
// under now, on the host it runs on now — not the pid it left behind, and
// not a process that has finished.
func TestMigrateFollowsTheCurrentProcess(t *testing.T) {
	done := new(vclock.Event)
	clock := vclock.NewAuto(vclock.Epoch)
	s, app, release := launchHeld(t, clock, Options{}, func(ctx *hpcm.Context) error {
		if ctx.Resumed() {
			vclock.Await(clock, done)
			return nil
		}
		return ctx.PollPoint("p")
	})
	oldPID := app.Process().PID()
	if err := s.Migrate("ws1", proto.MigrateOrder{PID: oldPID, DestHost: "ws2"}); err != nil {
		t.Fatal(err)
	}
	release.Fire()
	deadline := time.Now().Add(20 * time.Second)
	for app.Host() != "ws2" {
		if time.Now().After(deadline) {
			t.Fatalf("app still on %s", app.Host())
		}
		s.Clock().Sleep(time.Second)
	}
	if err := s.Migrate("ws1", proto.MigrateOrder{PID: oldPID, DestHost: "ws3"}); err == nil {
		t.Fatal("the pid left behind on ws1 is still a target")
	}
	newPID := app.Process().PID()
	if err := s.Migrate("ws2", proto.MigrateOrder{PID: newPID, DestHost: "ws3"}); err != nil {
		t.Fatalf("the migrated incarnation is no target: %v", err)
	}
	done.Fire()
	if err := app.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := s.Migrate("ws2", proto.MigrateOrder{PID: newPID, DestHost: "ws3"}); err == nil {
		t.Fatal("a finished process is still a target")
	}
}

func TestMigrateDedupsRedeliveredOrders(t *testing.T) {
	clock := vclock.NewAuto(vclock.Epoch)
	mreg := metrics.NewRegistry()
	ring := &metrics.Ring{}
	s, app, release := launchHeld(t, clock, Options{Metrics: mreg, Events: ring},
		func(*hpcm.Context) error { return nil })
	defer func() {
		release.Fire()
		_ = app.Wait()
	}()
	orders := func() int { return ring.CountBy(metrics.SourceCommander, "order") }
	order := proto.MigrateOrder{PID: app.Process().PID(), DestHost: "ws2", DestAddr: "cmd://ws2"}
	if err := s.Migrate("ws1", order); err != nil {
		t.Fatal(err)
	}
	// The same order redelivered inside the window: acknowledged, not
	// re-executed.
	if err := s.Migrate("ws1", order); err != nil {
		t.Fatal(err)
	}
	if got := orders(); got != 1 {
		t.Fatalf("orders executed = %d, want 1", got)
	}
	if mreg.Counter(CtrOrdersDeduped).Value() != 1 {
		t.Fatalf("counter = %d", mreg.Counter(CtrOrdersDeduped).Value())
	}
	// A different destination is a new decision, not a duplicate.
	if err := s.Migrate("ws1", proto.MigrateOrder{PID: order.PID, DestHost: "ws3", DestAddr: "cmd://ws3"}); err != nil {
		t.Fatal(err)
	}
	// Past the window the same order executes again (a legitimate repeat
	// after the registry's cooldown).
	clock.Sleep(time.Minute)
	if err := s.Migrate("ws1", order); err != nil {
		t.Fatal(err)
	}
	if got := orders(); got != 3 {
		t.Fatalf("orders executed = %d, want 3", got)
	}
	if mreg.Counter(CtrOrdersDeduped).Value() != 1 {
		t.Fatalf("counter = %d after the window", mreg.Counter(CtrOrdersDeduped).Value())
	}
}
