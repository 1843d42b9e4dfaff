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

// spanRig is a three-host system with metrics on, where apps launched on
// ws1 wait for their own release before running their body.
type spanRig struct {
	t     *testing.T
	clock *vclock.Auto
	sys   *System
	reg   *metrics.Registry
}

func newSpanRig(t *testing.T, events metrics.Sink) *spanRig {
	t.Helper()
	clock := vclock.NewAuto(vclock.Epoch)
	cl := NewCluster(clock, 12.5e6)
	t.Cleanup(cl.Close)
	names, err := cl.AddHosts("ws", 3, sim.Config{Speed: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	s, err := New(Options{Cluster: cl, Metrics: reg, Events: events})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddNodes(names...); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Stop)
	return &spanRig{t: t, clock: clock, sys: s, reg: reg}
}

// launch starts name on ws1, held until the returned Event fires.
func (r *spanRig) launch(name string, body hpcm.Main) (*App, *vclock.Event) {
	r.t.Helper()
	release := new(vclock.Event)
	app, err := r.sys.Launch(name, "ws1", nil, func(ctx *hpcm.Context) error {
		if !ctx.Resumed() {
			vclock.Await(r.clock, release)
		}
		return body(ctx)
	})
	if err != nil {
		r.t.Fatal(err)
	}
	return app, release
}

// order sends the commander an order moving app from ws1 to dest.
func (r *spanRig) order(app *App, dest string) {
	r.t.Helper()
	if err := r.sys.Migrate("ws1", proto.MigrateOrder{PID: app.Process().PID(), DestHost: dest}); err != nil {
		r.t.Fatal(err)
	}
}

func (r *spanRig) span(name string) metrics.HistogramSnapshot {
	return r.reg.Histogram(name).Snapshot()
}

// pollOnce migrates at its first poll-point and then ends.
func pollOnce(ctx *hpcm.Context) error {
	if ctx.Resumed() {
		return nil
	}
	return ctx.PollPoint("p")
}

// TestSameRouteOrdersTimeTheirOwnProcess: two processes on one host are
// both ordered to the same destination before either reaches a poll-point.
// Each migration's poll wait and total run from its own order.
func TestSameRouteOrdersTimeTheirOwnProcess(t *testing.T) {
	r := newSpanRig(t, nil)
	a, releaseA := r.launch("a", pollOnce)
	b, releaseB := r.launch("b", pollOnce)
	r.order(a, "ws2") // t0
	r.clock.Sleep(5 * time.Second)
	r.order(b, "ws2") // t0+5s
	r.clock.Sleep(2 * time.Second)
	releaseB.Fire() // b polls at t0+7s: 2s after its order
	r.clock.Sleep(3 * time.Second)
	releaseA.Fire() // a polls at t0+10s: 10s after its order
	if err := a.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := b.Wait(); err != nil {
		t.Fatal(err)
	}
	ra, rb := a.Process().Records(), b.Process().Records()
	if len(ra) != 1 || len(rb) != 1 {
		t.Fatalf("records: a %+v, b %+v", ra, rb)
	}
	if wa, wb := ra[0].PollPointAt.Sub(ra[0].CommandAt), rb[0].PollPointAt.Sub(rb[0].CommandAt); wa != 10*time.Second || wb != 2*time.Second {
		t.Fatalf("poll waits a %v, b %v, want 10s and 2s", wa, wb)
	}
	if pw := r.span(hpcm.SpanPollWait); pw.Count != 2 || pw.Sum != 12 {
		t.Fatalf("poll_wait: %d samples summing %vs, want 2 summing 12s", pw.Count, pw.Sum)
	}
	want := ra[0].MigrationTime().Seconds() + rb[0].MigrationTime().Seconds()
	if tot := r.span(hpcm.SpanTotal); tot.Count != 2 || tot.Sum != want {
		t.Fatalf("total: %d samples summing %vs, want 2 summing %vs", tot.Count, tot.Sum, want)
	}
}

// TestUnconsumedOrderLendsNoTime: a process ordered off ws1 finishes before
// its next poll-point. A later migration on the same route times from its
// own order, not from the unconsumed one.
func TestUnconsumedOrderLendsNoTime(t *testing.T) {
	r := newSpanRig(t, nil)
	b, releaseB := r.launch("b", pollOnce)
	a, releaseA := r.launch("a", func(*hpcm.Context) error { return nil })
	r.order(b, "ws2") // t0
	r.clock.Sleep(5 * time.Second)
	r.order(a, "ws2") // t0+5s, never consumed
	releaseA.Fire()
	if err := a.Wait(); err != nil {
		t.Fatal(err)
	}
	r.clock.Sleep(3 * time.Second)
	releaseB.Fire() // b polls at t0+8s
	if err := b.Wait(); err != nil {
		t.Fatal(err)
	}
	if pw := r.span(hpcm.SpanPollWait); pw.Count != 1 || pw.Sum != 8 {
		t.Fatalf("poll_wait: %d samples summing %vs, want 1 of 8s", pw.Count, pw.Sum)
	}
	rec := b.Process().Records()[0]
	if tot := r.span(hpcm.SpanTotal); tot.Count != 1 || tot.Sum != rec.MigrationTime().Seconds() {
		t.Fatalf("total: %d samples summing %vs, want 1 of %v", tot.Count, tot.Sum, rec.MigrationTime())
	}
}

// TestFallbackTotalIsTheMigrationTime: a precopy that cannot converge
// falls back to stop-and-copy, a second attempt on the same command. The
// command was consumed once, so there is one poll wait, and total runs
// from the command like the Record's MigrationTime.
func TestFallbackTotalIsTheMigrationTime(t *testing.T) {
	const stages, pageBytes = 40, 4096
	var fellBack bool
	r := newSpanRig(t, metrics.On(func(ev hpcm.MigrationEvent) {
		if ev.Phase == hpcm.PhaseAborted && strings.Contains(ev.Err.Error(), "did not converge") {
			fellBack = true
		}
	}))
	// Every stage rewrites every page of a 1 MiB region, far faster than a
	// round ships it: the dirty set never shrinks.
	app, release := r.launch("app", func(ctx *hpcm.Context) error {
		var next int
		if err := ctx.Register("next", &next); err != nil {
			return err
		}
		pages, err := ctx.RegisterPages("grid", 256*pageBytes, pageBytes)
		if err != nil {
			return err
		}
		if ctx.Resumed() {
			return ctx.Await("grid")
		}
		for ; next < stages; next++ {
			for w := 0; w < pages.Len()/8; w += pageBytes / 8 {
				pages.SetFloat64(w, float64(next+1))
			}
			if err := ctx.Compute(1e4); err != nil { // 10 ms
				return err
			}
			if err := ctx.PollPoint("s"); err != nil {
				return err
			}
		}
		return nil
	})
	r.order(app, "ws2")
	r.clock.Sleep(time.Second)
	release.Fire()
	if err := app.Wait(); err != nil {
		t.Fatal(err)
	}
	recs := app.Process().Records()
	if !fellBack || len(recs) != 1 || recs[0].To != "ws2" || !recs[0].FreezeAt.IsZero() {
		t.Fatalf("fell back %v, records %+v: want one stop-and-copy after a fallback", fellBack, recs)
	}
	if pw := r.span(hpcm.SpanPollWait); pw.Count != 1 {
		t.Fatalf("poll_wait has %d samples, want 1", pw.Count)
	}
	if init := r.span(hpcm.SpanInit); init.Count != 2 {
		t.Fatalf("init has %d samples, want one per attempt", init.Count)
	}
	if tot := r.span(hpcm.SpanTotal); tot.Count != 1 || tot.Sum != recs[0].MigrationTime().Seconds() {
		t.Fatalf("total: %d samples summing %vs, want 1 of %v", tot.Count, tot.Sum, recs[0].MigrationTime())
	}
}
