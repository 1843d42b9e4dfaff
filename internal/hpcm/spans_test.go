package hpcm

import (
	"errors"
	"sync"
	"testing"
	"time"

	"autoresched/internal/metrics"
	"autoresched/internal/mpi"
	"autoresched/internal/vclock"
)

// spanCounts reads the sample count of every phase span.
func spanCounts(reg *metrics.Registry) map[string]uint64 {
	out := make(map[string]uint64)
	for _, name := range []string{SpanPollWait, SpanInit, SpanTransfer, SpanRestore, SpanTotal} {
		out[name] = reg.Histogram(name).Count()
	}
	return out
}

func wantSpanCounts(t *testing.T, reg *metrics.Registry, want map[string]uint64) {
	t.Helper()
	got := spanCounts(reg)
	for name, n := range got {
		if n != want[name] {
			t.Fatalf("span counts = %v, want %v", got, want)
		}
	}
}

// TestSpansAreTheRecordsPhases: each span of a committed migration is the
// difference of two of its Record's stamps, and total is MigrationTime.
func TestSpansAreTheRecordsPhases(t *testing.T) {
	mw, _ := newMW(t, &testBinder{}, 300*time.Millisecond)
	reg := metrics.NewRegistry()
	mw.metrics = reg
	gate := newTurnstile(mw.clock)
	var got []int
	var mu sync.Mutex
	p, err := mw.Start("app", "ws1", stagedMain(3, gate, &got, &mu))
	if err != nil {
		t.Fatal(err)
	}
	p.Signal(Command{DestHost: "ws2"})
	mw.clock.Sleep(2 * time.Second) // the command waits for a poll-point
	for i := 0; i < 3; i++ {
		gate.open()
	}
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	r := p.Records()[0]
	for name, want := range map[string]time.Duration{
		SpanPollWait: r.PollPointAt.Sub(r.CommandAt),
		SpanInit:     r.InitDone.Sub(r.PollPointAt),
		SpanTransfer: r.ResumeAt.Sub(r.InitDone),
		SpanRestore:  r.RestoreDone.Sub(r.ResumeAt),
		SpanTotal:    r.MigrationTime(),
	} {
		snap := reg.Histogram(name).Snapshot()
		if snap.Count != 1 || snap.Sum != want.Seconds() {
			t.Errorf("%s: %d samples summing %vs, want one of %v", name, snap.Count, snap.Sum, want)
		}
	}
	if d := r.PollPointAt.Sub(r.CommandAt); d < 2*time.Second {
		t.Fatalf("poll wait %v, want at least the 2s the command waited", d)
	}
}

// TestAbortedAttemptKeepsPollWaitAndInit: an attempt that aborts after its
// destination exists closed two spans, and keeps them; nothing past the
// commit point is observed.
func TestAbortedAttemptKeepsPollWaitAndInit(t *testing.T) {
	mw, _ := newMW(t, &testBinder{}, 10*time.Millisecond)
	reg := metrics.NewRegistry()
	mw.metrics = reg
	gate := newTurnstile(mw.clock)
	var got []int
	var mu sync.Mutex
	p, err := mw.Start("app", "ws1", stagedMain(3, gate, &got, &mu))
	if err != nil {
		t.Fatal(err)
	}
	// A "bad*" host refuses the attach after init: the resume handshake
	// fails before the commit point.
	p.Signal(Command{DestHost: "badhost"})
	gate.open()
	var mf *MigrationFailure
	if err := p.Wait(); !errors.As(err, &mf) || mf.Committed {
		t.Fatalf("Wait = %v, want a pre-commit *MigrationFailure", err)
	}
	wantSpanCounts(t, reg, map[string]uint64{SpanPollWait: 1, SpanInit: 1})
}

// TestPostCommitFailureRecordsNoRestoreOrTotal: the source loses its network
// right after the commit point. The migration closed poll_wait, init and
// transfer and never restores, so restore and total stay empty. The
// destination's lazy restore, blocked on chunks that never come, ends with
// the failed stream: the universe drains.
func TestPostCommitFailureRecordsNoRestoreOrTotal(t *testing.T) {
	clock := vclock.NewAuto(vclock.Epoch)
	cut := &cuttableTransport{inner: modelTransport{clock, time.Millisecond, 1e6}}
	u := mpi.NewUniverse(mpi.Options{Clock: clock, Transport: cut, SpawnLatency: 10 * time.Millisecond})
	reg := metrics.NewRegistry()
	mw, err := New(Options{
		Universe: u,
		Hosts:    &testBinder{},
		Metrics:  reg,
		Events: metrics.On(func(ev MigrationEvent) {
			if ev.Phase == PhaseResume {
				cut.cut.Store(true)
			}
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	main := func(ctx *Context) error {
		bulk := make([]byte, 1<<20)
		if err := ctx.RegisterLazy("bulk", &bulk); err != nil {
			return err
		}
		if !ctx.Resumed() {
			return ctx.PollPoint("go")
		}
		return ctx.Await("bulk")
	}
	p, err := mw.Start("app", "ws1", main)
	if err != nil {
		t.Fatal(err)
	}
	p.Signal(Command{DestHost: "ws2"})
	var mf *MigrationFailure
	if err := p.Wait(); !errors.As(err, &mf) || !mf.Committed {
		t.Fatalf("Wait = %v, want a post-commit *MigrationFailure", err)
	}
	wantSpanCounts(t, reg, map[string]uint64{SpanPollWait: 1, SpanInit: 1, SpanTransfer: 1})

	drained := new(vclock.Event)
	vclock.Go(clock, func() {
		u.Wait()
		drained.Fire()
	})
	if vclock.Wait(clock, time.Hour, drained) == nil {
		t.Fatal("the destination still waits for lazy state an hour after the stream failed")
	}
}
