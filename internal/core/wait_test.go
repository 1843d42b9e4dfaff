package core

import (
	"errors"
	"testing"
	"time"

	"autoresched/internal/hpcm"
	"autoresched/internal/vclock"
	"autoresched/internal/workload"
)

// TestAppSettledExactlyOnce: Settled closes exactly once, after the
// runtime's completion bookkeeping, and every concurrent Wait observes the
// same terminal error.
func TestAppSettledExactlyOnce(t *testing.T) {
	s, _ := newSystem(t, 1000, 1, Options{})
	boom := errors.New("boom")
	app, err := s.Launch("failing", "ws1", nil, func(ctx *hpcm.Context) error {
		ctx.PollPoint("only")
		return boom
	})
	if err != nil {
		t.Fatal(err)
	}
	const waiters = 8
	errs := make([]error, waiters)
	var wg vclock.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		vclock.Go(s.Clock(), func() {
			defer wg.Done()
			errs[i] = app.Wait()
		})
	}
	wg.Wait(s.Clock())
	for i, got := range errs {
		if !errors.Is(got, boom) {
			t.Fatalf("waiter %d: Wait = %v, want boom", i, got)
		}
	}
	if !app.Settled().Fired() {
		t.Fatal("Settled not fired after Wait returned")
	}
	// Settled completion bookkeeping includes deregistration.
	if got := len(s.Registry().Processes("ws1")); got != 0 {
		t.Fatalf("processes still registered after settle: %d", got)
	}
}

// TestAppWaitErrorAfterExhaustedRetries: when every failover retry is spent
// the recoverable error propagates out of Wait, and Retries reports the
// consumed budget.
func TestAppWaitErrorAfterExhaustedRetries(t *testing.T) {
	store := hpcm.NewMemStore()
	s, _ := newSystem(t, 1000, 3, Options{
		Checkpoints:     store,
		CheckpointEvery: 20 * time.Second,
		FailoverRetries: 1,
	})
	cfg := workload.JacobiConfig{N: 8, Iters: 5000, PollEvery: 1, WorkPerCell: 500}
	app, err := s.Launch("doomed", "ws1", nil, workload.Jacobi(cfg))
	if err != nil {
		t.Fatal(err)
	}
	// First crash: consumed by the failover budget; the app restarts on a
	// fresh host.
	if err := s.CrashHost("ws1"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(20 * time.Second)
	for app.Retries() < 1 || app.Host() == "ws1" {
		if time.Now().After(deadline) {
			t.Fatalf("failover never happened: retries=%d host=%s", app.Retries(), app.Host())
		}
		s.Clock().Sleep(time.Second)
	}
	// Second crash: the budget is spent, so the error is terminal.
	if err := s.CrashHost(app.Host()); err != nil {
		t.Fatal(err)
	}
	if err := app.Wait(); !errors.Is(err, hpcm.ErrKilled) {
		t.Fatalf("Wait = %v, want ErrKilled after exhausted retries", err)
	}
	if got := app.Retries(); got != 1 {
		t.Fatalf("retries = %d, want 1", got)
	}
}

// TestAppWaitAfterSettleIsImmediate: Wait on an already-settled app returns
// without blocking, repeatedly.
func TestAppWaitAfterSettleIsImmediate(t *testing.T) {
	s, _ := newSystem(t, 1000, 1, Options{})
	app, err := s.Launch("quick", "ws1", nil, func(ctx *hpcm.Context) error {
		ctx.PollPoint("only")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := app.Wait(); err != nil {
			t.Fatalf("Wait %d = %v", i, err)
		}
	}
}
