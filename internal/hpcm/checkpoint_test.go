package hpcm

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"autoresched/internal/mpi"
	"autoresched/internal/vclock"
)

func newCkptMW(t *testing.T, store CheckpointStore, every time.Duration) *Middleware {
	t.Helper()
	clock := vclock.NewAuto(vclock.Epoch)
	u := mpi.NewUniverse(mpi.Options{Clock: clock})
	mw, err := New(Options{Universe: u, Checkpoints: store, CheckpointEvery: every})
	if err != nil {
		t.Fatal(err)
	}
	return mw
}

// ckptMain counts stages; gate controls pacing; emits each stage once.
func ckptMain(stages int, gate *turnstile, out func(int)) Main {
	return func(ctx *Context) error {
		var next int
		if err := ctx.Register("next", &next); err != nil {
			return err
		}
		for next < stages {
			if gate != nil {
				gate.pass()
			}
			out(next)
			next++
			if err := ctx.PollPoint(fmt.Sprintf("s%d", next)); err != nil {
				return err
			}
		}
		return nil
	}
}

func TestCheckpointAndRestoreResumeProgress(t *testing.T) {
	store := NewMemStore()
	mw := newCkptMW(t, store, 0)
	gate := newTurnstile(mw.clock)
	var mu sync.Mutex
	var emitted []int
	out := func(n int) { mu.Lock(); emitted = append(emitted, n); mu.Unlock() }

	p, err := mw.Start("app", "ws1", ckptMain(6, gate, out))
	if err != nil {
		t.Fatal(err)
	}
	gate.open() // stage 0
	gate.open() // stage 1
	if err := p.requestCheckpoint(); err != nil {
		t.Fatal(err)
	}
	gate.open() // stage 2; its poll-point writes the checkpoint
	for p.Checkpoints() == 0 {
		time.Sleep(time.Millisecond)
	}

	// Host crash. The main may be blocked on the gate or mid-stage, so let
	// every stage through until the kill takes effect at a poll-point.
	p.Kill()
	gate.close()
	if err := p.Wait(); !errors.Is(err, ErrKilled) {
		t.Fatalf("Wait = %v, want ErrKilled", err)
	}

	// Restore on another host: progress resumes at the checkpointed stage
	// (2 or 3 depending on which poll-point wrote it), never at zero.
	p2, err := mw.Restore(store, "app", "ws2", ckptMain(6, gate, out))
	if err != nil {
		t.Fatal(err)
	}
	if err := p2.Wait(); err != nil {
		t.Fatal(err)
	}
	if p2.Host() != "ws2" {
		t.Fatalf("restored host = %s", p2.Host())
	}
	mu.Lock()
	defer mu.Unlock()
	// Standard checkpoint semantics: work after the checkpoint is lost and
	// redone, so a stage or two may repeat, but the run must start 0,1,2,
	// end 3,4,5, and never redo more than the post-checkpoint suffix.
	if len(emitted) < 6 || len(emitted) > 8 {
		t.Fatalf("emitted = %v", emitted)
	}
	for i, v := range []int{0, 1, 2} {
		if emitted[i] != v {
			t.Fatalf("emitted = %v (pre-crash prefix wrong)", emitted)
		}
	}
	tail := emitted[len(emitted)-3:]
	for i, v := range []int{3, 4, 5} {
		if tail[i] != v {
			t.Fatalf("emitted = %v (restored run wrong)", emitted)
		}
	}
}

func TestAutoCheckpointInterval(t *testing.T) {
	store := NewMemStore()
	clock := vclock.NewAuto(vclock.Epoch)
	u := mpi.NewUniverse(mpi.Options{Clock: clock})
	mw, err := New(Options{Universe: u, Checkpoints: store, CheckpointEvery: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	main := func(ctx *Context) error {
		var step int
		if err := ctx.Register("step", &step); err != nil {
			return err
		}
		for ; step < 40; step++ {
			ctx.Sleep(time.Second)
			if err := ctx.PollPoint("tick"); err != nil {
				return err
			}
		}
		return nil
	}
	p, err := mw.Start("auto", "ws1", main)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	// 40 virtual seconds at one poll per second with a 5-second interval:
	// several checkpoints, but nowhere near one per poll.
	if n := p.Checkpoints(); n < 3 || n > 12 {
		t.Fatalf("checkpoints = %d, want ~8", n)
	}
	if _, ok, err := store.Load("auto"); err != nil || !ok {
		t.Fatalf("no stored checkpoint: %v", err)
	}
}

func TestCheckpointWithoutStore(t *testing.T) {
	mw, _ := newMW(t, nil, 0)
	p, err := mw.Start("x", "ws1", func(ctx *Context) error { return ctx.PollPoint("p") })
	if err != nil {
		t.Fatal(err)
	}
	if err := p.requestCheckpoint(); err == nil {
		t.Fatal("requestCheckpoint without store accepted")
	}
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestRestoreWithoutCheckpoint(t *testing.T) {
	store := NewMemStore()
	mw := newCkptMW(t, store, 0)
	if _, err := mw.Restore(store, "ghost", "ws1", func(*Context) error { return nil }); err == nil {
		t.Fatal("Restore without checkpoint succeeded")
	}
}

func TestFileStoreRoundTrip(t *testing.T) {
	store := FileStore{Dir: t.TempDir()}
	if _, ok, err := store.Load("app"); err != nil || ok {
		t.Fatalf("empty store: ok=%v err=%v", ok, err)
	}
	if err := store.Save("app", []byte("state-v1")); err != nil {
		t.Fatal(err)
	}
	if err := store.Save("app", []byte("state-v2")); err != nil {
		t.Fatal(err)
	}
	data, ok, err := store.Load("app")
	if err != nil || !ok || string(data) != "state-v2" {
		t.Fatalf("load = %q, %v, %v", data, ok, err)
	}
}

func TestKilledDuringCompute(t *testing.T) {
	mw, _ := newMW(t, nil, 0)
	p, err := mw.Start("x", "ws1", func(ctx *Context) error {
		// The null binder computes instantly; loop so Kill lands.
		for {
			if err := ctx.Compute(1); err != nil {
				return err
			}
			if err := ctx.PollPoint("loop"); err != nil {
				return err
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Kill()
	if err := p.Wait(); !errors.Is(err, ErrKilled) {
		t.Fatalf("Wait = %v, want ErrKilled", err)
	}
}
