package hpcm

import (
	"errors"
	"testing"
	"time"

	"autoresched/internal/vclock"
)

// preinitMain: one poll-point a second in, lazy payload, completes after
// migration. The second is the test's to pre-initialize and signal.
func preinitMain(payload int) Main {
	return func(ctx *Context) error {
		bulk := make([]byte, payload)
		if err := ctx.RegisterLazy("bulk", &bulk); err != nil {
			return err
		}
		if !ctx.Resumed() {
			ctx.Sleep(time.Second)
			if err := ctx.PollPoint("go"); err != nil {
				return err
			}
			return errors.New("expected migration at first poll point")
		}
		return ctx.Await("bulk")
	}
}

func TestPreInitSkipsSpawnLatency(t *testing.T) {
	// A deliberately huge spawn latency: if migration pays it, InitDone
	// lags PollPointAt by >= 2s; with pre-initialization it must not.
	binder := &testBinder{}
	mw, _ := newMW(t, binder, 2*time.Second)

	p, err := mw.Start("app", "ws1", preinitMain(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.PreInit("ws2"); err != nil {
		t.Fatal(err)
	}
	if err := p.PreInit("ws2"); err != nil { // idempotent
		t.Fatal(err)
	}
	if got := p.PreInited(); len(got) != 1 || got[0] != "ws2" {
		t.Fatalf("PreInited = %v", got)
	}
	p.Signal(Command{DestHost: "ws2"})
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	rec := p.Records()[0]
	if init := rec.InitDone.Sub(rec.PollPointAt); init >= 1500*time.Millisecond {
		t.Fatalf("init took %v despite pre-initialization (spawn latency paid)", init)
	}
	if p.Host() != "ws2" {
		t.Fatalf("host = %s", p.Host())
	}
	if len(p.PreInited()) != 0 {
		t.Fatal("pre-initialized process not consumed")
	}
}

func TestWithoutPreInitPaysSpawnLatency(t *testing.T) {
	mw, _ := newMW(t, nil, 2*time.Second)
	p, err := mw.Start("app", "ws1", preinitMain(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	p.Signal(Command{DestHost: "ws2"})
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	rec := p.Records()[0]
	if init := rec.InitDone.Sub(rec.PollPointAt); init < 1500*time.Millisecond {
		t.Fatalf("init took only %v without pre-initialization", init)
	}
}

func TestPreInitUnusedReleasedOnCompletion(t *testing.T) {
	mw, _ := newMW(t, nil, 0)
	gate := new(vclock.Event)
	p, err := mw.Start("app", "ws1", func(ctx *Context) error {
		vclock.Await(ctx.Clock(), gate) // hold the process open until the preinits exist
		return ctx.PollPoint("only")
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.PreInit("ws2"); err != nil {
		t.Fatal(err)
	}
	if err := p.PreInit("ws3"); err != nil {
		t.Fatal(err)
	}
	gate.Fire()
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	if len(p.PreInited()) != 0 {
		t.Fatalf("preinits after completion: %v", p.PreInited())
	}
	// The waiting children's Accept calls must be released; the universe
	// drains (no goroutine stays blocked on a port forever).
	mw.universe.Wait()
	if err := p.PreInit("ws4"); err == nil {
		t.Fatal("PreInit after completion accepted")
	}
}

func TestPreInitDeadFallsBackToSpawn(t *testing.T) {
	mw, _ := newMW(t, nil, 0)
	p, err := mw.Start("app", "ws1", preinitMain(1<<16))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.PreInit("ws2"); err != nil {
		t.Fatal(err)
	}
	// Kill the waiting child by closing its port behind the scenes.
	p.mu.Lock()
	port := p.preinit["ws2"]
	p.mu.Unlock()
	mw.universe.ClosePort(port)

	p.Signal(Command{DestHost: "ws2"})
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	if p.Host() != "ws2" || p.Migrations() != 1 {
		t.Fatalf("fallback failed: host=%s migrations=%d", p.Host(), p.Migrations())
	}
}
