package hpcm

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"autoresched/internal/mpi"
	"autoresched/internal/vclock"
)

// TestPingPongAcrossMigration: two processes converse; one migrates in the
// middle of the conversation; no message is lost, order is preserved, and
// the conversation completes — the communication-state-transfer property.
func TestPingPongAcrossMigration(t *testing.T) {
	const rounds = 30
	mw, _ := newMW(t, nil, 0)

	// Both mains follow the HPCM discipline: the round counter is
	// registered state advanced BEFORE the poll-point, so a resumed
	// incarnation continues the conversation instead of restarting it.
	pong, err := mw.Start("pong", "ws3", func(ctx *Context) error {
		var next int
		if err := ctx.Register("next", &next); err != nil {
			return err
		}
		for next < rounds {
			var v int
			from, err := ctx.ReceiveFrom("ping", 1, &v)
			if err != nil {
				return err
			}
			if from != "ping" || v != next {
				return fmt.Errorf("pong got %d from %s, want %d from ping", v, from, next)
			}
			if err := ctx.SendTo("ping", 2, v*10); err != nil {
				return err
			}
			next++
			if err := ctx.PollPoint(fmt.Sprintf("pong-%d", next)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	ping, err := mw.Start("ping", "ws1", func(ctx *Context) error {
		var next int
		if err := ctx.Register("next", &next); err != nil {
			return err
		}
		for next < rounds {
			if err := ctx.SendTo("pong", 1, next); err != nil {
				return err
			}
			var reply int
			if _, err := ctx.ReceiveFrom("pong", 2, &reply); err != nil {
				return err
			}
			if reply != next*10 {
				return fmt.Errorf("ping got %d, want %d", reply, next*10)
			}
			next++
			if err := ctx.PollPoint(fmt.Sprintf("ping-%d", next)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Migrate BOTH processes mid-conversation: the signals are pending
	// before the first poll-points, so each side moves after its first
	// round and the remaining rounds cross the new placement.
	ping.Signal(Command{DestHost: "ws2"})
	pong.Signal(Command{DestHost: "ws4"})

	if err := ping.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := pong.Wait(); err != nil {
		t.Fatal(err)
	}
	if ping.Migrations() != 1 || pong.Migrations() != 1 {
		t.Fatalf("migrations: ping=%d pong=%d", ping.Migrations(), pong.Migrations())
	}
	if ping.Host() != "ws2" || pong.Host() != "ws4" {
		t.Fatalf("hosts: ping=%s pong=%s", ping.Host(), pong.Host())
	}
}

// sendLog records every cross-host send it passes on to inner.
type sendLog struct {
	inner mpi.Transport

	mu    sync.Mutex
	sends []string // "from->to bytes"
}

func (l *sendLog) Send(from, to string, bytes int64) error {
	l.mu.Lock()
	l.sends = append(l.sends, fmt.Sprintf("%s->%s %d", from, to, bytes))
	l.mu.Unlock()
	return l.inner.Send(from, to, bytes)
}

// TestMessagesQueuedDuringMigrationSurvive: messages sent while the
// receiver is between incarnations are delivered afterwards, and their
// bytes are charged on the wire from the old host to the new one.
func TestMessagesQueuedDuringMigrationSurvive(t *testing.T) {
	clock := vclock.NewAuto(vclock.Epoch)
	wire := &sendLog{inner: modelTransport{clock, time.Millisecond, 100e6}}
	mw, err := New(Options{Universe: mpi.NewUniverse(mpi.Options{Clock: clock, Transport: wire})})
	if err != nil {
		t.Fatal(err)
	}
	gate := newTurnstile(mw.clock)

	recvd := make(chan []int, 1)
	receiver, err := mw.Start("rx", "ws1", func(ctx *Context) error {
		gate.pass() // block before the poll so messages pile up pre-migration
		if err := ctx.PollPoint("mid"); err != nil {
			return err
		}
		var got []int
		for i := 0; i < 5; i++ {
			var v int
			if _, err := ctx.ReceiveFrom(AnyPeer, AnyTag, &v); err != nil {
				return err
			}
			got = append(got, v)
		}
		recvd <- got
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sender, err := mw.Start("tx", "ws2", func(ctx *Context) error {
		for i := 0; i < 5; i++ {
			if err := ctx.SendTo("rx", 7, i); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sender.Wait(); err != nil {
		t.Fatal(err)
	}
	if receiver.Pending() != 5 {
		t.Fatalf("pending = %d, want 5 queued before migration", receiver.Pending())
	}
	commState := receiver.pendingBytes()
	if commState <= 0 {
		t.Fatalf("pendingBytes = %d for 5 queued messages", commState)
	}
	// Now migrate the receiver with the messages still queued.
	receiver.Signal(Command{DestHost: "ws3"})
	gate.close()
	if err := receiver.Wait(); err != nil {
		t.Fatal(err)
	}
	if receiver.Host() != "ws3" {
		t.Fatalf("host = %s", receiver.Host())
	}
	got := <-recvd
	for i, v := range got {
		if v != i {
			t.Fatalf("messages reordered or lost: %v", got)
		}
	}
	wire.mu.Lock()
	defer wire.mu.Unlock()
	if !slices.Contains(wire.sends, fmt.Sprintf("ws1->ws3 %d", commState)) {
		t.Fatalf("no %d-byte send from ws1 to ws3 for the queued messages; sends: %v", commState, wire.sends)
	}
}

func TestSendToUnknownAndFinished(t *testing.T) {
	mw, _ := newMW(t, nil, 0)
	done := new(vclock.Event)
	p, err := mw.Start("a", "ws1", func(ctx *Context) error {
		if err := ctx.SendTo("ghost", 1, 1); err == nil {
			return errors.New("send to unknown process succeeded")
		}
		if err := ctx.SendTo("a", -1, 1); err == nil {
			return errors.New("negative tag accepted")
		}
		vclock.Await(ctx.Clock(), done)
		// "b" has finished by now; its mailbox is closed.
		if err := ctx.SendTo("b", 1, 1); err == nil {
			return errors.New("send to finished process succeeded")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := mw.Start("b", "ws2", func(ctx *Context) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Wait(); err != nil {
		t.Fatal(err)
	}
	done.Fire()
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicateProcessNameRejected(t *testing.T) {
	mw, _ := newMW(t, nil, 0)
	gate := newTurnstile(mw.clock)
	p, err := mw.Start("dup", "ws1", func(ctx *Context) error { gate.pass(); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mw.Start("dup", "ws2", func(ctx *Context) error { return nil }); err == nil {
		t.Fatal("duplicate name accepted")
	}
	gate.close()
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	// After completion the name is free again.
	p2, err := mw.Start("dup", "ws2", func(ctx *Context) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := p2.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestReceiveUnblocksOnFinish(t *testing.T) {
	mw, _ := newMW(t, nil, 0)
	p, err := mw.Start("waiter", "ws1", func(ctx *Context) error {
		vclock.Go(ctx.Clock(), func() {
			// Finish the process out from under the blocked receive.
			ctx.Clock().Sleep(10 * time.Millisecond)
			ctx.proc.finish(nil)
		})
		var v int
		_, err := ctx.ReceiveFrom(AnyPeer, AnyTag, &v)
		if err == nil {
			return errors.New("receive returned without a message")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	vclock.Await(mw.clock, &p.done)
}
