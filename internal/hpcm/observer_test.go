package hpcm

import (
	"errors"
	"sync"
	"testing"
	"time"

	"autoresched/internal/metrics"
)

func TestObserverSeesPhaseSequence(t *testing.T) {
	binder := &testBinder{}
	mw, _ := newMW(t, binder, 10*time.Millisecond)
	var mu sync.Mutex
	var phases []string
	mw.events = metrics.On(func(ev MigrationEvent) {
		mu.Lock()
		phases = append(phases, ev.Phase)
		mu.Unlock()
	})
	gate := newTurnstile(mw.clock)
	var got []int
	var sinkMu sync.Mutex
	p, err := mw.Start("app", "ws1", stagedMain(3, gate, &got, &sinkMu))
	if err != nil {
		t.Fatal(err)
	}
	p.Signal(Command{DestHost: "ws2"})
	for i := 0; i < 3; i++ {
		gate.open()
	}
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	want := []string{PhaseStart, PhaseInit, PhaseResume, PhaseRestore}
	if len(phases) != len(want) {
		t.Fatalf("phases = %v, want %v", phases, want)
	}
	for i, ph := range want {
		if phases[i] != ph {
			t.Fatalf("phases = %v, want %v", phases, want)
		}
	}
}

func TestAbortedMigrationReturnsRecoverableFailure(t *testing.T) {
	binder := &testBinder{}
	mw, _ := newMW(t, binder, 10*time.Millisecond)
	var mu sync.Mutex
	var aborted []MigrationEvent
	mw.events = metrics.On(func(ev MigrationEvent) {
		if ev.Phase == PhaseAborted {
			mu.Lock()
			aborted = append(aborted, ev)
			mu.Unlock()
		}
	})
	gate := newTurnstile(mw.clock)
	var got []int
	var sinkMu sync.Mutex
	p, err := mw.Start("app", "ws1", stagedMain(3, gate, &got, &sinkMu))
	if err != nil {
		t.Fatal(err)
	}
	// "bad*" hosts fail Attach on the destination, so the initialized
	// process reports failure before the commit point.
	p.Signal(Command{DestHost: "badhost"})
	gate.open()
	err = p.Wait()
	var mf *MigrationFailure
	if !errors.As(err, &mf) {
		t.Fatalf("Wait = %v, want *MigrationFailure", err)
	}
	if mf.Committed {
		t.Fatalf("failure marked committed: %+v", mf)
	}
	if mf.From != "ws1" || mf.To != "badhost" || mf.Phase != PhaseInit {
		t.Fatalf("failure = %+v", mf)
	}
	if !Recoverable(err) {
		t.Fatal("aborted migration not Recoverable")
	}
	if !Recoverable(ErrKilled) {
		t.Fatal("ErrKilled not Recoverable")
	}
	if Recoverable(errors.New("app bug")) {
		t.Fatal("ordinary error reported Recoverable")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(aborted) != 1 || aborted[0].Err == nil {
		t.Fatalf("aborted events = %+v", aborted)
	}
}

func TestSavedStateFailUnblocksAwaiters(t *testing.T) {
	s := newSavedState(nil, image{Segments: []segment{{Name: "never"}}}) // declared, never delivered
	errc := make(chan error, 1)
	go func() {
		_, err := s.awaitLazy("never")
		errc <- err
	}()
	cause := errors.New("stream died")
	s.fail(cause)
	select {
	case err := <-errc:
		if !errors.Is(err, cause) {
			t.Fatalf("awaitLazy = %v, want %v", err, cause)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("awaitLazy still blocked after fail")
	}
	// Blobs completed before the failure stay readable.
	s2 := newSavedState(nil, image{})
	s2.completeLazy("ok", []byte("x"))
	s2.fail(cause)
	sl, err := s2.awaitLazy("ok")
	if err != nil || string(sl.data) != "x" {
		t.Fatalf("awaitLazy(ok) = %q, %v", sl.data, err)
	}
}
