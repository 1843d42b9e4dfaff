package vclock

import (
	"testing"
	"time"
)

func TestManualNowIsFrozen(t *testing.T) {
	m := NewManual(Epoch)
	if got := m.Now(); !got.Equal(Epoch) {
		t.Fatalf("Now() = %v, want %v", got, Epoch)
	}
	if got := m.Since(Epoch.Add(-42 * time.Second)); got != 42*time.Second {
		t.Fatalf("Since(Epoch-42s) = %v, want 42s", got)
	}
}

func TestManualSleepZeroReturnsImmediately(t *testing.T) {
	m := NewManual(Epoch)
	m.Sleep(0)
	m.Sleep(-time.Second)
	if got := m.Since(Epoch); got != 0 {
		t.Fatalf("Since(Epoch) = %v after non-positive sleeps, want 0", got)
	}
}

// A frozen clock's timer never fires, and Stop cancels it once.
func TestManualTimerFireAndStop(t *testing.T) {
	m := NewManual(Epoch)
	tm := m.NewTimer(time.Nanosecond)
	select {
	case <-tm.C:
		t.Fatal("a frozen clock's timer fired")
	default:
	}
	if !tm.Stop() {
		t.Fatal("Stop() of pending timer = false, want true")
	}
	if tm.Stop() {
		t.Fatal("second Stop() = true, want false")
	}
}
