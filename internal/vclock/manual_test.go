package vclock

import (
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestManualNowAdvance(t *testing.T) {
	m := NewManual(Epoch)
	if got := m.Now(); !got.Equal(Epoch) {
		t.Fatalf("Now() = %v, want %v", got, Epoch)
	}
	m.Advance(42 * time.Second)
	if got := m.Since(Epoch); got != 42*time.Second {
		t.Fatalf("Since(Epoch) = %v, want 42s", got)
	}
}

func TestManualSleepWakesAtDeadline(t *testing.T) {
	m := NewManual(Epoch)
	done := make(chan time.Time)
	go func() {
		m.Sleep(10 * time.Second)
		done <- m.Now()
	}()
	m.WaitUntilWaiters(1)
	m.Advance(9 * time.Second)
	select {
	case <-done:
		t.Fatal("Sleep returned before deadline")
	case <-time.After(10 * time.Millisecond):
	}
	m.Advance(time.Second)
	woke := <-done
	if want := Epoch.Add(10 * time.Second); woke.Before(want) {
		t.Fatalf("woke at %v, want >= %v", woke, want)
	}
}

func TestManualSleepZeroReturnsImmediately(t *testing.T) {
	m := NewManual(Epoch)
	m.Sleep(0)
	m.Sleep(-time.Second)
	if m.Waiters() != 0 {
		t.Fatalf("Waiters() = %d, want 0", m.Waiters())
	}
}

func TestManualTimerFireAndStop(t *testing.T) {
	m := NewManual(Epoch)
	tm := m.NewTimer(5 * time.Second)
	if !tm.Stop() {
		t.Fatal("Stop() of pending timer = false, want true")
	}
	if tm.Stop() {
		t.Fatal("second Stop() = true, want false")
	}
	m.Advance(10 * time.Second)
	select {
	case <-tm.C:
		t.Fatal("stopped timer fired")
	default:
	}
}

func TestManualAdvanceFiresInDeadlineOrder(t *testing.T) {
	m := NewManual(Epoch)
	var order []int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i, d := range []time.Duration{30 * time.Second, 10 * time.Second, 20 * time.Second} {
		wg.Add(1)
		go func(i int, d time.Duration) {
			defer wg.Done()
			m.Sleep(d)
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		}(i, d)
	}
	m.WaitUntilWaiters(3)
	// Advance step-by-step so each sleeper records in a deterministic order.
	for j := 0; j < 3; j++ {
		if _, ok := m.AdvanceToNext(); !ok {
			t.Fatalf("AdvanceToNext %d: no pending waiter", j)
		}
		deadline := time.Now().Add(time.Second)
		for {
			mu.Lock()
			n := len(order)
			mu.Unlock()
			if n > j {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("sleeper %d did not wake", j)
			}
			time.Sleep(time.Millisecond)
		}
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	want := []int{1, 2, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("wake order = %v, want %v", order, want)
		}
	}
}

func TestManualAdvanceToNextEmpty(t *testing.T) {
	m := NewManual(Epoch)
	if d, ok := m.AdvanceToNext(); ok || d != 0 {
		t.Fatalf("AdvanceToNext() = %v, %v; want 0, false", d, ok)
	}
}

func TestManualAfter(t *testing.T) {
	m := NewManual(Epoch)
	ch := m.After(time.Minute)
	m.Advance(time.Minute)
	select {
	case at := <-ch:
		if want := Epoch.Add(time.Minute); !at.Equal(want) {
			t.Fatalf("After delivered %v, want %v", at, want)
		}
	default:
		t.Fatal("After channel empty at deadline")
	}
}

// Property: advancing in any partition of a total duration fires the same
// set of timers as a single advance.
func TestManualAdvancePartitionProperty(t *testing.T) {
	f := func(steps []uint8, deadlines []uint8) bool {
		if len(steps) == 0 || len(deadlines) == 0 {
			return true
		}
		if len(steps) > 16 {
			steps = steps[:16]
		}
		if len(deadlines) > 16 {
			deadlines = deadlines[:16]
		}
		var total time.Duration
		single := NewManual(Epoch)
		multi := NewManual(Epoch)
		var chS, chM []<-chan time.Time
		for _, d := range deadlines {
			dd := time.Duration(d) * time.Second
			chS = append(chS, single.After(dd))
			chM = append(chM, multi.After(dd))
		}
		for _, s := range steps {
			step := time.Duration(s) * time.Second
			total += step
			multi.Advance(step)
		}
		single.Advance(total)
		for i := range chS {
			firedS, firedM := false, false
			select {
			case <-chS[i]:
				firedS = true
			default:
			}
			select {
			case <-chM[i]:
				firedM = true
			default:
			}
			if firedS != firedM {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
