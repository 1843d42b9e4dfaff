package vclock

import (
	"testing"
	"time"
)

func TestScaledNowAdvancesFasterThanWall(t *testing.T) {
	c := Scaled(Epoch, 1000)
	start := c.Now()
	time.Sleep(20 * time.Millisecond)
	elapsed := c.Since(start)
	// 20ms wall at 1000x is 20 virtual seconds; allow generous jitter.
	if elapsed < 10*time.Second {
		t.Fatalf("virtual elapsed = %v, want >= 10s", elapsed)
	}
}

func TestScaledSleepCompressesWallTime(t *testing.T) {
	c := Scaled(Epoch, 1000)
	wallStart := time.Now()
	c.Sleep(10 * time.Second) // should take ~10ms wall
	if wall := time.Since(wallStart); wall > 2*time.Second {
		t.Fatalf("Sleep(10s virtual) took %v wall, want ~10ms", wall)
	}
}

func TestScaledTimerFires(t *testing.T) {
	c := Scaled(Epoch, 1000)
	tm := c.NewTimer(5 * time.Second)
	select {
	case at := <-tm.C:
		if at.Before(Epoch.Add(time.Second)) {
			t.Fatalf("timer fired too early: %v", at)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timer did not fire within wall budget")
	}
}

func TestScaledTimerStop(t *testing.T) {
	c := Scaled(Epoch, 10)
	tm := c.NewTimer(time.Hour)
	if !tm.Stop() {
		t.Fatal("Stop() = false for pending timer")
	}
	select {
	case <-tm.C:
		t.Fatal("stopped timer fired")
	case <-time.After(20 * time.Millisecond):
	}
}

func TestScaledAfter(t *testing.T) {
	c := Scaled(Epoch, 1000)
	select {
	case <-c.After(time.Second):
	case <-time.After(2 * time.Second):
		t.Fatal("After(1s virtual) did not fire")
	}
}

func TestScaledPanicsOnBadScale(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Scaled(0) did not panic")
		}
	}()
	Scaled(Epoch, 0)
}

func TestRealClockBasics(t *testing.T) {
	c := Real()
	t0 := c.Now()
	c.Sleep(time.Millisecond)
	if c.Since(t0) <= 0 {
		t.Fatal("real clock did not advance")
	}
	select {
	case <-c.After(time.Millisecond):
	case <-time.After(time.Second):
		t.Fatal("real After did not fire")
	}
	tm := c.NewTimer(time.Hour)
	if !tm.Stop() {
		t.Fatal("real timer Stop = false")
	}
}
