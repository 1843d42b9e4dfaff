package sim

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"autoresched/internal/vclock"
)

const speed = 1000.0 // work units per second in these tests

func newHost(cfg Config) (*Host, vclock.Clock) {
	clock := vclock.NewAuto(vclock.Epoch)
	if cfg.Speed == 0 {
		cfg.Speed = speed
	}
	return NewHost(clock, "ws1", cfg), clock
}

func TestComputeTakesWorkOverSpeed(t *testing.T) {
	h, clock := newHost(Config{})
	p := h.Spawn("app", 1<<20)
	start := clock.Now()
	if err := p.Compute(10 * speed); err != nil { // 10 virtual seconds
		t.Fatal(err)
	}
	got := clock.Since(start)
	if got < 9*time.Second || got > 14*time.Second {
		t.Fatalf("Compute took %v, want ~10s", got)
	}
}

func TestTwoProcessesShareCPU(t *testing.T) {
	h, clock := newHost(Config{})
	a := h.Spawn("a", 0)
	b := h.Spawn("b", 0)
	start := clock.Now()
	var wg vclock.WaitGroup
	for _, p := range []*Proc{a, b} {
		wg.Add(1)
		vclock.Go(clock, func() {
			defer wg.Done()
			if err := p.Compute(5 * speed); err != nil {
				t.Error(err)
			}
		})
	}
	wg.Wait(clock)
	got := clock.Since(start)
	// Each needs 5s alone; sharing the CPU both finish at ~10s.
	if got < 9*time.Second || got > 14*time.Second {
		t.Fatalf("shared compute took %v, want ~10s", got)
	}
}

func TestShortJobDepartsAndLongJobSpeedsUp(t *testing.T) {
	h, clock := newHost(Config{})
	long := h.Spawn("long", 0)
	short := h.Spawn("short", 0)
	start := clock.Now()
	var wg vclock.WaitGroup
	wg.Add(2)
	vclock.Go(clock, func() { defer wg.Done(); _ = long.Compute(9 * speed) })
	vclock.Go(clock, func() { defer wg.Done(); _ = short.Compute(1 * speed) })
	wg.Wait(clock)
	got := clock.Since(start)
	// Shared until short's 1s of work is done (at t=2s), then long runs
	// alone: 2 + 8 = 10s total.
	if got < 9*time.Second || got > 14*time.Second {
		t.Fatalf("took %v, want ~10s", got)
	}
}

func TestLoadAverageRisesWithRunQueue(t *testing.T) {
	clock := vclock.NewAuto(vclock.Epoch)
	defer clock.Close()
	h := NewHost(clock, "ws1", Config{Speed: speed})
	p := h.Spawn("app", 0)
	vclock.Go(clock, func() { _ = p.Compute(1000 * speed) }) // effectively forever

	clock.Sleep(60 * time.Second)
	l1, l5, _ := h.LoadAvg()
	want1 := 1 - math.Exp(-1) // one runnable proc for one time constant
	if math.Abs(l1-want1) > 1e-6 {
		t.Fatalf("load1 after 60s = %v, want %v", l1, want1)
	}
	want5 := 1 - math.Exp(-60.0/300)
	if math.Abs(l5-want5) > 1e-6 {
		t.Fatalf("load5 after 60s = %v, want %v", l5, want5)
	}

	// After many time constants the 1-minute load converges to 1.
	clock.Sleep(10 * time.Minute)
	l1, _, _ = h.LoadAvg()
	if math.Abs(l1-1) > 1e-3 {
		t.Fatalf("load1 after 11m = %v, want ~1", l1)
	}
	p.Exit()
	clock.Sleep(60 * time.Second)
	l1, _, _ = h.LoadAvg()
	if want := math.Exp(-1); math.Abs(l1-want) > 1e-3 {
		t.Fatalf("load1 1m after exit = %v, want %v", l1, want)
	}
}

func TestCPUTimesAccountBusyAndIdle(t *testing.T) {
	clock := vclock.NewAuto(vclock.Epoch)
	h := NewHost(clock, "ws1", Config{Speed: speed})
	p := h.Spawn("app", 0)
	done := new(vclock.Event)
	vclock.Go(clock, func() { _ = p.Compute(100 * speed); done.Fire() }) // 100s of work
	vclock.Await(clock, done)
	clock.Sleep(50 * time.Second)
	busy, idle := h.CPUTimes()
	if d := busy - 100*time.Second; d < -time.Second || d > time.Second {
		t.Fatalf("busy = %v, want ~100s", busy)
	}
	if d := idle - 50*time.Second; d < -time.Second || d > time.Second {
		t.Fatalf("idle = %v, want ~50s", idle)
	}
}

func TestPerProcessCPUTimeSplitsEvenly(t *testing.T) {
	clock := vclock.NewAuto(vclock.Epoch)
	defer clock.Close()
	h := NewHost(clock, "ws1", Config{Speed: speed})
	a := h.Spawn("a", 0)
	b := h.Spawn("b", 0)
	vclock.Go(clock, func() { _ = a.Compute(1000 * speed) })
	vclock.Go(clock, func() { _ = b.Compute(1000 * speed) })
	clock.Sleep(100 * time.Second)
	ta, tb := a.CPUTime(), b.CPUTime()
	if d := ta - 50*time.Second; d < -time.Second || d > time.Second {
		t.Fatalf("a CPU time = %v, want ~50s", ta)
	}
	if d := ta - tb; d < -time.Second || d > time.Second {
		t.Fatalf("CPU times diverge: a=%v b=%v", ta, tb)
	}
}

func TestExitCancelsOutstandingCompute(t *testing.T) {
	clock := vclock.NewAuto(vclock.Epoch)
	h := NewHost(clock, "ws1", Config{Speed: speed})
	p := h.Spawn("app", 0)
	done := new(vclock.Event)
	vclock.Go(clock, func() { _ = p.Compute(1e9); done.Fire() })
	clock.Sleep(time.Second)
	p.Exit()
	vclock.Await(clock, done)
	if got := clock.Since(vclock.Epoch); got != time.Second {
		t.Fatalf("Compute returned at %v, want at the 1s Exit", got)
	}
	if err := p.Compute(1); err != ErrProcessExited {
		t.Fatalf("Compute after exit: err = %v, want ErrProcessExited", err)
	}
	if h.NumProcs() != 0 {
		t.Fatalf("NumProcs = %d, want 0", h.NumProcs())
	}
}

func TestDoubleComputeRejected(t *testing.T) {
	clock := vclock.NewAuto(vclock.Epoch)
	defer clock.Close()
	h := NewHost(clock, "ws1", Config{Speed: speed})
	p := h.Spawn("app", 0)
	vclock.Go(clock, func() { _ = p.Compute(1e9) })
	clock.Sleep(time.Second)
	if err := p.Compute(1); err == nil {
		t.Fatal("second concurrent Compute accepted")
	}
	p.Exit()
}

func TestComputeZeroReturnsImmediately(t *testing.T) {
	h, _ := newHost(Config{})
	p := h.Spawn("app", 0)
	if err := p.Compute(0); err != nil {
		t.Fatal(err)
	}
	if err := p.Compute(-5); err != nil {
		t.Fatal(err)
	}
}

func TestMemoryAccounting(t *testing.T) {
	h, _ := newHost(Config{MemTotal: 128 << 20, MemBase: 16 << 20})
	total, used := h.Memory()
	if total != 128<<20 || used != 16<<20 {
		t.Fatalf("base memory = %d/%d", used, total)
	}
	p := h.Spawn("app", 32<<20)
	_, used = h.Memory()
	if used != 48<<20 {
		t.Fatalf("used = %d, want 48MB", used)
	}
	p.SetMemory(64 << 20)
	_, used = h.Memory()
	if used != 80<<20 {
		t.Fatalf("used after SetMemory = %d, want 80MB", used)
	}
	p.Exit()
	_, used = h.Memory()
	if used != 16<<20 {
		t.Fatalf("used after exit = %d, want 16MB", used)
	}
}

func TestSwapSpillover(t *testing.T) {
	h, _ := newHost(Config{MemTotal: 100})
	h.Spawn("big", 150)
	_, memUsed := h.Memory()
	if memUsed != 100 {
		t.Fatalf("mem used = %d, want clamped 100", memUsed)
	}
	swapTotal, swapUsed := h.Swap()
	if swapTotal != 200 || swapUsed != 50 {
		t.Fatalf("swap = %d/%d, want 50/200", swapUsed, swapTotal)
	}
}

func TestProcsSnapshot(t *testing.T) {
	h, _ := newHost(Config{})
	a := h.Spawn("alpha", 10)
	b := h.Spawn("beta", 20)
	infos := h.Procs(nil)
	if len(infos) != 2 {
		t.Fatalf("len(Procs) = %d, want 2", len(infos))
	}
	if infos[0].PID != a.PID() || infos[1].PID != b.PID() {
		t.Fatalf("procs not sorted by pid: %+v", infos)
	}
	if infos[0].Name != "alpha" || infos[1].Memory != 20 {
		t.Fatalf("snapshot fields wrong: %+v", infos)
	}
}

func TestDefaultsApplied(t *testing.T) {
	clock := vclock.NewAuto(vclock.Epoch)
	h := NewHost(clock, "x", Config{})
	if h.Speed() != 1e6 {
		t.Fatalf("default speed = %v", h.Speed())
	}
	total, _ := h.Memory()
	if total != 128<<20 {
		t.Fatalf("default mem = %d", total)
	}
	st, _ := h.Swap()
	if st != 256<<20 {
		t.Fatalf("default swap = %d", st)
	}
	if h.Name() != "x" || h.Clock() != vclock.Clock(clock) {
		t.Fatal("accessors wrong")
	}
}

// Property: CPU time is conserved — the total CPU time delivered to
// processes equals the host's busy time, for arbitrary workloads.
func TestCPUTimeConservationProperty(t *testing.T) {
	f := func(works []uint16) bool {
		if len(works) == 0 {
			return true
		}
		if len(works) > 6 {
			works = works[:6]
		}
		clock := vclock.NewAuto(vclock.Epoch)
		defer clock.Close()
		h := NewHost(clock, "ws", Config{Speed: 1000})
		var procs []*Proc
		var wg vclock.WaitGroup
		for _, w := range works {
			p := h.Spawn("w", 0)
			procs = append(procs, p)
			wg.Add(1)
			vclock.Go(clock, func() {
				defer wg.Done()
				_ = p.Compute(float64(w) + 1)
			})
		}
		wg.Wait(clock)
		var total time.Duration
		for _, p := range procs {
			total += p.CPUTime()
		}
		busy, _ := h.CPUTimes()
		diff := total - busy
		if diff < 0 {
			diff = -diff
		}
		return diff < 10*time.Millisecond
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: load averages always lie within [0, max run-queue length seen].
func TestLoadAverageBoundedProperty(t *testing.T) {
	f := func(burst []uint8) bool {
		if len(burst) > 6 {
			burst = burst[:6]
		}
		clock := vclock.NewAuto(vclock.Epoch)
		defer clock.Close()
		h := NewHost(clock, "ws", Config{Speed: 1000})
		maxQ := 0.0
		for _, b := range burst {
			n := int(b%4) + 1
			if float64(n) > maxQ {
				maxQ = float64(n)
			}
			var wg vclock.WaitGroup
			for i := 0; i < n; i++ {
				wg.Add(1)
				vclock.Go(clock, func() {
					defer wg.Done()
					p := h.Spawn("w", 0)
					defer p.Exit()
					_ = p.Compute(float64(b%100+1) * 10)
				})
			}
			wg.Wait(clock)
			l1, l5, l15 := h.LoadAvg()
			for _, l := range []float64{l1, l5, l15} {
				if l < -1e-9 || l > maxQ+1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
