package monitor

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"autoresched/internal/proto"
	"autoresched/internal/rules"
	"autoresched/internal/sim"
	"autoresched/internal/sysinfo"
	"autoresched/internal/vclock"
)

// fakeReporter records what the monitor pushes.
type fakeReporter struct {
	mu         sync.Mutex
	registered []string
	statuses   []proto.Status
	unregs     []string
	failNext   error
}

func (f *fakeReporter) RegisterHost(host string, static proto.StaticInfo) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.registered = append(f.registered, host+"@"+static.Addr)
	return nil
}

func (f *fakeReporter) ReportStatus(host string, st proto.Status) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failNext != nil {
		err := f.failNext
		f.failNext = nil
		return err
	}
	f.statuses = append(f.statuses, st)
	return nil
}

func (f *fakeReporter) UnregisterHost(host string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.unregs = append(f.unregs, host)
	return nil
}

func (f *fakeReporter) statusCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.statuses)
}

func monRig(t *testing.T) (*sim.Host, *fakeReporter, *Monitor, *vclock.Auto) {
	t.Helper()
	clock := vclock.NewAuto(vclock.Epoch)
	t.Cleanup(clock.Close)
	host := sim.NewHost(clock, "ws1", sim.Config{Speed: 1000})
	rep := &fakeReporter{}
	m, err := NewMonitor(
		"ws1",
		sysinfo.NewSimSource(host, nil),
		WithEngine(loadEngine(t)),
		WithReporter(rep),
		WithClock(clock),
		WithCommandAddr("cmd://ws1"),
	)
	if err != nil {
		t.Fatal(err)
	}
	return host, rep, m, clock
}

func loadEngine(t *testing.T) *rules.Engine {
	t.Helper()
	e := rules.NewEngine(nil)
	err := e.Add(&rules.Rule{
		Number: 1, Name: "load", Type: rules.Simple,
		Script: "loadAvg.sh", Param: "1", Operator: rules.OpGreater,
		Busy: 1, OverLd: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewValidation(t *testing.T) {
	if _, err := NewMonitor("", nil); err == nil {
		t.Fatal("monitor without host accepted")
	}
	if _, err := NewMonitor("x", nil); err == nil {
		t.Fatal("monitor without source accepted")
	}
}

func TestCycleGathersEvaluatesStores(t *testing.T) {
	_, _, m, _ := monRig(t)
	sample, err := m.Cycle()
	if err != nil {
		t.Fatal(err)
	}
	if sample.State != rules.Free {
		t.Fatalf("state = %v", sample.State)
	}
	if m.cycleCount() != 1 {
		t.Fatalf("cycles = %d", m.cycleCount())
	}
	if h := m.historyCopy(); len(h) != 1 || h[0].Snap.Host != "ws1" {
		t.Fatalf("history = %+v", h)
	}
}

func TestStateFollowsLoad(t *testing.T) {
	host, _, m, clock := monRig(t)
	// Drive load above 2 with three always-runnable procs.
	var procs []*sim.Proc
	for i := 0; i < 3; i++ {
		p := host.Spawn("burn", 0)
		procs = append(procs, p)
		vclock.Go(clock, func() { _ = p.Compute(1e12) })
	}
	defer func() {
		for _, p := range procs {
			p.Exit()
		}
	}()
	clock.Sleep(10 * time.Minute)
	if _, err := m.Cycle(); err != nil {
		t.Fatal(err)
	}
	if m.State() != rules.Overloaded {
		t.Fatalf("state = %v, want overloaded at load ~3", m.State())
	}
}

func TestStartLoopReportsPeriodically(t *testing.T) {
	_, rep, m, clock := monRig(t)
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	if err := m.Start(); err == nil {
		t.Fatal("double start accepted")
	}
	defer m.Stop()
	// First cycle runs immediately, then one every 10s.
	clock.Sleep(5 * time.Second)
	for i := 1; i <= 4; i++ {
		if got := rep.statusCount(); got != i {
			t.Fatalf("reports at %v = %d, want %d", clock.Since(vclock.Epoch), got, i)
		}
		clock.Sleep(10 * time.Second)
	}
	m.Stop()
	m.Stop() // idempotent
	rep.mu.Lock()
	defer rep.mu.Unlock()
	if len(rep.registered) != 1 || !strings.Contains(rep.registered[0], "ws1@cmd://ws1") {
		t.Fatalf("registered = %v", rep.registered)
	}
	if len(rep.unregs) != 1 || rep.unregs[0] != "ws1" {
		t.Fatalf("unregs = %v", rep.unregs)
	}
	if rep.statuses[0].State != "free" {
		t.Fatalf("status = %+v", rep.statuses[0])
	}
}

// TestCyclePeriodIsDefaultFrequency: the loop's one timer between cycles is
// the period WithDefaultFrequency sets, whatever state the host is in.
func TestCyclePeriodIsDefaultFrequency(t *testing.T) {
	clock := vclock.NewAuto(vclock.Epoch)
	defer clock.Close()
	host := sim.NewHost(clock, "ws1", sim.Config{Speed: 1000})
	rep := &fakeReporter{}
	m, err := NewMonitor("ws1", sysinfo.NewSimSource(host, nil),
		WithEngine(loadEngine(t)), WithReporter(rep), WithClock(clock),
		WithDefaultFrequency(30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	// Cycles run at 0, 30s and 60s: one nanosecond before each the count
	// is still the previous one. The loop's timer, armed first, fires
	// ahead of the test's own at the same instant.
	clock.Sleep(30*time.Second - time.Nanosecond)
	for cycle := 1; cycle <= 2; cycle++ {
		if rep.statusCount() != cycle {
			t.Fatalf("reports at %v = %d, want %d", clock.Since(vclock.Epoch), rep.statusCount(), cycle)
		}
		clock.Sleep(time.Nanosecond)
		if rep.statusCount() != cycle+1 {
			t.Fatalf("reports at %v = %d, want %d", clock.Since(vclock.Epoch), rep.statusCount(), cycle+1)
		}
		clock.Sleep(30*time.Second - time.Nanosecond)
	}
}

func TestChargerChargedPerCycle(t *testing.T) {
	clock := vclock.NewAuto(vclock.Epoch)
	defer clock.Close()
	host := sim.NewHost(clock, "ws1", sim.Config{Speed: 1000})
	charger := host.Spawn("monitor", 0)
	m, err := NewMonitor("ws1", sysinfo.NewSimSource(host, nil),
		WithClock(clock),
		WithCharger(charger, 50), // 50ms of CPU at speed 1000
	)
	if err != nil {
		t.Fatal(err)
	}
	done := new(vclock.Event)
	vclock.Go(clock, func() {
		defer done.Fire()
		_, err = m.Cycle()
	})
	// The cycle blocks on the charge until the clock has run it.
	vclock.Await(clock, done)
	if err != nil {
		t.Fatal(err)
	}
	if ct := charger.CPUTime(); ct < 40*time.Millisecond {
		t.Fatalf("charger CPU time = %v, want ~50ms", ct)
	}
}

func TestHistoryBounded(t *testing.T) {
	clock := vclock.NewAuto(vclock.Epoch)
	host := sim.NewHost(clock, "ws1", sim.Config{Speed: 1000})
	m, err := NewMonitor(
		"ws1",
		sysinfo.NewSimSource(host, nil),
		WithClock(clock),
		WithHistorySize(4),
	)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := m.Cycle(); err != nil {
			t.Fatal(err)
		}
		clock.Sleep(10 * time.Second)
	}
	if got := len(m.historyCopy()); got != 4 {
		t.Fatalf("history size = %d, want 4", got)
	}
}

func TestReporterErrorSurfaced(t *testing.T) {
	_, rep, m, _ := monRig(t)
	rep.failNext = errors.New("registry down")
	if _, err := m.Cycle(); err == nil {
		t.Fatal("reporter error swallowed")
	}
	if _, err := m.Cycle(); err != nil {
		t.Fatal(err)
	}
}

// diskSource is a simulated host with one mount, /export, whose usage the
// test sets: simulated hosts have no mounts of their own.
type diskSource struct {
	*sysinfo.SimSource
	usedPct float64
}

func (d *diskSource) Disks() ([]sysinfo.DiskUsage, error) {
	return []sysinfo.DiskUsage{{Path: "/export", UsedPct: d.usedPct}}, nil
}

// TestDiskRuleEndToEnd covers the paper's disk-usage monitoring category:
// a df-style rule over the host's mount table drives the state machine.
func TestDiskRuleEndToEnd(t *testing.T) {
	clock := vclock.NewAuto(vclock.Epoch)
	host := sim.NewHost(clock, "ws1", sim.Config{Speed: 1000})
	src := &diskSource{SimSource: sysinfo.NewSimSource(host, nil), usedPct: 40}
	engine := rules.NewEngine(nil)
	if err := engine.Add(&rules.Rule{
		Number: 1, Name: "diskExport", Type: rules.Simple,
		Script: "diskUsedPct.sh", Param: "/export",
		Operator: rules.OpGreater, Busy: 80, OverLd: 95,
	}); err != nil {
		t.Fatal(err)
	}
	m, err := NewMonitor("ws1", src, WithEngine(engine), WithClock(clock))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Cycle(); err != nil {
		t.Fatal(err)
	}
	if m.State() != rules.Free {
		t.Fatalf("state at 40%% disk = %v", m.State())
	}
	src.usedPct = 90
	if _, err := m.Cycle(); err != nil {
		t.Fatal(err)
	}
	if m.State() != rules.Busy {
		t.Fatalf("state at 90%% disk = %v", m.State())
	}
	src.usedPct = 99
	if _, err := m.Cycle(); err != nil {
		t.Fatal(err)
	}
	if m.State() != rules.Overloaded {
		t.Fatalf("state at 99%% disk = %v", m.State())
	}
}

// TestMemoryRuleEndToEnd covers the memory-state monitoring category.
func TestMemoryRuleEndToEnd(t *testing.T) {
	clock := vclock.NewAuto(vclock.Epoch)
	host := sim.NewHost(clock, "ws1", sim.Config{Speed: 1000, MemTotal: 100 << 20, MemBase: 10 << 20})
	engine := rules.NewEngine(nil)
	if err := engine.Add(&rules.Rule{
		Number: 1, Name: "memAvail", Type: rules.Simple,
		Script: "memAvailPct.sh", Operator: rules.OpLess, Busy: 30, OverLd: 10,
	}); err != nil {
		t.Fatal(err)
	}
	m, err := NewMonitor(
		"ws1",
		sysinfo.NewSimSource(host, nil),
		WithEngine(engine),
		WithClock(clock),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Cycle(); err != nil {
		t.Fatal(err)
	}
	if m.State() != rules.Free {
		t.Fatalf("state with 90%% free memory = %v", m.State())
	}
	hog := host.Spawn("hog", 85<<20) // available drops to 5%
	defer hog.Exit()
	if _, err := m.Cycle(); err != nil {
		t.Fatal(err)
	}
	if m.State() != rules.Overloaded {
		t.Fatalf("state with 5%% free memory = %v", m.State())
	}
}

func TestStatusFromSampleRoundTrip(t *testing.T) {
	sample := Sample{
		Snap: sysinfo.Snapshot{
			Host: "ws1", Load1: 0.97, Load5: 0.5, CPUUtilPct: 26,
			NumProcs: 42, Sockets: 7, NetSentBps: 7.2e6, NetRecvBps: 0.3e6,
			MemAvailPct: 55, MemAvail: 64 << 20,
		},
		Grade: rules.GradeBusy,
		State: rules.Busy,
	}
	st := StatusFromSample(sample)
	if st.State != "busy" || st.Load1 != 0.97 || st.NetOutMBps != 7.2 {
		t.Fatalf("status = %+v", st)
	}
	snap := st.Snapshot("ws1")
	if snap.Load1 != 0.97 || snap.NetSentBps != 7.2e6 || snap.CPUIdlePct != 74 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap.NumProcs != 42 || snap.MemAvail != 64<<20 {
		t.Fatalf("snapshot = %+v", snap)
	}
}

// nopReporter accepts every registration and refresh.
type nopReporter struct{}

func (nopReporter) RegisterHost(string, proto.StaticInfo) error { return nil }
func (nopReporter) ReportStatus(string, proto.Status) error     { return nil }
func (nopReporter) UnregisterHost(string) error                 { return nil }

// idleSource is a simulated host with an empty process table: the
// simulator builds a fresh listing on every call, which a source reading
// into a buffer of its own would not.
type idleSource struct{ *sysinfo.SimSource }

func (idleSource) Procs() ([]sysinfo.ProcStat, error) { return nil, nil }

// TestCycleAllocatesNothingOnceTheRingIsFull: once the history ring holds
// historySize samples, a cycle overwrites the oldest in place, so gathering,
// evaluating, storing and reporting allocate nothing.
func TestCycleAllocatesNothingOnceTheRingIsFull(t *testing.T) {
	clock := vclock.NewAuto(vclock.Epoch)
	t.Cleanup(clock.Close)
	host := sim.NewHost(clock, "ws1", sim.Config{Speed: 1000})
	m, err := NewMonitor("ws1", idleSource{sysinfo.NewSimSource(host, nil)},
		WithEngine(loadEngine(t)), WithReporter(nopReporter{}), WithClock(clock), WithHistorySize(4))
	if err != nil {
		t.Fatal(err)
	}
	cycle := func() {
		if _, err := m.Cycle(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		cycle()
	}
	// Sixteen cycles a run: a history that reallocates every few cycles
	// shows, which an average over single cycles would round to 0.
	if avg := testing.AllocsPerRun(20, func() {
		for i := 0; i < 16; i++ {
			cycle()
		}
	}); avg != 0 {
		t.Errorf("16 cycles allocate %.0f objects once the ring is full, want 0", avg)
	}
	if got := len(m.historyCopy()); got != 4 {
		t.Errorf("history holds %d samples, want 4", got)
	}
}
