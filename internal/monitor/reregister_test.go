package monitor

import (
	"errors"
	"sync"
	"testing"

	"autoresched/internal/metrics"
	"autoresched/internal/proto"
	"autoresched/internal/sim"
	"autoresched/internal/sysinfo"
	"autoresched/internal/vclock"
)

// amnesiacReporter forgets its hosts on demand, like a restarted registry.
type amnesiacReporter struct {
	mu        sync.Mutex
	known     map[string]bool
	registers int
	statuses  int
}

func (a *amnesiacReporter) RegisterHost(host string, static proto.StaticInfo) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.known == nil {
		a.known = make(map[string]bool)
	}
	a.known[host] = true
	a.registers++
	return nil
}

func (a *amnesiacReporter) ReportStatus(host string, st proto.Status) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.known[host] {
		return errors.New("proto: remote error: registry: status from unregistered host \"" + host + "\"")
	}
	a.statuses++
	return nil
}

func (a *amnesiacReporter) UnregisterHost(host string) error { return nil }

func (a *amnesiacReporter) forget() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.known = nil
}

func (a *amnesiacReporter) counts() (int, int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.registers, a.statuses
}

func TestCycleReregistersAfterRegistryRestart(t *testing.T) {
	clock := vclock.NewManual(vclock.Epoch)
	host := sim.NewHost(clock, "ws1", sim.Config{Speed: 1000})
	rep := &amnesiacReporter{}
	mreg := metrics.NewRegistry()
	m, err := NewMonitor(
		"ws1",
		sysinfo.NewSimSource(host, nil),
		WithReporter(rep),
		WithClock(clock),
		WithMetrics(mreg),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.register(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Cycle(); err != nil {
		t.Fatal(err)
	}

	// The registry "restarts": its soft state is gone. The next cycle's
	// refresh is rejected, the monitor re-registers and retries, and the
	// cycle still succeeds.
	rep.forget()
	if _, err := m.Cycle(); err != nil {
		t.Fatalf("cycle after registry restart: %v", err)
	}
	regs, stats := rep.counts()
	if regs != 2 {
		t.Fatalf("registers = %d, want 2 (initial + recovery)", regs)
	}
	if stats != 2 {
		t.Fatalf("statuses = %d, want 2", stats)
	}
	if mreg.Counter(CtrReregisters).Value() != 1 {
		t.Fatalf("reregister counter = %d", mreg.Counter(CtrReregisters).Value())
	}
}
