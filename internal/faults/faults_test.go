package faults

import (
	"strings"
	"sync"
	"testing"
	"time"

	"autoresched/internal/cluster"
	"autoresched/internal/core"
	"autoresched/internal/events"
	"autoresched/internal/hpcm"
	"autoresched/internal/metrics"
	"autoresched/internal/proto"
	"autoresched/internal/registry"
	"autoresched/internal/simnode"
	"autoresched/internal/vclock"
)

func TestPlanRenderSortsAndIsDeterministic(t *testing.T) {
	p := Plan{
		Name: "demo",
		Events: []Event{
			{After: 20 * time.Second, Kind: KindRestartRegistry},
			{After: 10 * time.Second, Kind: KindPartition, Host: "ws1", Peer: "ws2"},
			{After: 10 * time.Second, Kind: KindDropStatus, Host: "ws3", Count: 2},
		},
	}
	first := p.Render()
	if first != p.Render() {
		t.Fatal("Render is not deterministic")
	}
	lines := strings.Split(strings.TrimSpace(first), "\n")
	if len(lines) != 4 {
		t.Fatalf("rendered %d lines, want 4:\n%s", len(lines), first)
	}
	// Sorted by offset, slice order preserved for equal offsets.
	if !strings.Contains(lines[1], "partition") || !strings.Contains(lines[2], "drop-status") ||
		!strings.Contains(lines[3], "restart-registry") {
		t.Fatalf("events out of order:\n%s", first)
	}
	if !strings.Contains(lines[2], "count=2") {
		t.Fatalf("count not rendered:\n%s", first)
	}
}

// countingReporter records delivered reports.
type countingReporter struct {
	mu       sync.Mutex
	statuses int
}

func (c *countingReporter) RegisterHost(string, proto.StaticInfo) error { return nil }
func (c *countingReporter) UnregisterHost(string) error                 { return nil }
func (c *countingReporter) ReportStatus(string, proto.Status) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.statuses++
	return nil
}

func (c *countingReporter) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.statuses
}

func TestStatusTapDropsDuplicatesAndConsumes(t *testing.T) {
	mreg := metrics.NewRegistry()
	in := NewInjector(Config{Clock: vclock.Real(), Metrics: mreg})
	inner := &countingReporter{}
	tapped := in.WrapReporter("ws1", inner)

	in.apply(Event{Kind: KindDropStatus, Host: "ws1", Count: 2})
	in.apply(Event{Kind: KindDupStatus, Host: "ws1"}) // count defaults to 1
	in.apply(Event{Kind: KindDelayStatus, Host: "ws1", Delay: time.Millisecond})

	// 5 reports: 2 dropped, 1 duplicated, 1 delayed, 1 clean.
	for i := 0; i < 5; i++ {
		if err := tapped.ReportStatus("ws1", proto.Status{}); err != nil {
			t.Fatal(err)
		}
	}
	if got := inner.count(); got != 4 { // 0+0+2+1+1
		t.Fatalf("delivered statuses = %d, want 4", got)
	}
	if d := mreg.Counter(CtrStatusDropped).Value(); d != 2 {
		t.Fatalf("dropped = %d, want 2", d)
	}
	if d := mreg.Counter(CtrStatusDuplicated).Value(); d != 1 {
		t.Fatalf("duplicated = %d, want 1", d)
	}
	if d := mreg.Counter(CtrStatusDelayed).Value(); d != 1 {
		t.Fatalf("delayed = %d, want 1", d)
	}
	// A tap on a different host is untouched.
	other := in.WrapReporter("ws2", inner)
	if err := other.ReportStatus("ws2", proto.Status{}); err != nil {
		t.Fatal(err)
	}
	if got := inner.count(); got != 5 {
		t.Fatalf("delivered after clean host = %d, want 5", got)
	}
}

func TestSinkTrapFiresOnceOnMatchingPhase(t *testing.T) {
	in := NewInjector(Config{Clock: vclock.Real()})
	in.apply(Event{Kind: KindCrashOnPhase, Proc: "app", Phase: hpcm.PhaseInit, Target: "dest"})
	sink := in.Sink()
	obs := func(ev hpcm.MigrationEvent) {
		sink.Publish(events.Event{Source: events.SourceHPCM, Kind: ev.Phase, Payload: ev})
	}
	// Events without a migration payload pass through the trap untouched.
	sink.Publish(events.Event{Source: events.SourceRegistry, Kind: "ordered"})

	obs(hpcm.MigrationEvent{Proc: "other", Phase: hpcm.PhaseInit, From: "ws1", To: "ws2"})
	obs(hpcm.MigrationEvent{Proc: "app", Phase: hpcm.PhaseStart, From: "ws1", To: "ws2"})
	if got := in.Triggered(); len(got) != 0 {
		t.Fatalf("trap fired early: %v", got)
	}
	obs(hpcm.MigrationEvent{Proc: "app", Phase: hpcm.PhaseInit, From: "ws1", To: "ws2"})
	obs(hpcm.MigrationEvent{Proc: "app", Phase: hpcm.PhaseInit, From: "ws1", To: "ws3"})
	got := in.Triggered()
	if len(got) != 1 {
		t.Fatalf("trap fired %d times, want 1: %v", len(got), got)
	}
	if !strings.Contains(got[0], "host=ws2") {
		t.Fatalf("trap picked wrong victim: %s", got[0])
	}
}

func TestInjectorAppliesScheduledEvents(t *testing.T) {
	clock := vclock.Scaled(vclock.Epoch, 1000)
	cl := cluster.New(cluster.Options{Clock: clock, Bandwidth: 12.5e6})
	names, err := cl.AddHosts("ws", 3, simnode.Config{Speed: 1e6, MemTotal: 128 << 20})
	if err != nil {
		t.Fatal(err)
	}
	mreg := metrics.NewRegistry()
	in := NewInjector(Config{Clock: clock, Metrics: mreg})
	sys, err := core.New(core.Options{
		Cluster:      cl,
		Metrics:      mreg,
		WrapReporter: in.WrapReporter,
		Events:       in.Sink(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.AddNodes(names...); err != nil {
		t.Fatal(err)
	}
	defer sys.Stop()
	in.Bind(sys)

	in.Run(Plan{Name: "sched", Events: []Event{
		{After: time.Second, Kind: KindLinkFactor, Host: "ws1", Peer: "ws2", Factor: 0.5},
		{After: 2 * time.Second, Kind: KindPartition, Host: "ws1", Peer: "ws3"},
		{After: 3 * time.Second, Kind: KindRestartRegistry},
	}})
	select {
	case <-in.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("injector never finished")
	}
	applied := in.Applied()
	if len(applied) != 3 {
		t.Fatalf("applied %d events, want 3: %v", len(applied), applied)
	}
	for _, line := range applied {
		if strings.Contains(line, "error=") {
			t.Fatalf("event failed: %s", line)
		}
	}
	if !cl.Net().Partitioned("ws1", "ws3") {
		t.Fatal("partition not applied")
	}
	if mreg.Counter(registry.CtrRestarts).Value() != 1 {
		t.Fatalf("registry restarts = %d, want 1", mreg.Counter(registry.CtrRestarts).Value())
	}
}
