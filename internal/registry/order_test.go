package registry

import (
	"fmt"
	"testing"

	"autoresched/internal/metrics"
	"autoresched/internal/proto"
	"autoresched/internal/vclock"
)

// TestHostsDeterministicOrder pins the documented contract: Hosts() returns
// registration order, surviving interleaved unregistrations, state changes
// and re-registrations (a re-registered host joins at the back).
func TestHostsDeterministicOrder(t *testing.T) {
	clock := vclock.NewAuto(vclock.Epoch)
	r := NewRegistry(WithClock(clock))
	for i := 1; i <= 5; i++ {
		h := fmt.Sprintf("ws%d", i)
		if err := r.RegisterHost(h, staticFor(h)); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.UnregisterHost("ws2"); err != nil {
		t.Fatal(err)
	}
	if err := r.ReportStatus("ws4", status("overloaded", 3, 200)); err != nil {
		t.Fatal(err)
	}
	if err := r.RegisterHost("ws2", staticFor("ws2")); err != nil {
		t.Fatal(err)
	}
	want := []string{"ws1", "ws3", "ws4", "ws5", "ws2"}
	for trial := 0; trial < 3; trial++ {
		hosts := r.Hosts()
		if len(hosts) != len(want) {
			t.Fatalf("len(Hosts()) = %d, want %d", len(hosts), len(want))
		}
		for i, h := range hosts {
			if h.Name != want[i] {
				t.Fatalf("Hosts()[%d] = %s, want %s (trial %d)", i, h.Name, want[i], trial)
			}
		}
	}
}

// TestProcessesDeterministicOrder pins the other half of the contract:
// Processes() returns PID order regardless of registration order.
func TestProcessesDeterministicOrder(t *testing.T) {
	clock := vclock.NewAuto(vclock.Epoch)
	r := NewRegistry(WithClock(clock))
	if err := r.RegisterHost("ws1", staticFor("ws1")); err != nil {
		t.Fatal(err)
	}
	for _, pid := range []int{42, 7, 19} {
		if err := r.RegisterProcess("ws1", proto.ProcessInfo{
			PID: pid, Start: clock.Now().UnixNano(),
		}); err != nil {
			t.Fatal(err)
		}
	}
	procs := r.Processes("ws1")
	if len(procs) != 3 || procs[0].PID != 7 || procs[1].PID != 19 || procs[2].PID != 42 {
		t.Fatalf("Processes() = %+v, want PID order 7,19,42", procs)
	}
}

// TestTraceEventsReachUnifiedSink: a registry wired with Config.Events
// publishes its decision trace on the unified stream, one event per
// decision, under Source "registry".
func TestTraceEventsReachUnifiedSink(t *testing.T) {
	clock := vclock.NewAuto(vclock.Epoch)
	ring := &metrics.Ring{}
	sink := &fakeSink{}
	r := NewRegistry(
		WithClock(clock),
		WithCommands(sink),
		WithWarmup(2),
		WithEvents(ring),
	)
	for _, h := range []string{"ws1", "ws4"} {
		if err := r.RegisterHost(h, staticFor(h)); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.RegisterProcess("ws1", proto.ProcessInfo{
		PID: 7, Name: "test_tree", Start: clock.Now().UnixNano(), SchemaXML: testTreeXML(t),
	}); err != nil {
		t.Fatal(err)
	}
	if err := r.ReportStatus("ws4", status("free", 0.1, 5)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := r.ReportStatus("ws1", status("overloaded", 3, 200)); err != nil {
			t.Fatal(err)
		}
	}
	if got := ring.CountBy(metrics.SourceRegistry, "warmup"); got != 1 {
		t.Fatalf("warmup events = %d, want 1", got)
	}
	if got := ring.CountBy(metrics.SourceRegistry, "ordered"); got != 1 {
		t.Fatalf("ordered events = %d, want 1", got)
	}
	// Nothing else was decided: one warm-up, one order.
	if got := ring.CountBy(metrics.SourceRegistry, ""); got != 2 {
		t.Fatalf("registry events = %d, want 2: %+v", got, ring.Events())
	}
}
