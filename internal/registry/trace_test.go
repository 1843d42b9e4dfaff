package registry

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"autoresched/internal/metrics"
	"autoresched/internal/proto"
	"autoresched/internal/vclock"
)

func TestDecisionTraceRecordsLifecycle(t *testing.T) {
	clock := vclock.NewAuto(vclock.Epoch)
	sink := &fakeSink{}
	ring := &metrics.Ring{}
	var observed []string
	var mu sync.Mutex
	r := NewRegistry(
		WithClock(clock),
		WithCommands(sink),
		WithWarmup(2),
		WithCooldown(time.Minute),
		WithEvents(metrics.Multi(ring, metrics.SinkFunc(func(e metrics.Event) {
			mu.Lock()
			observed = append(observed, e.Kind)
			mu.Unlock()
		}))),
	)
	for _, h := range []string{"ws1", "ws4"} {
		if err := r.RegisterHost(h, staticFor(h)); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.ReportStatus("ws4", status("free", 0.1, 5)); err != nil {
		t.Fatal(err)
	}

	// 1st overloaded report: warmup event, no process registered yet.
	if err := r.ReportStatus("ws1", status("overloaded", 3, 200)); err != nil {
		t.Fatal(err)
	}
	// 2nd: warmup complete but no process.
	if err := r.ReportStatus("ws1", status("overloaded", 3, 200)); err != nil {
		t.Fatal(err)
	}
	if err := r.RegisterProcess("ws1", proto.ProcessInfo{PID: 9, Start: clock.Now().UnixNano()}); err != nil {
		t.Fatal(err)
	}
	// 3rd: ordered.
	if err := r.ReportStatus("ws1", status("overloaded", 3, 200)); err != nil {
		t.Fatal(err)
	}
	// Post-order: warm-up restarts (4th report), then the cooldown gates
	// the re-qualified host (5th report).
	for i := 0; i < 2; i++ {
		if err := r.ReportStatus("ws1", status("overloaded", 3, 200)); err != nil {
			t.Fatal(err)
		}
	}

	trace := ring.Events()
	kinds := make([]EventKind, len(trace))
	for i, e := range trace {
		if e.Source != metrics.SourceRegistry {
			t.Fatalf("trace event %d has source %q", i, e.Source)
		}
		kinds[i] = EventKind(e.Kind)
	}
	want := []EventKind{EventWarmup, EventNoProcess, EventOrdered, EventWarmup, EventCooldown}
	if len(kinds) != len(want) {
		t.Fatalf("trace = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("trace = %v, want %v", kinds, want)
		}
	}
	ordered := trace[2]
	if ordered.Host != "ws1" || ordered.PID != 9 || ordered.Dest != "ws4" {
		t.Fatalf("ordered event = %+v", ordered)
	}
	if s := ordered.String(); !strings.Contains(s, "ordered") || !strings.Contains(s, "dest=ws4") {
		t.Fatalf("String() = %q", s)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(observed) != len(want) {
		t.Fatalf("subscribed sink saw %v", observed)
	}
}

func TestDecisionTraceOrderFailed(t *testing.T) {
	clock := vclock.NewAuto(vclock.Epoch)
	sink := &fakeSink{err: errors.New("commander unreachable")}
	ring := &metrics.Ring{}
	r := NewRegistry(WithClock(clock), WithCommands(sink), WithWarmup(1), WithCooldown(time.Minute), WithEvents(ring))
	for _, h := range []string{"ws1", "ws4"} {
		if err := r.RegisterHost(h, staticFor(h)); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.ReportStatus("ws4", status("free", 0.1, 5)); err != nil {
		t.Fatal(err)
	}
	if err := r.RegisterProcess("ws1", proto.ProcessInfo{PID: 9, Start: clock.Now().UnixNano()}); err != nil {
		t.Fatal(err)
	}
	if err := r.ReportStatus("ws1", status("overloaded", 3, 200)); err != nil {
		t.Fatal(err)
	}
	trace := ring.Events()
	if len(trace) != 1 || trace[0].Kind != string(EventOrderFailed) {
		t.Fatalf("trace = %+v", trace)
	}
	if !strings.Contains(trace[0].Note, "unreachable") {
		t.Fatalf("note = %q", trace[0].Note)
	}
}
