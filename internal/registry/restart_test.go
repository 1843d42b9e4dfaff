package registry

import (
	"strings"
	"testing"

	"autoresched/internal/events"
	"autoresched/internal/metrics"
	"autoresched/internal/proto"
	"autoresched/internal/vclock"
)

func TestRestartDropsSoftState(t *testing.T) {
	clock := vclock.NewManual(vclock.Epoch)
	mreg := metrics.NewRegistry()
	ring := &events.Ring{}
	r := newFromConfig(Config{Clock: clock, Metrics: mreg, Events: ring})
	if err := r.RegisterHost("ws1", proto.StaticInfo{CPUSpeed: 1e6}); err != nil {
		t.Fatal(err)
	}
	if err := r.RegisterProcess("ws1", proto.ProcessInfo{PID: 42, Name: "app"}); err != nil {
		t.Fatal(err)
	}
	if err := r.ReportStatus("ws1", proto.Status{State: "free"}); err != nil {
		t.Fatal(err)
	}

	r.Restart()

	if got := r.Hosts(); len(got) != 0 {
		t.Fatalf("hosts after restart = %+v", got)
	}
	if got := r.Processes("ws1"); len(got) != 0 {
		t.Fatalf("procs after restart = %+v", got)
	}
	// The next refresh is rejected — the signal monitors key their
	// re-registration on.
	err := r.ReportStatus("ws1", proto.Status{State: "free"})
	if err == nil || !strings.Contains(err.Error(), "unregistered host") {
		t.Fatalf("status after restart: %v", err)
	}
	if got := mreg.Counter(CtrRestarts).Value(); got != 1 {
		t.Fatalf("restart counter = %d", got)
	}
	// The decision trace records the restart.
	if ring.CountBy(events.SourceRegistry, string(EventRestart)) != 1 {
		t.Fatalf("no restart event in trace: %+v", ring.Events())
	}
	// Re-registration resumes normal service.
	if err := r.RegisterHost("ws1", proto.StaticInfo{CPUSpeed: 1e6}); err != nil {
		t.Fatal(err)
	}
	if err := r.ReportStatus("ws1", proto.Status{State: "free"}); err != nil {
		t.Fatal(err)
	}
}
