package registry

import (
	"testing"
	"time"

	"autoresched/internal/proto"
	"autoresched/internal/vclock"
)

func TestHealthSummarisesDomain(t *testing.T) {
	clock := vclock.NewAuto(vclock.Epoch)
	r := NewRegistry(WithClock(clock), WithLease(35*time.Second))

	for i, state := range []string{"free", "free", "busy", "overloaded"} {
		host := []string{"h1", "h2", "h3", "h4"}[i]
		if err := r.RegisterHost(host, staticFor(host)); err != nil {
			t.Fatal(err)
		}
		if err := r.ReportStatus(host, status(state, 0.5, 10)); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.RegisterHost("h5", staticFor("h5")); err != nil {
		t.Fatal(err)
	}
	if err := r.RegisterProcess("h3", proto.ProcessInfo{PID: 1, Start: clock.Now().UnixNano()}); err != nil {
		t.Fatal(err)
	}

	// Let h5's lease expire; the others stay fresh via the reports above.
	clock.Sleep(20 * time.Second)
	for i, state := range []string{"free", "free", "busy", "overloaded"} {
		host := []string{"h1", "h2", "h3", "h4"}[i]
		if err := r.ReportStatus(host, status(state, 0.5, 10)); err != nil {
			t.Fatal(err)
		}
	}
	clock.Sleep(20 * time.Second)

	h := r.Health()
	if h.Hosts != 5 || h.Free != 2 || h.Busy != 1 || h.Overloaded != 1 || h.Unavailable != 1 {
		t.Fatalf("health = %+v", h)
	}
	if h.Processes != 1 {
		t.Fatalf("processes = %d", h.Processes)
	}
}

func TestHealthEmptyDomain(t *testing.T) {
	r := NewRegistry(WithClock(vclock.NewAuto(vclock.Epoch)))
	h := r.Health()
	if h != (Health{}) {
		t.Fatalf("health = %+v", h)
	}
}
