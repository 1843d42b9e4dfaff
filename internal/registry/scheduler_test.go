package registry

import (
	"testing"

	"autoresched/internal/rules"
	"autoresched/internal/vclock"
)

// leastLoaded is a policy whose only setting is its pl_scheduler: every
// host is an acceptable destination, ranked by least load.
var leastLoaded = &rules.MigrationPolicy{Scheduler: "leastloaded"}

func TestDefaultSchedulerIsFirstFit(t *testing.T) {
	r := NewRegistry(WithClock(vclock.NewAuto(vclock.Epoch)))
	if got := r.sched.Name(); got != "firstfit" {
		t.Fatalf("default scheduler = %q, want firstfit", got)
	}
}

func TestSchedulerByName(t *testing.T) {
	for name, want := range map[string]string{
		"":             "firstfit",
		"firstfit":     "firstfit",
		"first-fit":    "firstfit",
		"leastloaded":  "leastloaded",
		"least-loaded": "leastloaded",
	} {
		s, err := SchedulerByName(name)
		if err != nil {
			t.Fatalf("SchedulerByName(%q): %v", name, err)
		}
		if s.Name() != want {
			t.Fatalf("SchedulerByName(%q) = %q, want %q", name, s.Name(), want)
		}
	}
	if _, err := SchedulerByName("round-robin"); err == nil {
		t.Fatal("SchedulerByName(round-robin): want error")
	}
}

func TestPolicyNamesScheduler(t *testing.T) {
	r := NewRegistry(WithClock(vclock.NewAuto(vclock.Epoch)), WithPolicy(leastLoaded))
	if got := r.sched.Name(); got != "leastloaded" {
		t.Fatalf("scheduler via policy = %q, want leastloaded", got)
	}
}

func TestLeastLoadedPicksLightestHost(t *testing.T) {
	clock := vclock.NewAuto(vclock.Epoch)
	r := NewRegistry(WithClock(clock), WithPolicy(leastLoaded))
	for host, load := range map[string]float64{"ws1": 0.8, "ws2": 0.2, "ws3": 0.5} {
		if err := r.RegisterHost(host, staticFor(host)); err != nil {
			t.Fatal(err)
		}
		if err := r.ReportStatus(host, status("free", load, 5)); err != nil {
			t.Fatal(err)
		}
	}
	cand, ok := r.FirstFit("src", ProcInfo{})
	if !ok || cand.Host != "ws2" {
		t.Fatalf("candidate = %+v ok=%v, want lightest host ws2", cand, ok)
	}

	// First fit on the same cluster takes the earliest registration
	// regardless of load.
	ff := NewRegistry(WithClock(clock))
	for _, host := range []string{"ws1", "ws2"} {
		if err := ff.RegisterHost(host, staticFor(host)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ff.ReportStatus("ws1", status("free", 0.8, 5)); err != nil {
		t.Fatal(err)
	}
	if err := ff.ReportStatus("ws2", status("free", 0.2, 5)); err != nil {
		t.Fatal(err)
	}
	cand, ok = ff.FirstFit("src", ProcInfo{})
	if !ok || cand.Host != "ws1" {
		t.Fatalf("candidate = %+v ok=%v, want first-registered ws1", cand, ok)
	}
}

func TestLeastLoadedTieBreaksByRegistration(t *testing.T) {
	clock := vclock.NewAuto(vclock.Epoch)
	r := NewRegistry(WithClock(clock), WithPolicy(leastLoaded))
	for _, host := range []string{"ws1", "ws2"} {
		if err := r.RegisterHost(host, staticFor(host)); err != nil {
			t.Fatal(err)
		}
		if err := r.ReportStatus(host, status("free", 0.3, 5)); err != nil {
			t.Fatal(err)
		}
	}
	cand, ok := r.FirstFit("src", ProcInfo{})
	if !ok || cand.Host != "ws1" {
		t.Fatalf("candidate = %+v ok=%v, want earlier registration on tie", cand, ok)
	}
}
