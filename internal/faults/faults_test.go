package faults

import (
	"strings"
	"sync"
	"testing"
	"time"

	"autoresched/internal/core"
	"autoresched/internal/hpcm"
	"autoresched/internal/jobs"
	"autoresched/internal/malleable"
	"autoresched/internal/metrics"
	"autoresched/internal/proto"
	"autoresched/internal/registry"
	"autoresched/internal/sim"
	"autoresched/internal/vclock"
	"autoresched/internal/workload"
)

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

// newBoundInjector builds a three-host cluster (ws1..ws3), an injector and a
// system wired to each other the way the Injector doc prescribes. The hosts
// carry no monitors unless the caller adds nodes.
func newBoundInjector(t *testing.T) (*Injector, *core.System, *metrics.Registry) {
	t.Helper()
	clock := vclock.NewAuto(vclock.Epoch)
	cl := core.NewCluster(clock, 12.5e6)
	if _, err := cl.AddHosts("ws", 3, sim.Config{Speed: 1e6, MemTotal: 128 << 20}); err != nil {
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
	t.Cleanup(sys.Stop)
	in.Bind(sys)
	return in, sys, mreg
}

// idleSpec is a one-rank job, placed by the dispatcher, whose body returns
// at once.
func idleSpec(name string) jobs.Spec {
	return jobs.Spec{Name: name, Rank: func(int, int) hpcm.Main {
		return func(*hpcm.Context) error { return nil }
	}}
}

// TestSinkTrapFiresOnceOnMatchingPhase drives the one trap table with
// each of the three payload types the sink subscribes to: a wrong process,
// phase, round or an unresolvable target does not fire, the first match
// fires exactly once, the victim is the right host, and the line is exact.
func TestSinkTrapFiresOnceOnMatchingPhase(t *testing.T) {
	cases := []struct {
		name  string
		arm   Event
		miss  []any // payloads that must not fire the trap
		hit   any
		again any // a second match after the trap has fired
		line  string
		down  string // the host that must be down afterwards ("": none)
	}{
		{
			name: "migration phase",
			arm:  Event{Kind: KindCrashOnPhase, Proc: "app", Phase: hpcm.PhaseInit, Target: "dest"},
			miss: []any{
				hpcm.MigrationEvent{Proc: "other", Phase: hpcm.PhaseInit, From: "ws1", To: "ws2"},
				hpcm.MigrationEvent{Proc: "app", Phase: hpcm.PhaseStart, From: "ws1", To: "ws2"},
				hpcm.CheckpointEvent{Proc: "app", Host: "ws1", Begin: true},
			},
			hit:   hpcm.MigrationEvent{Proc: "app", Phase: hpcm.PhaseInit, From: "ws1", To: "ws2"},
			again: hpcm.MigrationEvent{Proc: "app", Phase: hpcm.PhaseInit, From: "ws1", To: "ws3"},
			line:  "trap crash-host host=ws2 proc=app phase=init",
			down:  "ws2",
		},
		{
			name: "migration precopy round",
			arm:  Event{Kind: KindCrashOnPhase, Proc: "app", Phase: hpcm.PhasePrecopy, Round: 2, Target: "source"},
			miss: []any{
				hpcm.MigrationEvent{Proc: "app", Phase: hpcm.PhasePrecopy, Round: 1, From: "ws1", To: "ws2"},
			},
			hit:   hpcm.MigrationEvent{Proc: "app", Phase: hpcm.PhasePrecopy, Round: 2, From: "ws1", To: "ws2"},
			again: hpcm.MigrationEvent{Proc: "app", Phase: hpcm.PhasePrecopy, Round: 2, From: "ws3", To: "ws2"},
			line:  "trap crash-host host=ws1 proc=app phase=precopy",
			down:  "ws1",
		},
		{
			name: "checkpoint begin, host",
			arm:  Event{Kind: KindKillOnCkpt, Proc: "batch.1", Target: "host"},
			miss: []any{
				hpcm.CheckpointEvent{Proc: "batch.0", Host: "ws1", Begin: true},
				hpcm.CheckpointEvent{Proc: "batch.1", Host: "ws2", Begin: false},
			},
			hit:   hpcm.CheckpointEvent{Proc: "batch.1", Host: "ws2", Begin: true},
			again: hpcm.CheckpointEvent{Proc: "batch.1", Host: "ws3", Begin: true},
			line:  "trap kill-on-checkpoint proc=batch.1 host=ws2 target=host",
			down:  "ws2",
		},
		{
			// No job "batch" runs here, so the kill of the one incarnation is
			// refused — which shows the trap took that path and left the host up.
			name:  "checkpoint begin, proc",
			arm:   Event{Kind: KindKillOnCkpt, Proc: "batch.0", Target: "proc"},
			miss:  []any{hpcm.MigrationEvent{Proc: "batch.0", From: "ws1", To: "ws2"}},
			hit:   hpcm.CheckpointEvent{Proc: "batch.0", Host: "ws1", Begin: true},
			again: hpcm.CheckpointEvent{Proc: "batch.0", Host: "ws1", Begin: true},
			line:  `trap kill-on-checkpoint proc=batch.0 host=ws1 target=proc error=core: job "batch" is not running`,
		},
		{
			name: "resize phase, new",
			arm:  Event{Kind: KindCrashOnResizePhase, Phase: malleable.PhaseSpawn, Target: "new"},
			miss: []any{
				malleable.Event{Job: "ej", Phase: malleable.PhaseQuiesce, Added: []string{"ws3"}},
				malleable.Event{Job: "ej", Phase: malleable.PhaseSpawn, Removed: []string{"ws2"}},
			},
			hit:   malleable.Event{Job: "ej", Phase: malleable.PhaseSpawn, Added: []string{"ws3", "ws2"}},
			again: malleable.Event{Job: "ej", Phase: malleable.PhaseSpawn, Added: []string{"ws2"}},
			line:  "trap crash-host host=ws3 proc=ej phase=spawn",
			down:  "ws3",
		},
		{
			name: "resize phase, victim",
			arm:  Event{Kind: KindCrashOnResizePhase, Phase: malleable.PhaseReshape, Target: "victim"},
			miss: []any{
				malleable.Event{Job: "ej", Phase: malleable.PhaseReshape, Added: []string{"ws3"}},
			},
			hit:   malleable.Event{Job: "ej", Phase: malleable.PhaseReshape, Removed: []string{"ws2"}},
			again: malleable.Event{Job: "ej", Phase: malleable.PhaseReshape, Removed: []string{"ws3"}},
			line:  "trap crash-host host=ws2 proc=ej phase=reshape",
			down:  "ws2",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in, sys, _ := newBoundInjector(t)
			in.apply(tc.arm)
			sink := in.Sink()
			// Events without a payload pass through the traps untouched.
			sink.Publish(metrics.Event{Source: metrics.SourceRegistry, Kind: "ordered"})
			for _, p := range tc.miss {
				sink.Publish(metrics.Event{Payload: p})
			}
			if got := in.Triggered(); len(got) != 0 {
				t.Fatalf("trap fired early: %v", got)
			}
			sink.Publish(metrics.Event{Payload: tc.hit})
			sink.Publish(metrics.Event{Payload: tc.again})
			got := in.Triggered()
			if len(got) != 1 {
				t.Fatalf("trap fired %d times, want 1: %v", len(got), got)
			}
			if got[0] != tc.line {
				t.Fatalf("trap line = %q, want %q", got[0], tc.line)
			}
			for _, host := range []string{"ws1", "ws2", "ws3"} {
				if down := sys.Cluster().Net().HostDown(host); down != (host == tc.down) {
					t.Errorf("host %s down = %v after the trap, want %v", host, down, host == tc.down)
				}
			}
		})
	}
}

// TestRunAppliesInAfterOrderAndReportsUnboundTargets: a plan listed out of
// time order applies in After order whatever kinds it mixes, and a kind
// whose target was never bound is an error= on its applied line, not a
// silent no-op.
func TestRunAppliesInAfterOrderAndReportsUnboundTargets(t *testing.T) {
	in, sys, _ := newBoundInjector(t)
	in.BindSpec(idleSpec("solo"))
	in.Run(Plan{Events: []Event{
		{After: 3 * time.Second, Kind: KindCrashHost, Host: "ws3"},
		{After: 4 * time.Second, Kind: KindResize, Hosts: []string{"ws1", "ws2"}},
		{After: time.Second, Kind: KindSubmitJob, Proc: "solo"},
		{After: 2 * time.Second, Kind: KindSubmitJob, Proc: "ghost"},
	}})
	vclock.Await(sys.Clock(), in.Done())
	want := []string{
		"+1s     submit-job       proc=solo",
		`+2s     submit-job       proc=ghost error=faults: no job spec bound as "ghost"`,
		"+3s     crash-host       host=ws3",
		"+4s     resize           hosts=ws1,ws2 error=faults: no elastic job bound",
	}
	got := in.Applied()
	if len(got) != len(want) {
		t.Fatalf("applied %d events, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("applied[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	if jobs := in.Jobs(); len(jobs) != 1 || jobs[0].Name() != "solo" {
		t.Fatalf("submitted job handles = %v, want solo alone", jobs)
	}
	if !sys.Cluster().Net().HostDown("ws3") {
		t.Fatal("crash-host not applied")
	}
}

func TestInjectorAppliesScheduledEvents(t *testing.T) {
	in, sys, mreg := newBoundInjector(t)
	if err := sys.AddNodes("ws1", "ws2", "ws3"); err != nil {
		t.Fatal(err)
	}
	in.BindSpec(idleSpec("solo"))
	// Forty sweeps of about one virtual second each: the resize below lands
	// mid-run.
	elastic, err := malleable.Start(malleable.Options{
		Universe:     sys.Universe(),
		App:          &workload.ElasticJacobi{N: 8, Iters: 40, WorkPerCell: 15000},
		Hosts:        sys.Cluster(),
		InitialHosts: []string{"ws1"},
		Events:       in.Sink(),
		Metrics:      mreg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer elastic.Stop()
	in.BindElastic(elastic)

	in.Run(Plan{Events: []Event{
		{After: time.Second, Kind: KindLinkFactor, Host: "ws1", Peer: "ws2", Factor: 0.5},
		{After: 2 * time.Second, Kind: KindPartition, Host: "ws1", Peer: "ws3"},
		{After: 3 * time.Second, Kind: KindRestartRegistry},
		{After: 4 * time.Second, Kind: KindSubmitJob, Proc: "solo"},
		{After: 5 * time.Second, Kind: KindResize, Hosts: []string{"ws1", "ws2"}},
	}})
	vclock.Await(sys.Clock(), in.Done())
	applied := in.Applied()
	if len(applied) != 5 {
		t.Fatalf("applied %d events, want 5: %v", len(applied), applied)
	}
	for _, line := range applied {
		if strings.Contains(line, "error=") || strings.Contains(line, "failed") {
			t.Fatalf("event failed: %s", line)
		}
	}
	if !sys.Cluster().Net().Partitioned("ws1", "ws3") {
		t.Fatal("partition not applied")
	}
	if mreg.Counter(registry.CtrRestarts).Value() != 1 {
		t.Fatalf("registry restarts = %d, want 1", mreg.Counter(registry.CtrRestarts).Value())
	}
	submitted := in.Jobs()
	if len(submitted) != 1 {
		t.Fatalf("submitted job handles = %d, want 1", len(submitted))
	}
	if err := submitted[0].Wait(); err != nil {
		t.Fatalf("submitted job: %v", err)
	}
	if err := submitted[0].Err(); err != nil {
		t.Fatalf("submitted job: %v", err)
	}
	if _, err := elastic.Wait(); err != nil {
		t.Fatalf("elastic job: %v", err)
	}
	if committed, _ := elastic.Resizes(); committed != 1 || elastic.World() != 2 {
		t.Fatalf("resize: committed=%d world=%d, want 1 and 2", committed, elastic.World())
	}
}
