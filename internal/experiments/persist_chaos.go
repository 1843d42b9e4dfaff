package experiments

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"autoresched/internal/core"
	"autoresched/internal/events"
	"autoresched/internal/faults"
	"autoresched/internal/hpcm"
	"autoresched/internal/metrics"
	"autoresched/internal/monitor"
	"autoresched/internal/persist"
	"autoresched/internal/registry"
	"autoresched/internal/workload"
)

// persistChaosRun is the shared rig of the registry-crashloop-* and
// registry-standby-* scenarios: the classic four-host tree workload, but
// with the registry journaling every mutation to a persist.MemStore so a
// restart is a crash-consistent bootstrap instead of a soft-state drop.
type persistChaosRun struct {
	sys    *core.System
	store  *persist.MemStore
	mreg   *metrics.Registry
	in     *faults.Injector
	app    *core.App
	tree   workload.TreeConfig
	sums   map[int]int64
	mu     *sync.Mutex
	checks *[]string
	start  time.Time
}

// newPersistChaosRun builds the durable-registry system, launches the tree
// workload and warms the monitors. The unified event sink records every
// registry restart's typed payload into the check log: Recovered, Hosts and
// Procs are count-driven (never wall-time-driven), so the lines are
// byte-identical across runs with the same seed.
func newPersistChaosRun(cfg ChaosConfig) (*persistChaosRun, error) {
	cl, names, err := newCluster(cfg.Params, 4)
	if err != nil {
		return nil, err
	}
	clock := cl.Clock()
	mreg := metrics.NewRegistry()
	store := persist.NewMemStore()

	var mu sync.Mutex
	checks := []string{}
	restarts := 0
	restartLog := events.On(func(ev registry.RestartEvent) {
		mu.Lock()
		restarts++
		checks = append(checks, fmt.Sprintf(
			"check restart-%d recovered=%v hosts=%d procs=%d domains=%d",
			restarts, ev.Recovered, ev.Hosts, ev.Procs, ev.Domains))
		mu.Unlock()
	})

	in := faults.NewInjector(faults.Config{Clock: clock, Metrics: mreg})
	sys, err := core.New(core.Options{
		Cluster:          cl,
		MonitorInterval:  cfg.Interval,
		GatherCost:       0.05 * hostSpeed,
		Warmup:           2,
		Cooldown:         10 * time.Minute,
		RegistryHost:     names[3],
		ChunkBytes:       8 << 20,
		Checkpoints:      hpcm.NewMemStore(),
		CheckpointEvery:  30 * time.Second,
		FailoverRetries:  2,
		OrderDedupWindow: 30 * time.Second,
		Metrics:          mreg,
		Events:           events.Multi(in.Sink(), restartLog),
		WrapReporter:     in.WrapReporter,
		Store:            store,
		SnapshotEvery:    64,
	})
	if err != nil {
		return nil, err
	}
	if err := sys.AddNodes(names...); err != nil {
		return nil, err
	}
	in.Bind(sys)

	// A couple of monitoring cycles so the registry has fresh samples (and
	// the change log a realistic prefix) before the faults land.
	clock.Sleep(25 * time.Second)

	tree := workload.TreeConfig{
		Levels: 10, Rounds: 40, Seed: cfg.Seed + 1,
		WorkPerNode: 600, BytesPerNode: 8,
	}
	sums := map[int]int64{}
	tree.OnSum = func(round int, sum int64) {
		mu.Lock()
		sums[round] = sum
		mu.Unlock()
	}
	app, err := sys.Launch(chaosApp, "ws1", tree.Schema(hostSpeed), workload.TestTree(tree))
	if err != nil {
		sys.Stop()
		return nil, err
	}
	in.BindApp(chaosApp, app)
	return &persistChaosRun{
		sys: sys, store: store, mreg: mreg, in: in, app: app,
		tree: tree, sums: sums, mu: &mu, checks: &checks, start: clock.Now(),
	}, nil
}

// await runs the virtual-deadline watchdog from runChaosScenario: a hung
// scenario is a failed scenario, not a hung experiment.
func (p *persistChaosRun) await() bool {
	clock := p.sys.Clock()
	completed := true
	watchdog := clock.NewTimer(30 * time.Minute)
	select {
	case <-p.app.Settled():
		watchdog.Stop()
	case <-watchdog.C:
		completed = false
		for settled := false; !settled; {
			p.app.Process().Kill()
			select {
			case <-p.app.Settled():
				settled = true
			case <-clock.After(100 * time.Millisecond):
			}
		}
	}
	return completed
}

// check appends one deterministic assertion line to the schedule digest.
func (p *persistChaosRun) check(format string, args ...any) {
	p.mu.Lock()
	*p.checks = append(*p.checks, "check "+fmt.Sprintf(format, args...))
	p.mu.Unlock()
}

// row assembles the ChaosRow after the injector has stopped and the final
// checks have been appended.
func (p *persistChaosRun) row(cfg ChaosConfig, sc chaosScenario, completed bool, extra []string) ChaosRow {
	clock := p.sys.Clock()
	elapsed := clock.Since(p.start)
	p.mu.Lock()
	checks := append([]string(nil), *p.checks...)
	p.mu.Unlock()
	schedule := append(p.in.Applied(), p.in.Triggered()...)
	schedule = append(schedule, extra...)
	schedule = append(schedule, checks...)
	row := ChaosRow{
		Scenario:    sc.name,
		Completed:   completed,
		FinalHost:   p.app.Host(),
		Checkpoints: p.app.Process().Checkpoints(),
		Retries:     p.app.Retries(),
		Schedule:    schedule,
		VirtualSec:  elapsed.Seconds(),
	}
	if err := p.app.Wait(); err != nil {
		row.FinalErr = err.Error()
	}
	row.Counters = counterValues(p.mreg, chaosCounterNames)
	row.Spans = p.mreg.SpanStats("span/")
	cfg.Metrics.Merge(p.mreg)
	want := workload.ExpectedSums(p.tree)
	p.mu.Lock()
	row.Correct = len(p.sums) == p.tree.Rounds
	for round, sum := range want {
		if p.sums[round] != sum {
			row.Correct = false
		}
	}
	p.mu.Unlock()
	row.Survived = row.Completed && row.Correct && row.FinalErr == ""
	return row
}

// runPersistCrashloopScenario runs the registry-crashloop-* plans through
// the fault injector: the parent crash-loops under job load (and once more
// after a torn tail write), and every restart must be a crash-consistent
// recovery — zero monitor re-registrations, zero process resyncs, and a
// change log that a cold replica replays to the primary's exact final state.
func runPersistCrashloopScenario(cfg ChaosConfig, sc chaosScenario) (ChaosRow, error) {
	p, err := newPersistChaosRun(cfg)
	if err != nil {
		return ChaosRow{}, err
	}
	defer p.sys.Stop()
	p.in.Run(sc.plan)
	completed := p.await()
	p.in.Stop()

	// Quiesce before the replay check: Stop unregisters the hosts through
	// the monitors, so the log is final and the comparison race-free.
	p.sys.Stop()
	p.check("reregisters=%d proc-resyncs=%d",
		p.mreg.Counter(monitor.CtrReregisters).Value(), p.mreg.Counter(core.CtrProcResyncs).Value())
	replica, err := registry.NewStandby(p.store)
	if err != nil {
		return ChaosRow{}, err
	}
	p.check("replay-digest-match=%v",
		replica.Registry().StateDigest() == p.sys.Registry().StateDigest())
	return p.row(cfg, sc, completed, nil), nil
}

// runPersistStandbyScenario drives the warm-standby HA drill: a standby
// replica follows the primary's change log; mid-run the primary takes a gang
// reservation, the standby promotes (fencing the primary's epoch in the
// store), and the scenario asserts the deposed primary cannot commit the
// pending gang while the promoted replica — whose presumed-abort pass
// released it — admits the same hosts exactly once. The fault plan is empty:
// the runner drives the control-plane sequence itself at fixed virtual
// offsets, mirroring the jobs-chaos driver.
func runPersistStandbyScenario(cfg ChaosConfig, sc chaosScenario) (ChaosRow, error) {
	p, err := newPersistChaosRun(cfg)
	if err != nil {
		return ChaosRow{}, err
	}
	defer p.sys.Stop()
	clock := p.sys.Clock()

	// The standby shares the cluster's virtual clock: its lease-expiry view
	// of the replayed LastSeen stamps must match the primary's.
	standby, err := registry.NewStandby(p.store,
		registry.WithClock(clock), registry.WithMetrics(p.mreg))
	if err != nil {
		return ChaosRow{}, err
	}

	var mu sync.Mutex
	var applied []string
	note := func(format string, args ...any) {
		mu.Lock()
		applied = append(applied, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	planDone := make(chan struct{})
	go func() {
		defer close(planDone)
		clock.Sleep(40 * time.Second)
		res, err := p.sys.Registry().ReserveHosts([]string{"ws2", "ws3"})
		note("+40s    reserve-gang     hosts=ws2,ws3 ok=%v", err == nil)
		clock.Sleep(20 * time.Second)
		promoted, err := standby.Promote()
		note("+60s    promote-standby  ok=%v", err == nil)
		if err != nil {
			return
		}
		// The deposed primary's two-phase commit must be refused by the
		// store's epoch fence — the no-double-admission guarantee.
		if res != nil {
			err := res.Commit()
			p.check("deposed-commit-fenced=%v", errors.Is(err, persist.ErrFenced))
		}
		// The promoted replica presumed the in-flight gang aborted, so the
		// same hosts admit again — exactly once, with no orphaned lease.
		res2, err := promoted.ReserveHosts([]string{"ws2", "ws3"})
		if err == nil {
			err = res2.Commit()
		}
		p.check("promoted-readmit ok=%v", err == nil)
		p.check("promoted-reservations-outstanding=%d", len(promoted.Reserved()))

		// The fence froze the deposed primary (every mutation appends before
		// it applies), so the change log is final from the promotion on: a
		// cold replica must replay to the promoted registry's exact state.
		replica, err := registry.NewStandby(p.store)
		if err != nil {
			p.check("promoted-digest-match=error")
			return
		}
		p.check("promoted-digest-match=%v",
			replica.Registry().StateDigest() == promoted.StateDigest())
	}()
	<-planDone

	completed := p.await()
	p.in.Stop()
	p.check("reregisters=%d proc-resyncs=%d",
		p.mreg.Counter(monitor.CtrReregisters).Value(), p.mreg.Counter(core.CtrProcResyncs).Value())
	mu.Lock()
	extra := append([]string(nil), applied...)
	mu.Unlock()
	return p.row(cfg, sc, completed, extra), nil
}
